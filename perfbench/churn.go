package main

import (
	"fmt"
	"time"

	"repro/internal/psgen"
	"repro/ps"
)

// churnPool is how many generated programs compile_churn draws. Each op
// compiles one of them under a source text the engine has never seen
// (a unique trailing comment and file name), so every Compile is a full
// miss while references are computed once per pool member in set-up.
const churnPool = 384

// churnCacheLimit bounds the long-lived engine's compiled-program cache
// so the LRU evicts throughout the run, as under a hot-reloading server.
const churnCacheLimit = 4 << 20

// churnState is compile_churn's set-up.
type churnState struct {
	eng  *ps.Engine
	jobs []*job
}

// churnJobs generates the pool: psgen.RandomSpec(seed+i) programs with
// their generated inputs and the sequential, unspecialized, strict
// reference run as expected output.
func churnJobs(seed uint64, n int) ([]*job, error) {
	jobs := make([]*job, 0, n)
	for i := 0; i < n; i++ {
		sp := psgen.RandomSpec(seed + uint64(i))
		src := sp.Render()
		refProg, err := ps.CompileProgram(fmt.Sprintf("ref%d.ps", i), src)
		if err != nil {
			return nil, fmt.Errorf("generated program %d: %w", i, err)
		}
		args := sp.Inputs()
		ref, err := refProg.Run(psgen.ModuleName, args, ps.Sequential(), ps.NoSpecialize(), ps.Strict())
		if err != nil {
			return nil, fmt.Errorf("generated program %d reference: %w", i, err)
		}
		jobs = append(jobs, &job{key: "generated", program: fmt.Sprintf("gen%d", i), module: psgen.ModuleName,
			src: src, args: args, ref: ref})
	}
	return jobs, nil
}

// uniqueSource makes op i's source text distinct from every other op's.
func uniqueSource(src string, i int) string {
	return fmt.Sprintf("%s(* churn op %d *)\n", src, i)
}

func setupChurn(seed uint64) (*churnState, error) {
	jobs, err := churnJobs(seed, churnPool)
	if err != nil {
		return nil, err
	}
	st := &churnState{eng: ps.NewEngine(ps.WithCacheLimit(churnCacheLimit)), jobs: jobs}
	// Warm-up on sources the timed ops never reuse (negative op ids).
	for i := 0; i < 32; i++ {
		if _, err := st.op(jobs[i%len(jobs)], -1-i); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func (st *churnState) close() { st.eng.Close() }

// op is one compile_churn operation: compile a never-seen source,
// prepare it and run it once on its generated inputs.
func (st *churnState) op(j *job, i int) ([]any, error) {
	prog, err := st.eng.Compile(fmt.Sprintf("churn%d.ps", i), uniqueSource(j.src, i))
	if err != nil {
		return nil, err
	}
	run, err := prog.Prepare(j.module)
	if err != nil {
		return nil, err
	}
	got, _, err := run.Run(nil, j.args)
	return got, err
}

func runChurn(cfg config, dur time.Duration) (*outcome, error) {
	st, setupS, err := medianSetup(setupRepeats, func() (*churnState, error) { return setupChurn(cfg.seed) },
		func(s *churnState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	o := newOutcome()
	if cfg.trace {
		for _, j := range st.jobs {
			if err := j.finish(st.eng); err != nil {
				return nil, err
			}
		}
		var srcs []source
		for i, j := range st.jobs {
			srcs = append(srcs, source{name: j.program, text: uniqueSource(j.src, -1000-i)})
		}
		return o, tracedRun(cfg, dur, o, traceInput{sources: srcs, seq: st.jobs, eng: st.eng, freshCompile: true})
	}
	o.values["setup_s"] = setupS
	next := 0
	closedLoop(o, dur, st.jobs, func(j *job) ([]any, error) {
		next++
		return st.op(j, next)
	})
	es := st.eng.Stats()
	o.detail["engine"] = es
	fmt.Printf("  engine cache: %d programs, %d bytes, %d hits, %d misses, %d evictions\n",
		es.CachedPrograms, es.CacheBytes, es.CacheHits, es.CacheMisses, es.CacheEvictions)
	return o, nil
}
