package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/ps"
)

// execLayers runs the workload's ops twice each, untraced and under
// Runner.TraceRun (alternating which goes first), and derives the
// executor metrics from RunStats, the traced Breakdown and heap deltas.
func execLayers(tr *tracer, o *outcome, in traceInput, budget time.Duration) error {
	var (
		ops                                                       int
		inst, spec, chunks, planes, tiles, stalls, steals, stages int64
		reuses                                                    int64
		allocs, bytes                                             uint64
		untracedWall, tracedWall                                  time.Duration
		slots, compute, barrierIdle, dStall, pStall, idle         float64
		lookups0                                                  = in.eng.Stats()
	)
	start := time.Now()
	for i := 0; i < len(in.seq) || time.Since(start) < budget; i++ {
		j := in.seq[i%len(in.seq)]
		op := tr.newOp()
		root := tr.begin("op:"+j.key, -1, op)
		runner := j.runner
		var err error
		if in.freshCompile {
			// The churn op compiles a never-seen source and prepares it.
			var prog *ps.Program
			tr.around("ps.engine_compile", root, op, func() {
				prog, err = in.eng.Compile(fmt.Sprintf("trace%d.ps", i), uniqueSource(j.src, -1_000_000-i))
			})
			if err == nil {
				tr.around("ps.prepare", root, op, func() { runner, err = prog.Prepare(j.module) })
			}
		} else {
			// A served request resolves its program through the engine's
			// cache before running: a hit.
			tr.around("ps.engine_lookup", root, op, func() { _, err = in.eng.Compile(j.program+".ps", j.src) })
		}
		if err != nil {
			o.tally(err, false)
			tr.end(root)
			continue
		}
		var (
			got, gotT []any
			rs, rsT   *ps.RunStats
			errU      error
			errT      error
		)
		untraced := func() {
			a, b := memDelta(func() {
				tr.around("interp.run", root, op, func() { got, rs, errU = runner.Run(nil, j.args) })
			})
			allocs += a
			bytes += b
		}
		traced := func() {
			tr.around("obs.traced_run", root, op, func() { gotT, rsT, _, errT = runner.TraceRun(nil, j.args) })
		}
		if i%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		tr.end(root)
		o.tally(errU, errU == nil && sameResults(j.ref, got))
		o.tally(errT, errT == nil && sameResults(j.ref, gotT))
		if errU != nil || errT != nil {
			continue
		}
		ops++
		inst += rs.EquationInstances
		spec += rs.SpecializedKernels
		chunks += rs.DOALLChunks
		planes += rs.WavefrontPlanes
		tiles += rs.DoacrossTiles
		stalls += rs.DoacrossStalls
		steals += rs.DoacrossSteals
		stages += rs.PipelineStages
		reuses += rs.ArenaReuses
		untracedWall += rs.WallTime
		tracedWall += rsT.WallTime
		if tb := rsT.Timing; tb != nil {
			slots += float64(tb.Workers) * float64(tb.WallNs)
			compute += float64(tb.ComputeNs)
			barrierIdle += float64(tb.BarrierIdleNs)
			dStall += float64(tb.DoacrossStallNs)
			pStall += float64(tb.PipelineStallNs)
			idle += float64(tb.IdleNs)
		}
	}
	if ops == 0 {
		return fmt.Errorf("no traced op succeeded")
	}
	n := float64(ops)
	o.values["interp.specialized_share"] = share(float64(spec), float64(inst))
	o.values["par.chunks_per_op"] = float64(chunks) / n
	o.values["interp.planes_per_op"] = float64(planes) / n
	o.values["interp.barrier_idle_share"] = share(barrierIdle, slots)
	o.values["sched.tiles_per_op"] = float64(tiles) / n
	o.values["sched.stalls_per_op"] = float64(stalls) / n
	o.values["sched.stall_share"] = share(dStall, slots)
	o.values["sched.steal_share"] = share(float64(steals), float64(tiles))
	o.values["pipe.stages_per_op"] = float64(stages) / n
	o.values["pipe.stall_share"] = share(pStall, slots)
	o.values["obs.compute_share"] = share(compute, slots)
	o.values["obs.idle_share"] = share(idle, slots)
	o.values["ps.allocs_per_op"] = float64(allocs) / n
	o.values["ps.alloc_kb_per_op"] = float64(bytes) / 1024 / n
	o.values["value.arena_reuses_per_op"] = float64(reuses) / n
	o.values["obs.trace_overhead"] = share(float64(tracedWall), float64(untracedWall))
	es := in.eng.Stats()
	hits := es.CacheHits - lookups0.CacheHits
	misses := es.CacheMisses - lookups0.CacheMisses
	o.values["ps.engine_hit_share"] = share(float64(hits), float64(hits+misses))
	o.detail["exec_ops"] = ops
	return nil
}

// corpusSweep measures ns per equation instance for every corpus module
// (untraced runs, median per module) and records the schedule auto
// picked for each. Workloads other than corpus_run build the corpus on
// a private engine for it.
func corpusSweep(tr *tracer, o *outcome, seed uint64, jobs [][]*job, budget time.Duration) error {
	if jobs == nil {
		eng := ps.NewEngine()
		defer eng.Close()
		var err error
		if jobs, err = corpusJobs(eng, seed); err != nil {
			return err
		}
	}
	// Warm every instance once, untimed: its first run calibrates its
	// wavefront grain.
	for _, js := range jobs {
		for _, j := range js {
			got, _, err := j.runner.Run(nil, j.args)
			o.tally(err, err == nil && sameResults(j.ref, got))
		}
	}
	tally := scheduleTally{}
	per := make([][]float64, len(corpus))
	start := time.Now()
	for round := 0; round < len(jobs[0]) || time.Since(start) < budget; round++ {
		for m := range corpus {
			j := jobs[m][round%len(jobs[m])]
			op := tr.newOp()
			root := tr.begin("op:"+j.key, -1, op)
			var (
				got []any
				rs  *ps.RunStats
				err error
			)
			tr.around("interp.run", root, op, func() { got, rs, err = j.runner.Run(nil, j.args) })
			tr.end(root)
			o.tally(err, err == nil && sameResults(j.ref, got))
			if err != nil {
				continue
			}
			per[m] = append(per[m], float64(rs.WallTime)/float64(max(rs.EquationInstances, 1)))
			tally.note(j, rs)
		}
	}
	for m, cm := range corpus {
		o.values["interp.ns_per_instance."+cm.key] = median(per[m])
	}
	sch := tally.report(jobs)
	o.values["sched.doacross_share"] = doacrossShare(sch)
	o.detail["schedule"] = sch
	printSchedule(sch)
	return nil
}

// probeResult is what the psserve probe observed.
type probeResult struct {
	meanBatch   float64
	meanWallMs  float64
	dispatchUs  float64
	transportMs float64
}

// serveProbe sends the workload's requests to a psserve started for the
// probe, as a closed burst from maxConns senders, and reads batch sizes
// and server wall time from the responses and dispatch time and
// rejections from /metrics.
func serveProbe(cfg config, tr *tracer, o *outcome, in traceInput, budget time.Duration) (probeResult, error) {
	var pr probeResult
	seq := in.seq
	if len(seq) > 64 {
		seq = seq[:64]
	}
	srv, err := startServer(cfg.psserve, cfg.out, distinctPrograms(seq))
	if err != nil {
		return pr, err
	}
	defer srv.stop()
	srv.closedProbe(seq, 200*time.Millisecond) // warm-up
	before, err := srv.scrape()
	if err != nil {
		return pr, err
	}
	base := time.Now()
	recs := srv.closedProbe(seq, budget)
	after, err := srv.scrape()
	if err != nil {
		return pr, err
	}
	var batches, walls, transports []float64
	for _, rec := range recs {
		op := tr.newOp()
		tr.add("serve.request", -1, op, base.Add(time.Duration(rec.sent)), base.Add(time.Duration(rec.done)))
		o.tally(boolErr(rec.failed()), !rec.wrong)
		if rec.failed() {
			continue
		}
		batches = append(batches, float64(rec.batch))
		walls = append(walls, rec.wallMs)
		transports = append(transports, float64(rec.done-rec.sent)/1e6-rec.wallMs)
	}
	if len(batches) == 0 {
		return pr, fmt.Errorf("serve probe: no request succeeded")
	}
	d := func(k string) float64 { return after[k] - before[k] }
	pr.meanBatch = mean(batches)
	pr.meanWallMs = mean(walls)
	pr.dispatchUs = share(d("ps_run_wall_us_sum"), d("ps_run_wall_us_count"))
	pr.transportMs = median(transports)
	o.values["serve.mean_batch"] = pr.meanBatch
	o.values["serve.dispatch_us_mean"] = pr.dispatchUs
	o.values["serve.transport_ms_p50"] = pr.transportMs
	o.values["serve.rejected"] = d("ps_serve_rejected_total")
	o.detail["serve_probe_requests"] = len(recs)
	return pr, nil
}

// codecLayers times the serve path's per-request work from the
// benchmark: request decode (JSON + ps.ArgsFromJSON), Runner.RunBatch at
// the probe's mean batch size, and result encode (ps.ResultsToJSON +
// JSON), then attributes the rest of the server's wall time to waiting.
func codecLayers(tr *tracer, o *outcome, seq []*job, pr probeResult, budget time.Duration) error {
	b := max(int(math.Round(pr.meanBatch)), 1)
	var dec, enc, run time.Duration
	n, elems := 0, 0
	start := time.Now()
	for ; n < len(seq) || time.Since(start) < budget; n++ {
		j := seq[n%len(seq)]
		op := tr.newOp()
		root := tr.begin("codec:"+j.key, -1, op)
		var (
			args []any
			err  error
		)
		dec += tr.around("serve.decode", root, op, func() {
			var req struct {
				Program string                     `json:"program"`
				Module  string                     `json:"module"`
				Inputs  map[string]json.RawMessage `json:"inputs"`
			}
			if err = json.Unmarshal(j.body, &req); err == nil {
				args, err = ps.ArgsFromJSON(j.prog, req.Module, req.Inputs)
			}
		})
		if err != nil {
			tr.end(root)
			o.tally(err, false)
			continue
		}
		batch := make([]ps.Args, b)
		for k := range batch {
			batch[k] = args
		}
		var res []ps.BatchResult
		run += tr.around("serve.run_batch", root, op, func() { res, _, err = j.runner.RunBatch(context.Background(), batch) })
		if err == nil && res[0].Err != nil {
			err = res[0].Err
		}
		if err != nil {
			tr.end(root)
			o.tally(err, false)
			continue
		}
		elems += b
		var body []byte
		enc += tr.around("serve.encode", root, op, func() {
			var m map[string]any
			if m, err = ps.ResultsToJSON(j.prog, j.module, res[0].Values); err == nil {
				body, err = json.Marshal(map[string]any{"results": m})
			}
		})
		tr.end(root)
		o.tally(err, err == nil && sameResults(j.ref, res[0].Values) && len(body) > 0)
	}
	decUs := us(dec) / float64(n)
	encUs := us(enc) / float64(n)
	o.values["serve.decode_us_per_req"] = decUs
	o.values["serve.encode_us_per_req"] = encUs
	o.values["serve.run_us_per_elem"] = us(run) / float64(max(elems, 1))
	// Server wall time covers decode, queueing plus the batch window,
	// the fused dispatch and result encoding; the wait is what remains.
	return derived(o, "serve.wait_ms_mean", pr.meanWallMs, map[string]float64{
		"serve.decode_ms": decUs / 1e3, "serve.encode_ms": encUs / 1e3, "serve.dispatch_ms": pr.dispatchUs / 1e3})
}
