package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/ps"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent is the
// index of the enclosing span, -1 for an op's root.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Op         int64
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

func (t *tracer) begin(name string, parent int, op int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.t0)
	return t.spans[i].End - t.spans[i].Start
}

// around records fn as a child span and returns its duration.
func (t *tracer) around(name string, parent int, op int64, fn func()) time.Duration {
	i := t.begin(name, parent, op)
	fn()
	return t.end(i)
}

// add records a finished span from absolute times.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// layerTime is one layer's share of the traced ops.
type layerTime struct {
	Layer     string  `json:"layer"`
	Spans     int     `json:"spans"`
	SelfMs    float64 `json:"self_ms"`
	OpShare   float64 `json:"share_of_op_time"`
	MeanSelfU float64 `json:"mean_self_us"`
}

// layerReport computes each layer's self time (duration minus the time
// its child spans cover) and the share of op time its spans account
// for, over the ops (root spans) the layer appears in.
func (t *tracer) layerReport() []layerTime {
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	rootOf := func(i int) int {
		for t.spans[i].Parent >= 0 {
			i = t.spans[i].Parent
		}
		return i
	}
	by := map[string]*layerTime{}
	total := map[string]time.Duration{}
	roots := map[string]map[int]bool{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Layer: s.Name}
			by[s.Name] = lt
			roots[s.Name] = map[int]bool{}
		}
		lt.Spans++
		lt.SelfMs += ms(max(s.End-s.Start-childTime[i], 0))
		total[s.Name] += s.End - s.Start
		roots[s.Name][rootOf(i)] = true
	}
	var out []layerTime
	for _, name := range sortedKeys(by) {
		lt := by[name]
		var opTime time.Duration
		for r := range roots[name] {
			opTime += t.spans[r].End - t.spans[r].Start
		}
		lt.OpShare = share(float64(total[name]), float64(opTime))
		lt.MeanSelfU = lt.SelfMs * 1e3 / float64(lt.Spans)
		out = append(out, *lt)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, each span
// with its op id and parent index. Ops alternate between two rows, so
// the overlapping requests of the serve probe's two connections do not
// stack on one row.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1,
			Tid: s.Op % 2, Args: map[string]any{"op": s.Op, "parent": s.Parent, "id": i}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// source is one program text for the compile split.
type source struct{ name, text string }

// traceInput is what a workload hands the traced run: its programs, its
// op sequence and the engine its untraced run uses.
type traceInput struct {
	sources []source
	seq     []*job
	corpus  [][]*job // corpus jobs when the workload already built them
	eng     *ps.Engine
	// freshCompile makes each op compile a never-seen source first.
	freshCompile bool
}

// tracedRun measures the per-layer split on the workload's own programs
// and ops: the compile phases, the executors (traced against untraced),
// the serve codec and a psserve probe. Every op's outputs are checked.
func tracedRun(cfg config, dur time.Duration, o *outcome, in traceInput) error {
	tr := newTracer()
	budget := func(f float64) time.Duration { return time.Duration(float64(dur) * f) }
	if err := compileSplit(tr, o, in.sources, budget(0.2)); err != nil {
		return err
	}
	if err := execLayers(tr, o, in, budget(0.3)); err != nil {
		return err
	}
	if err := corpusSweep(tr, o, cfg.seed, in.corpus, budget(0.1)); err != nil {
		return err
	}
	probe, err := serveProbe(cfg, tr, o, in, budget(0.25))
	if err != nil {
		return err
	}
	if err := codecLayers(tr, o, in.seq, probe, budget(0.15)); err != nil {
		return err
	}
	layers := tr.layerReport()
	o.detail["layers"] = layers
	for _, lt := range layers {
		fmt.Printf("  layer %-22s spans=%-6d self=%10.3fms mean_self=%9.2fus share_of_op_time=%.4f\n",
			lt.Layer, lt.Spans, lt.SelfMs, lt.MeanSelfU, lt.OpShare)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Printf("chrome trace: %s (%d spans)\n", path, len(tr.spans))
	for name, v := range o.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}

// derived sets metric name to whole minus the sum of parts, where whole
// and the parts come from separately timed calls, and records them in
// the report. A negative difference means the separate timings do not
// add up, so the run is rejected rather than report a meaningless
// layer time.
func derived(o *outcome, name string, whole float64, parts map[string]float64) error {
	v := whole
	for _, p := range parts {
		v -= p
	}
	o.detail["derived."+name] = map[string]any{"whole": whole, "parts": parts}
	if v < 0 {
		return fmt.Errorf("%s: whole %.4g is less than its separately timed parts %v", name, whole, parts)
	}
	o.values[name] = v
	return nil
}

// planOptions are the six plan variants interp.Compile lowers.
var planOptions = []plan.Options{
	{}, {Fuse: true}, {Hyperplane: true}, {Fuse: true, Hyperplane: true},
	{Hyperplane: true, PipelineFirst: true}, {Fuse: true, Hyperplane: true, PipelineFirst: true},
}

// compileSplit times each compile phase on the workload's sources, each
// compiled under a never-seen name so Engine.Compile misses. The phase
// calls and the Engine.Compile of the same text alternate in order, so
// neither side is always the one that runs with warm caches.
func compileSplit(tr *tracer, o *outcome, srcs []source, budget time.Duration) error {
	eng := ps.NewEngine(ps.WithCacheLimit(churnCacheLimit))
	defer eng.Close()
	var parse, check, graph, schedule, lower, variants, icomp, whole, ecomp, prep time.Duration
	var nPrep, doall, wave, pipe int
	n := 0
	start := time.Now()
	for ; n < len(srcs) || time.Since(start) < budget; n++ {
		s := srcs[n%len(srcs)]
		text := uniqueSource(s.text, n)
		name := fmt.Sprintf("%s-split%d.ps", s.name, n)
		op := tr.newOp()
		root := tr.begin("compile", -1, op)
		phases := func() error {
			var (
				parsed  *ast.Program
				checked *sem.Program
				err     error
			)
			parse += tr.around("parser.parse", root, op, func() { parsed, err = parser.ParseProgram(name, text) })
			if err != nil {
				return fmt.Errorf("parse %s: %w", s.name, err)
			}
			check += tr.around("sem.check", root, op, func() { checked, err = sem.CheckNamed(name, parsed) })
			if err != nil {
				return fmt.Errorf("check %s: %w", s.name, err)
			}
			for _, m := range checked.Modules {
				var g *depgraph.Graph
				var sc *core.Schedule
				graph += tr.around("depgraph.build", root, op, func() { g = depgraph.Build(m) })
				schedule += tr.around("core.schedule", root, op, func() { sc, err = core.Build(g) })
				if err != nil {
					return fmt.Errorf("schedule %s: %w", s.name, err)
				}
				for _, po := range planOptions {
					cascade := po == plan.Options{Hyperplane: true}
					label := "plan.lower_variants"
					if cascade {
						label = "plan.lower"
					}
					var pl *plan.Program
					d := tr.around(label, root, op, func() { pl = plan.Lower(m, sc, po) })
					variants += d
					if !cascade {
						continue
					}
					lower += d
					for _, st := range pl.Steps {
						switch st.Op {
						case plan.OpDoAll:
							doall++
						case plan.OpWavefront:
							wave++
						case plan.OpPipeline:
							pipe++
						}
					}
				}
			}
			// interp.Compile gets a freshly checked program, so nothing the
			// phase calls above computed lazily is warm for it.
			if parsed, err = parser.ParseProgram(name, text); err == nil {
				checked, err = sem.CheckNamed(name, parsed)
			}
			if err != nil {
				return err
			}
			icomp += tr.around("interp.compile", root, op, func() { _, err = interp.Compile(checked) })
			if err != nil {
				return fmt.Errorf("interp compile %s: %w", s.name, err)
			}
			whole += tr.around("ps.compile_program", root, op, func() { _, err = ps.CompileProgram(name, text) })
			return err
		}
		engine := func() error {
			var (
				prog *ps.Program
				err  error
			)
			ecomp += tr.around("ps.engine_compile", root, op, func() { prog, err = eng.Compile(name, text) })
			if err != nil {
				return fmt.Errorf("engine compile %s: %w", s.name, err)
			}
			for _, mod := range prog.Modules() {
				prep += tr.around("ps.prepare", root, op, func() { _, err = prog.Prepare(mod) })
				if err != nil {
					return err
				}
				nPrep++
			}
			return nil
		}
		first, second := phases, engine
		if n%2 == 1 {
			first, second = engine, phases
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		tr.end(root)
	}
	per := func(d time.Duration) float64 { return us(d) / float64(n) }
	o.values["parser.parse_us"] = per(parse)
	o.values["sem.check_us"] = per(check)
	o.values["depgraph.build_us"] = per(graph)
	o.values["core.schedule_us"] = per(schedule)
	o.values["plan.lower_us"] = per(lower)
	// interp.Compile rebuilds the graph, the schedule and all six plan
	// variants before compiling kernels; its own share is the rest.
	if err := derived(o, "interp.compile_us", per(icomp), map[string]float64{
		"depgraph.build_us": per(graph), "core.schedule_us": per(schedule), "plan.lower_variants_us": per(variants)}); err != nil {
		return err
	}
	// ps.CompileProgram runs exactly the phases Engine.Compile runs,
	// without the engine's hashing and cache bookkeeping.
	if err := derived(o, "ps.compile_overhead_us", per(ecomp), map[string]float64{
		"ps.compile_program_us": per(whole)}); err != nil {
		return err
	}
	o.values["ps.prepare_us"] = us(prep) / float64(max(nPrep, 1))
	o.values["plan.doall_nests"] = float64(doall) / float64(n)
	o.values["plan.wavefront_nests"] = float64(wave) / float64(n)
	o.values["plan.pipeline_nests"] = float64(pipe) / float64(n)
	o.detail["compiled_programs"] = n
	return nil
}
