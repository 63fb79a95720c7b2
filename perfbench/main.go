// Command perfbench is the benchmark of record for the PS system: one
// seeded command that runs a named workload against the tree's own
// packages and its psserve binary, checks every output against a
// reference, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer split) as one JSON line.
//
// Usage (normally through run.sh, which builds this binary and psserve):
//
//	perfbench -workload corpus_run|compile_churn -seed N \
//	          -seconds S -trace 0|1 [-psserve path] [-out dir]
//
// Human-readable detail (per-module schedule choices, layer self times)
// goes to standard output before the final line; a full JSON report
// and, for traced runs, a Chrome trace are written to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef is one reported metric: its unit and which way is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports on its final
// line, for every workload. BENCHMARK.json bounds each of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// reported are end-to-end metrics printed by name and unit before the
// final line but left off it: the failure metrics are 0 on a healthy
// run and travel in the final line's correct, attempted and failed
// fields, and host steal records how contended the machine was.
var reported = []metricDef{
	{"error_share", "ratio", "lower"},
	{"wrong_outputs", "count", "lower"},
	{"host_steal_share", "ratio", "lower"},
}

// corpusKeys are the corpus modules in round-robin order; they name the
// per-module interp.ns_per_instance metrics.
var corpusKeys = []string{"relaxation", "gauss_seidel", "wavefront2d", "heat3d",
	"edit_distance", "mutual", "reflect", "activation_chain"}

// perLayer are the metrics every traced run reports, for every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"parser.parse_us", "us", "lower"},
		{"sem.check_us", "us", "lower"},
		{"depgraph.build_us", "us", "lower"},
		{"core.schedule_us", "us", "lower"},
		{"plan.lower_us", "us", "lower"},
		{"interp.compile_us", "us", "lower"},
		{"ps.compile_overhead_us", "us", "lower"},
		{"ps.prepare_us", "us", "lower"},
		{"plan.doall_nests", "count", "higher"},
		{"plan.wavefront_nests", "count", "higher"},
		{"plan.pipeline_nests", "count", "higher"},
		{"ps.engine_hit_share", "ratio", "higher"},
	}
	for _, k := range corpusKeys {
		defs = append(defs, metricDef{"interp.ns_per_instance." + k, "ns", "lower"})
	}
	defs = append(defs, []metricDef{
		{"interp.specialized_share", "ratio", "higher"},
		{"par.chunks_per_op", "count", "lower"},
		{"interp.planes_per_op", "count", "lower"},
		{"interp.barrier_idle_share", "ratio", "lower"},
		{"sched.tiles_per_op", "count", "lower"},
		{"sched.stalls_per_op", "count", "lower"},
		{"sched.stall_share", "ratio", "lower"},
		{"sched.steal_share", "ratio", "lower"},
		{"sched.doacross_share", "ratio", "higher"},
		{"pipe.stages_per_op", "count", "lower"},
		{"pipe.stall_share", "ratio", "lower"},
		{"obs.compute_share", "ratio", "higher"},
		{"obs.idle_share", "ratio", "lower"},
		{"ps.allocs_per_op", "count", "lower"},
		{"ps.alloc_kb_per_op", "KB", "lower"},
		{"value.arena_reuses_per_op", "count", "higher"},
		{"serve.decode_us_per_req", "us", "lower"},
		{"serve.encode_us_per_req", "us", "lower"},
		{"serve.run_us_per_elem", "us", "lower"},
		{"serve.mean_batch", "count", "higher"},
		{"serve.dispatch_us_mean", "us", "lower"},
		{"serve.wait_ms_mean", "ms", "lower"},
		{"serve.transport_ms_p50", "ms", "lower"},
		{"serve.rejected", "count", "lower"},
		{"obs.trace_overhead", "x", "lower"},
	}...)
	return defs
}()

// metrics collects named values for the final line.
type metrics map[string]float64

// outcome is what one run reports: the checked op counts, the metrics,
// and free-form detail for the report file.
type outcome struct {
	attempted, failed, wrong int64
	values                   metrics
	detail                   map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: metrics{}, detail: map[string]any{}}
}

// tally folds one op's result into the counts.
func (o *outcome) tally(err error, ok bool) {
	o.attempted++
	switch {
	case err != nil:
		o.failed++
	case !ok:
		o.wrong++
	}
}

// config is the command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	psserve  string
	out      string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "corpus_run or compile_churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer split")
	flag.StringVar(&cfg.psserve, "psserve", ".bench_build/bin/psserve", "psserve binary built from the tree")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the JSON report and Chrome trace")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	// The checker must be live before anything is measured: a flipped
	// element has to be caught.
	if err := checkerSelfTest(); err != nil {
		return err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var (
		o   *outcome
		err error
	)
	switch cfg.workload {
	case "corpus_run":
		o, err = runCorpus(cfg, dur)
	case "compile_churn":
		o, err = runChurn(cfg, dur)
	default:
		return fmt.Errorf("unknown -workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   o.wrong == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]map[string]any{},
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no ops attempted")
	}
	printSummary(cfg, o)
	o.detail["metrics"] = o.values
	o.detail["workload"] = cfg.workload
	o.detail["seed"] = cfg.seed
	o.detail["seconds"] = cfg.seconds
	o.detail["traced"] = cfg.trace
	o.detail["nproc"] = runtime.NumCPU()
	o.detail["result"] = res
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	report := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode))
	data, err := json.MarshalIndent(o.detail, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(report, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report: %s\n", report)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printSummary prints every measured metric by name and unit, the
// reported-only ones included.
func printSummary(cfg config, o *outcome) {
	if !cfg.trace {
		o.values["error_share"] = share(float64(o.failed), float64(o.attempted))
		o.values["wrong_outputs"] = float64(o.wrong)
	}
	fmt.Printf("%s seed=%d: attempted=%d failed=%d wrong=%d\n", cfg.workload, cfg.seed, o.attempted, o.failed, o.wrong)
	units := map[string]string{}
	for _, d := range append(append(append([]metricDef{}, endToEnd...), reported...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, n := range sortedKeys(o.values) {
		fmt.Printf("  %-40s %14.6g %s\n", n, o.values[n], units[n])
	}
}
