package ps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/psrc"
	"repro/ps"
)

// reflectSeed builds the N×N seed for the Reflect producer/consumer
// workload.
func reflectSeed(n int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 1, Hi: n}, ps.Axis{Lo: 1, Hi: n})
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			a.SetF([]int64{i, j}, float64((i*7+j*3)%11)/10)
		}
	}
	return a
}

// checkBreakdown asserts the per-worker accounting identity of one
// traced run: compute + stall + idle = workers × wall,
// exact whenever the idle clamp did not fire (idle > 0 means no clamp).
func checkBreakdown(t *testing.T, b *ps.TimingBreakdown) {
	t.Helper()
	if b == nil {
		t.Fatal("traced run returned no timing breakdown")
	}
	if b.ComputeNs <= 0 {
		t.Errorf("ComputeNs = %d, want > 0", b.ComputeNs)
	}
	budget := int64(b.Workers) * b.WallNs
	sum := b.ComputeNs + b.DoacrossStallNs + b.IdleNs
	if b.IdleNs > 0 && sum != budget {
		t.Errorf("accounting identity broken: compute+stall+idle = %d, workers×wall = %d", sum, budget)
	}
	if sum < budget {
		t.Errorf("attributed time %d under workers×wall %d with idle clamped", sum, budget)
	}
}

// chromeOf renders and re-parses the trace, returning the span names.
func chromeOf(t *testing.T, tr *ps.Trace) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		names[ev.Name]++
	}
	return names
}

// TestTraceRunWavefront traces the Gauss-Seidel wavefront workload:
// results must match the untraced run bitwise, the Chrome export must
// be valid JSON with activation and wavefront spans, the breakdown
// must reconcile with workers × wall, and the traced run must surface
// in Explain.
func TestTraceRunWavefront(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		t.Fatal(err)
	}
	const m, maxK = 20, 10
	args := []any{seedGrid(m), int64(m), int64(maxK)}

	ref, _, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, tr, err := run.TraceRun(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("traced results diverge from the untraced run")
	}
	if tr == nil {
		t.Fatal("TraceRun returned no trace")
	}
	checkBreakdown(t, stats.Timing)
	// A wavefront whose grid is one tile runs its planes inline, so
	// compute can land in either bucket.
	if stats.Timing.WavefrontNs+stats.Timing.DoacrossNs <= 0 {
		t.Errorf("WavefrontNs+DoacrossNs = %d+%d, want > 0 for a wavefront workload",
			stats.Timing.WavefrontNs, stats.Timing.DoacrossNs)
	}
	if stats.WavefrontPlanes == 0 {
		t.Fatal("wavefront schedule did not engage")
	}
	if tr.Events() == 0 {
		t.Error("trace recorded no events")
	}

	names := chromeOf(t, tr)
	if names["activation"] == 0 {
		t.Error("trace has no activation span")
	}
	if names["plane"] == 0 && names["tile"] == 0 {
		t.Errorf("trace has neither plane nor tile spans: %v", names)
	}

	if exp := run.Explain(); !strings.Contains(exp, "timing (last traced run)") {
		t.Error("Explain does not surface the traced run's timing")
	}
}

// TestTraceRunPipeline traces the Reflect producer/consumer workload,
// which runs as a sequential producer nest and DOALL consumers: the
// breakdown must reconcile, compute must land in the DOALL bucket, and
// the pipeline fields kept for perfbench must stay zero with no stage
// spans in the trace.
func TestTraceRunPipeline(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("reflect.ps", psrc.Reflect)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Reflect")
	if err != nil {
		t.Fatal(err)
	}
	const n = 17
	args := []any{reflectSeed(n), int64(n)}

	ref, _, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, tr, err := run.TraceRun(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("traced results diverge from the untraced run")
	}
	checkBreakdown(t, stats.Timing)
	if stats.Timing.DOALLNs <= 0 {
		t.Errorf("DOALLNs = %d, want > 0 for the DOALL consumers", stats.Timing.DOALLNs)
	}
	if stats.PipelineStages != 0 || stats.Timing.PipelineStallNs != 0 || stats.Timing.BarrierIdleNs != 0 {
		t.Errorf("retired pipeline fields set: stages=%d stall=%d barrier-idle=%d",
			stats.PipelineStages, stats.Timing.PipelineStallNs, stats.Timing.BarrierIdleNs)
	}
	if names := chromeOf(t, tr); names["stage"] != 0 {
		t.Errorf("trace has stage spans: %v", names)
	}
}

// TestTraceRunSequential traces a sequential activation: the whole
// nest runs on the activation goroutine, so compute lands in the
// sequential span kinds and the trace still reconciles.
func TestTraceRunSequential(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation", ps.Sequential())
	if err != nil {
		t.Fatal(err)
	}
	const m, maxK = 12, 6
	args := []any{seedGrid(m), int64(m), int64(maxK)}
	_, stats, tr, err := run.TraceRun(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timing == nil {
		t.Fatal("no timing breakdown")
	}
	if stats.Timing.Workers != 1 {
		t.Errorf("Workers = %d, want 1 for sequential", stats.Timing.Workers)
	}
	checkBreakdown(t, stats.Timing)
	if names := chromeOf(t, tr); names["activation"] == 0 {
		t.Error("sequential trace has no activation span")
	}
}

// TestPlainRunHasNoTiming pins the fast path: an untraced Run carries
// no breakdown and pays no recording.
func TestPlainRunHasNoTiming(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := run.Run(context.Background(), []any{seedGrid(8), int64(8), int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Timing != nil {
		t.Error("plain Run populated Timing; recording must be opt-in")
	}
	if exp := run.Explain(); strings.Contains(exp, "timing (last traced run)") {
		t.Error("Explain shows a timing line before any traced run")
	}
}
