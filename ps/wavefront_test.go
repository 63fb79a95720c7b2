package ps_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/psrc"
	"repro/ps"
)

// seedGrid builds an (n+2)×(n+2) seed for the wavefront modules.
func seedGrid(n int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n + 1}, ps.Axis{Lo: 0, Hi: n + 1})
	for i := int64(0); i <= n+1; i++ {
		for j := int64(0); j <= n+1; j++ {
			a.SetF([]int64{i, j}, float64((i*7+j*3)%5))
		}
	}
	return a
}

// TestWavefrontStats checks the new RunStats attribution on a module
// whose recurrence auto-lowers to a wavefront: WavefrontPlanes counts
// exactly the hyperplanes of the sweep (for Wavefront2D with pi=(1,1)
// over [0,N+1]² that is 2(N+1)+1 time steps), the output DOALL's
// chunks land in DOALLChunks, and the plane counter stays zero when the
// transform is off or the run is sequential — so the stats distinguish
// wavefront work from plain DOALL chunking.
func TestWavefrontStats(t *testing.T) {
	const n = 40
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("wf2d.ps", psrc.Wavefront2D)
	if err != nil {
		t.Fatal(err)
	}
	args := []any{seedGrid(n), int64(n)}
	points := int64((n + 2) * (n + 2))

	run, err := prog.Prepare("Wavefront2D")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := run.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	wantPlanes := int64(2*(n+1) + 1)
	if stats.WavefrontPlanes != wantPlanes {
		t.Errorf("WavefrontPlanes = %d, want %d", stats.WavefrontPlanes, wantPlanes)
	}
	if stats.DOALLChunks == 0 {
		t.Error("wavefront planes dispatched no chunks")
	}
	// eq.1 runs once per in-box point (bounding-box slack is skipped
	// before the kernel), eq.2 once per point of the output DOALL.
	if stats.EquationInstances != 2*points {
		t.Errorf("EquationInstances = %d, want %d", stats.EquationInstances, 2*points)
	}
	if !strings.Contains(stats.String(), "wavefront_planes=") {
		t.Errorf("stats string missing wavefront counter: %s", stats)
	}

	for _, tc := range []struct {
		name string
		opts []ps.RunOption
	}{
		{"HyperOff", []ps.RunOption{ps.WithHyperplane(ps.HyperplaneOff)}},
		{"Sequential", []ps.RunOption{ps.Sequential()}},
	} {
		r, err := prog.Prepare("Wavefront2D", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := r.Run(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		if st.WavefrontPlanes != 0 {
			t.Errorf("%s: WavefrontPlanes = %d, want 0", tc.name, st.WavefrontPlanes)
		}
	}
}

// TestDoacrossStats pins the doacross counters on parallel wavefront
// runs: every schedule policy — barrier included, which is a tile shape
// of the same executor — executes tiles, counts the same hyperplanes
// and stays bitwise identical to the sequential reference, while a
// sequential run reports no tiles. The grid is wide enough (N=150: a
// 152-point plane coordinate) for more than one 64-point tile per
// plane, so the runs go through the doacross scheduler.
func TestDoacrossStats(t *testing.T) {
	const n = 150
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("wf2d.ps", psrc.Wavefront2D)
	if err != nil {
		t.Fatal(err)
	}
	args := []any{seedGrid(n), int64(n)}

	seq, err := prog.Prepare("Wavefront2D", ps.Sequential(), ps.WithSchedule(ps.ScheduleDoacross))
	if err != nil {
		t.Fatal(err)
	}
	wantRes, sStats, err := seq.Run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if sStats.DoacrossTiles != 0 {
		t.Errorf("sequential run executed doacross tiles: %s", sStats)
	}
	want, err := ps.ResultsToJSON(prog, "Wavefront2D", wantRes)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []ps.Schedule{ps.ScheduleBarrier, ps.ScheduleDoacross, ps.ScheduleAuto} {
		run, err := prog.Prepare("Wavefront2D", ps.WithSchedule(s))
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := run.Run(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ps.ResultsToJSON(prog, "Wavefront2D", res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s run diverges from the sequential reference", s)
		}
		// pi=(1,1) over [0,N+1]² has 2(N+1)+1 non-empty planes, each
		// blocked into more than one tile.
		planes := int64(2*(n+1) + 1)
		if stats.WavefrontPlanes != planes {
			t.Errorf("%s: WavefrontPlanes = %d, want %d", s, stats.WavefrontPlanes, planes)
		}
		if stats.DoacrossTiles <= planes {
			t.Errorf("%s: %d tile instances over %d planes, want more than one tile per plane", s, stats.DoacrossTiles, planes)
		}
		for _, probe := range []string{"doacross_tiles=", "doacross_stalls=", "doacross_steals="} {
			if !strings.Contains(stats.String(), probe) {
				t.Errorf("stats string missing %q: %s", probe, stats)
			}
		}
	}
}

// TestDoacrossStalls checks the residual-synchronization counters are
// actually wired end to end: a pipeline with many more tiles than
// workers forces workers off their home spans (steals) and, when a
// predecessor tile is still in flight past the spin window, parks them
// (stalls). Which of the two fires on a given run depends on scheduler
// timing, so the test accumulates over a serialized-pipeline shape
// until either counter is non-zero — if the sched package stopped
// reporting both, every attempt returns zero and the test fails.
func TestDoacrossStalls(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(4))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	// Grain 13 over the I span of 26 gives two fat tiles; window 3 makes
	// tile 1 wait on tile 0's in-flight planes, the shape most likely to
	// exhaust the spin window and park.
	run, err := prog.Prepare("Relaxation", ps.WithSchedule(ps.ScheduleDoacross), ps.Grain(13))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := prog.Prepare("Relaxation", ps.WithSchedule(ps.ScheduleDoacross))
	if err != nil {
		t.Fatal(err)
	}
	const m, maxK = 24, 12
	args := []any{seedGrid(m), int64(m), int64(maxK)}
	var stalls, steals int64
	for attempt := 0; attempt < 25 && stalls+steals == 0; attempt++ {
		for _, r := range []*ps.Runner{run, wide} {
			_, stats, err := r.Run(context.Background(), args)
			if err != nil {
				t.Fatal(err)
			}
			if stats.DoacrossTiles == 0 {
				t.Fatal("doacross schedule did not engage")
			}
			if stats.DoacrossTiles < stats.WavefrontPlanes {
				t.Errorf("fewer tiles than planes (%d < %d): planes were not blocked",
					stats.DoacrossTiles, stats.WavefrontPlanes)
			}
			stalls += stats.DoacrossStalls
			steals += stats.DoacrossSteals
		}
	}
	if stalls+steals == 0 {
		t.Error("50 pipelined runs recorded neither stalls nor steals: residual-sync counters are not wired")
	}
	t.Logf("accumulated stalls=%d steals=%d", stalls, steals)
}

// TestDoacrossCancellation aborts a long forced-doacross sweep
// mid-flight: per-tile cancellation polling must notice the context
// within a few tiles and return the typed cancellation error.
func TestDoacrossCancellation(t *testing.T) {
	eng := ps.NewEngine(ps.EngineWorkers(2))
	defer eng.Close()
	prog, err := eng.Compile("gs.ps", psrc.RelaxationGS)
	if err != nil {
		t.Fatal(err)
	}
	run, err := prog.Prepare("Relaxation", ps.WithSchedule(ps.ScheduleDoacross))
	if err != nil {
		t.Fatal(err)
	}
	// maxK is sized so the uncancelled sweep runs for seconds yet the
	// unwindowed (maxK+1)×(m+2)² recurrence array stays well under
	// 100 MB: a multi-gigabyte backing can spend minutes in first-touch
	// page faults on a slow VM, swamping the latency being measured.
	const m, maxK = 64, 1 << 11
	in := seedGrid(m)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := run.Run(ctx, []any{in, int64(m), int64(maxK)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("doacross cancellation took %v", elapsed)
	}
	// The sweep has ~2·maxK+m planes; a run that ignored the abort would
	// execute them all, so finishing with under half proves the executor
	// bailed mid-flight even if the wall clock is too noisy to.
	if stats == nil {
		t.Fatal("cancelled run did not report stats")
	}
	if total := int64(2*maxK + m); stats.WavefrontPlanes >= total/2 {
		t.Fatalf("cancelled run executed %d of ~%d planes: not aborted mid-flight",
			stats.WavefrontPlanes, total)
	}
}

// TestWavefrontCancellation aborts a long wavefront sweep mid-flight:
// the plane loop must notice the context within a few planes and return
// a typed cancellation error.
func TestWavefrontCancellation(t *testing.T) {
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
	// Sized like TestDoacrossCancellation: seconds of sweep, a
	// recurrence array small enough that first-touch faults cannot
	// dominate the measured latency.
	const m, maxK = 64, 1 << 11
	in := seedGrid(m)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, stats, err := run.Run(ctx, []any{in, int64(m), int64(maxK)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wavefront cancellation took %v", elapsed)
	}
	if stats == nil {
		t.Fatal("cancelled run did not report stats")
	}
	if total := int64(2*maxK + m); stats.WavefrontPlanes >= total/2 {
		t.Fatalf("cancelled run executed %d of ~%d planes: not aborted mid-flight",
			stats.WavefrontPlanes, total)
	}
}
