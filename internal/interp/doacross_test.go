package interp_test

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/psrc"
	"repro/internal/sched"
	"repro/internal/value"
)

// runGS executes the Gauss–Seidel module under opts and returns newA.
func runGS(t *testing.T, ip *interp.Program, m, maxK int64, opts interp.Options) *value.Array {
	t.Helper()
	res, err := ip.Run("Relaxation", []any{grid(m), m, maxK}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].(*value.Array)
}

// TestDoacrossScheduleParity runs the auto-hyperplane Gauss–Seidel nest
// under every schedule policy at several widths and grains; all must be
// bitwise identical to the sequential reference, every parallel run
// must execute doacross tiles (the barrier policy is a tile shape of
// the same executor), and the plane count must match the 1-worker
// plane loop's.
func TestDoacrossScheduleParity(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	const m, maxK = 13, 7
	want := runGS(t, ip, m, maxK, interp.Options{Sequential: true})
	// A 1-worker run takes the wavefront plan through the sequential
	// plane loop: the plane count every parallel schedule must match.
	var oneStats interp.Stats
	runGS(t, ip, m, maxK, interp.Options{Workers: 1, Stats: &oneStats})
	for _, tc := range []struct {
		name string
		opts interp.Options
	}{
		{"DoacrossPar2", interp.Options{Workers: 2, Schedule: sched.PolicyDoacross}},
		{"DoacrossPar4", interp.Options{Workers: 4, Schedule: sched.PolicyDoacross}},
		{"DoacrossPar3Grain8", interp.Options{Workers: 3, Grain: 8, Schedule: sched.PolicyDoacross}},
		{"BarrierPar2Grain2", interp.Options{Workers: 2, Grain: 2, Schedule: sched.PolicyBarrier}},
		{"BarrierPar4", interp.Options{Workers: 4, Schedule: sched.PolicyBarrier}},
		{"AutoPar4", interp.Options{Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats interp.Stats
			tc.opts.Stats = &stats
			got := runGS(t, ip, m, maxK, tc.opts)
			if !reflect.DeepEqual(got.F, want.F) {
				t.Errorf("%s diverges from sequential reference", tc.name)
			}
			if stats.Doacross.Tiles.Load() == 0 {
				t.Errorf("%s executed no doacross tiles", tc.name)
			}
			if got, want := stats.Planes.Load(), oneStats.Planes.Load(); got != want || got == 0 {
				t.Errorf("%s swept %d planes, the plane loop %d", tc.name, got, want)
			}
		})
	}
}

// TestDoacrossGrainControlsTiles checks Options.Grain reaches the
// doacross executor as the tile width: a grain covering the whole
// blocked span collapses every plane to one tile, and results stay
// identical either way.
func TestDoacrossGrainControlsTiles(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	const m, maxK = 13, 7
	want := runGS(t, ip, m, maxK, interp.Options{Sequential: true})
	var fine, coarse interp.Stats
	gotFine := runGS(t, ip, m, maxK, interp.Options{Workers: 4, Schedule: sched.PolicyDoacross, Stats: &fine})
	gotCoarse := runGS(t, ip, m, maxK, interp.Options{Workers: 4, Grain: 1 << 20, Schedule: sched.PolicyDoacross, Stats: &coarse})
	if !reflect.DeepEqual(gotFine.F, want.F) || !reflect.DeepEqual(gotCoarse.F, want.F) {
		t.Error("grain variants diverge from sequential reference")
	}
	if fine.Doacross.Tiles.Load() <= coarse.Doacross.Tiles.Load() {
		t.Errorf("coarse grain did not reduce tile instances: fine=%d coarse=%d",
			fine.Doacross.Tiles.Load(), coarse.Doacross.Tiles.Load())
	}
	// A grain beyond the span clamps to one tile per plane: instances
	// equal the full time range of the sweep (empty planes included).
	if got := coarse.Doacross.Tiles.Load(); got < coarse.Planes.Load() {
		t.Errorf("coarse run has fewer tiles (%d) than non-empty planes (%d)", got, coarse.Planes.Load())
	}
}

// TestDoacrossAutoNarrowPlanes pins the inline gate: a nest whose
// work-sized tile grid is a single tile runs its planes on the calling
// goroutine, still counted as one tile instance per plane, and stays
// bitwise identical to the sequential reference.
func TestDoacrossAutoNarrowPlanes(t *testing.T) {
	ip := compileSrc(t, psrc.RelaxationGS)
	var stats interp.Stats
	// m=4: a 6×6 plane box, so a 64-point tile spans the whole plane.
	got := runGS(t, ip, 4, 6, interp.Options{Workers: 4, Stats: &stats})
	want := runGS(t, ip, 4, 6, interp.Options{Sequential: true})
	if !reflect.DeepEqual(got.F, want.F) {
		t.Error("inline one-tile run diverges from sequential reference")
	}
	if stats.Doacross.Tiles.Load() < stats.Planes.Load() || stats.Planes.Load() == 0 {
		t.Errorf("one-tile run counted %d tiles over %d planes", stats.Doacross.Tiles.Load(), stats.Planes.Load())
	}
	if stats.Doacross.Stalls.Load() != 0 || stats.Doacross.Steals.Load() != 0 {
		t.Error("one-tile run went through the doacross scheduler")
	}
}
