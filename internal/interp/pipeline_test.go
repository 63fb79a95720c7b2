package interp_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/types"
	"repro/internal/value"
)

// seed builds an n×n input over [1,n]².
func seed(n int64) *value.Array {
	a := value.NewArray(types.RealKind, []value.Axis{{Lo: 1, Hi: n}, {Lo: 1, Hi: n}})
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			a.SetF([]int64{i, j}, float64((i*7+j*3)%11)/10)
		}
	}
	return a
}

// checkPipelineFirstInert asserts that lowering a module with the
// retired plan.Options.PipelineFirst (perfbench still sets it) renders
// the same plan as the auto-hyperplane variant runs execute.
func checkPipelineFirstInert(t *testing.T, ip *interp.Program, module string) {
	t.Helper()
	pf := plan.Lower(ip.Prog.Module(module), ip.Schedule(module), plan.Options{Hyperplane: true, PipelineFirst: true})
	if got, want := pf.String(), ip.Plan(module, plan.Options{Hyperplane: true}).String(); got != want {
		t.Errorf("PipelineFirst changed the lowered plan:\ngot  %s\nwant %s", got, want)
	}
}

// TestPipelineParity runs reflect — the producer/consumer nest a
// decoupled pipeline would split into stages — across worker counts and
// toggles. It lowers to a sequential DO I (DO J) producer followed by
// two collapsed DOALL consumers and no pipeline step; every run must
// match the sequential reference bitwise with the same instance count,
// and the consumers must reach the pool whenever there are workers.
func TestPipelineParity(t *testing.T) {
	ip := compileSrc(t, psrc.Reflect)
	pl := ip.Plan("Reflect", plan.Options{Hyperplane: true})
	doall := 0
	for i := range pl.Steps {
		switch pl.Steps[i].Op {
		case plan.OpPipeline, plan.OpWavefront:
			t.Fatalf("Reflect lowered to a %v step:\n%s", pl.Steps[i].Op, pl)
		case plan.OpDoAll:
			doall++
		}
	}
	if doall == 0 {
		t.Fatalf("Reflect's consumers did not lower to DOALLs:\n%s", pl)
	}
	const n = 17
	args := []any{seed(n), int64(n)}
	var seqStats interp.Stats
	ref, err := ip.Run("Reflect", args, interp.Options{Sequential: true, Stats: &seqStats})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		opts          interp.Options
		pipelineFirst bool // also checks the retired lowering option is inert
	}{
		{"Par2", interp.Options{Workers: 2}, false},
		{"Par4", interp.Options{Workers: 4}, false},
		{"Par8", interp.Options{Workers: 8}, false},
		{"StrictPar2", interp.Options{Workers: 2, Strict: true}, false},
		{"PipelineFirstPar4", interp.Options{Workers: 4}, true},
		{"Par1", interp.Options{Workers: 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pipelineFirst {
				checkPipelineFirstInert(t, ip, "Reflect")
			}
			var stats interp.Stats
			tc.opts.Stats = &stats
			got, err := ip.Run("Reflect", args, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !reflect.DeepEqual(got[i].(*value.Array).F, ref[i].(*value.Array).F) {
					t.Errorf("result %d diverges from sequential reference", i)
				}
			}
			if got, want := stats.EqInstances.Load(), seqStats.EqInstances.Load(); got != want {
				t.Errorf("executed %d equation instances, sequential executed %d", got, want)
			}
			if parallel := stats.Chunks.Load() > 0; parallel != (tc.opts.Workers > 1) {
				t.Errorf("dispatched %d DOALL chunks at %d workers", stats.Chunks.Load(), tc.opts.Workers)
			}
		})
	}
}

// TestPipelineFirstCascade pins that the retired pipeline-first option
// no longer flips the cascade: mutual wavefronts with or without it,
// and every width executes bitwise identically to the sequential run.
func TestPipelineFirstCascade(t *testing.T) {
	ip := compileSrc(t, psrc.Mutual)
	auto := ip.Plan("Mutual", plan.Options{Hyperplane: true})
	if !auto.HasWavefront() {
		t.Fatalf("auto cascade did not wavefront the re-merged nest:\n%s", auto)
	}
	// Mutual's arrays span [0, N+1]; build a matching seed.
	const n = 11
	s := value.NewArray(types.RealKind, []value.Axis{{Lo: 0, Hi: n}, {Lo: 0, Hi: n}})
	for i := int64(0); i <= n; i++ {
		for j := int64(0); j <= n; j++ {
			s.SetF([]int64{i, j}, float64((i*5+j*2)%13)/10)
		}
	}
	args := []any{s, int64(n - 1)}
	ref, err := ip.Run("Mutual", args, interp.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		opts          interp.Options
		pipelineFirst bool
	}{
		{"AutoPar4", interp.Options{Workers: 4}, false},
		{"PipelinePar2", interp.Options{Workers: 2}, true},
		{"PipelinePar4", interp.Options{Workers: 4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pipelineFirst {
				checkPipelineFirstInert(t, ip, "Mutual")
			}
			var stats interp.Stats
			tc.opts.Stats = &stats
			got, err := ip.Run("Mutual", args, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !reflect.DeepEqual(got[i].(*value.Array).F, ref[i].(*value.Array).F) {
					t.Errorf("result %d diverges from sequential reference", i)
				}
			}
			if stats.Planes.Load() == 0 {
				t.Error("wavefront plan ran no planes")
			}
		})
	}
}

// TestPipelineCancellation checks a context cancelled before the run
// aborts reflect's producer/consumer plan and reports the context error.
func TestPipelineCancellation(t *testing.T) {
	ip := compileSrc(t, psrc.Reflect)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: the run must refuse immediately
	_, err := ip.RunCtx(ctx, "Reflect", []any{seed(64), int64(64)}, interp.Options{Workers: 4})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
