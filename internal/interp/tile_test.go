package interp

import (
	"testing"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/psrc"
	"repro/internal/sched"
	"repro/internal/sem"
)

// wavefrontSpace compiles src and resolves the auto-hyperplane plan's
// first wavefront step of module over the box [0, hi] in every
// dimension.
func wavefrontSpace(t *testing.T, src, module string, hi int64) *wfSpace {
	t.Helper()
	prog, err := parser.ParseProgram("tile.ps", src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := Compile(checked)
	if err != nil {
		t.Fatal(err)
	}
	cp := ip.mods[ip.Prog.Module(module)].variant(false, true)
	for i := range cp.pl.Steps {
		st := &cp.pl.Steps[i]
		if st.Op != plan.OpWavefront {
			continue
		}
		en := &env{cp: cp, bounds: make([][2]int64, len(cp.pl.Bounds))}
		for _, slot := range st.Dims {
			en.bounds[slot] = [2]int64{0, hi}
		}
		var w wfSpace
		if !w.resolve(en, st, i+1) {
			t.Fatal("empty wavefront box")
		}
		return &w
	}
	t.Fatalf("%s has no wavefront step", module)
	return nil
}

// TestTileWidthMinPoints pins the work-sized tile width: on a 2-D nest
// (wavefront2d) and a 3-D nest (heat3d), a full tile covers at least
// minTilePoints points of the plane box at every worker count, both
// nests still get more than one tile per plane, and the 3-D nest keeps
// tiles narrower than the 2-D one. An explicit grain overrides the
// width, and the barrier policy's predecessor range spans the whole
// blocked coordinate.
func TestTileWidthMinPoints(t *testing.T) {
	for _, tc := range []struct {
		name, src, module string
		hi                int64
	}{
		{"wavefront2d", psrc.Wavefront2D, "Wavefront2D", 113},
		{"heat3d", psrc.Heat3D, "Heat3D", 22},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := wavefrontSpace(t, tc.src, tc.module, tc.hi)
			for _, workers := range []int{2, 4, 8} {
				nest, blk := w.tiling(sched.PolicyAuto, workers, 0)
				ntiles, width := nest.Tiles()
				others := int64(1)
				for r := 1; r < w.n; r++ {
					if r != blk {
						others *= w.thi[r] - w.tlo[r] + 1
					}
				}
				if width*others < minTilePoints {
					t.Errorf("%d workers: %d-wide tile × %d = %d points, want ≥ %d",
						workers, width, others, width*others, minTilePoints)
				}
				if ntiles < 2 {
					t.Errorf("%d workers: %d tile(s) per plane, want a pipeline", workers, ntiles)
				}
				if w.n == 3 && width >= minTilePoints {
					t.Errorf("%d workers: 3-D tile %d wide, want narrow tiles", workers, width)
				}
			}
			if nest, _ := w.tiling(sched.PolicyAuto, 2, 5); nest.TileWidth != 5 {
				t.Errorf("grain 5 gave %d-wide tiles", nest.TileWidth)
			}
			nest, _ := w.tiling(sched.PolicyBarrier, 2, 0)
			span := nest.CoordHi - nest.CoordLo
			if nest.Window != 2 || len(nest.Preds) != 1 || !nest.Preds[0].Has ||
				nest.Preds[0].Lo > -span || nest.Preds[0].Hi < span {
				t.Errorf("barrier shape: window %d, preds %+v over span %d", nest.Window, nest.Preds, span+1)
			}
		})
	}
}
