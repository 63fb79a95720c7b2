package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/ps"
)

// job is one activation the benchmark can issue: a prepared runner with
// its generated arguments and reference results, plus the same
// activation as a psserve request body with the reference response
// results it must produce.
type job struct {
	key     string // metric label: a corpus module key or "generated"
	program string // psserve program name (the .ps file's base name)
	module  string
	src     string
	prog    *ps.Program
	runner  *ps.Runner
	args    []any
	ref     []any
	body    []byte // /v1/run request body
	refJSON []byte // reference "results" object as psserve encodes it
}

// seeded returns a generator for one stream of a run's inputs.
func seeded(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// finish compiles and prepares the job's runner on eng and builds its
// serve request body and reference response.
func (j *job) finish(eng *ps.Engine) error {
	prog, err := eng.Compile(j.program+".ps", j.src)
	if err != nil {
		return err
	}
	j.prog = prog
	j.runner, err = prog.Prepare(j.module)
	if err != nil {
		return err
	}
	params := j.runner.Params()
	if len(params) != len(j.args) {
		return fmt.Errorf("%s: %d args for %d params", j.module, len(j.args), len(params))
	}
	inputs := make(map[string]any, len(params))
	for i, p := range params {
		inputs[p.Name] = toJSON(j.args[i])
	}
	j.body, err = json.Marshal(map[string]any{"program": j.program, "module": j.module, "inputs": inputs})
	if err != nil {
		return err
	}
	refMap, err := ps.ResultsToJSON(prog, j.module, j.ref)
	if err != nil {
		return err
	}
	j.refJSON, err = json.Marshal(refMap)
	return err
}

// toJSON renders an argument the way a psserve client sends it: arrays
// as nested lists over their declared bounds.
func toJSON(v any) any {
	a, ok := v.(*ps.Array)
	if !ok {
		return v
	}
	idx := make([]int64, len(a.Axes))
	var rec func(d int) any
	rec = func(d int) any {
		ax := a.Axes[d]
		out := make([]any, 0, ax.Hi-ax.Lo+1)
		for i := ax.Lo; i <= ax.Hi; i++ {
			idx[d] = i
			if d+1 < len(a.Axes) {
				out = append(out, rec(d+1))
			} else if a.F != nil {
				out = append(out, a.GetF(idx))
			} else {
				out = append(out, a.GetI(idx))
			}
		}
		return out
	}
	return rec(0)
}

// sameResults compares results as the parity tests do, element by
// element and bitwise for reals (all NaN payloads identified).
func sameResults(want, got []any) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		wa, wok := want[i].(*ps.Array)
		ga, gok := got[i].(*ps.Array)
		if wok != gok {
			return false
		}
		if !wok {
			wf, wfok := want[i].(float64)
			gf, gfok := got[i].(float64)
			if wfok && gfok {
				if !bitsEqual(wf, gf) {
					return false
				}
			} else if want[i] != got[i] {
				return false
			}
			continue
		}
		if !sameArray(wa, ga) {
			return false
		}
	}
	return true
}

func sameArray(w, g *ps.Array) bool {
	if w.Kind != g.Kind || len(w.Axes) != len(g.Axes) {
		return false
	}
	for d := range w.Axes {
		if w.Axes[d] != g.Axes[d] {
			return false
		}
	}
	same := true
	eachIndex(w.Axes, func(idx []int64) bool {
		switch {
		case w.F != nil:
			same = bitsEqual(w.GetF(idx), g.GetF(idx))
		case w.I != nil:
			same = w.GetI(idx) == g.GetI(idx)
		default:
			same = w.Get(idx) == g.Get(idx)
		}
		return same
	})
	return same
}

func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// eachIndex visits a box in row-major order until f returns false.
func eachIndex(axes []ps.Axis, f func(idx []int64) bool) {
	idx := make([]int64, len(axes))
	for i, ax := range axes {
		if ax.Hi < ax.Lo {
			return
		}
		idx[i] = ax.Lo
	}
	for {
		if !f(idx) {
			return
		}
		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] <= axes[d].Hi {
				break
			}
			idx[d] = axes[d].Lo
		}
		if d < 0 {
			return
		}
	}
}

// checkerSelfTest flips one element of a correct result and confirms
// both checkers (in-process results and served JSON) catch it.
func checkerSelfTest() error {
	r := seeded(1, 99)
	a := randGrid(r, 1, 4, 1, 4)
	want := []any{a}
	got := []any{cloneArray(a)}
	if !sameResults(want, got) {
		return fmt.Errorf("checker self-test: identical results compared unequal")
	}
	flipped := cloneArray(a)
	idx := []int64{3, 2}
	flipped.SetF(idx, math.Nextafter(flipped.GetF(idx), math.Inf(1)))
	if sameResults(want, []any{flipped}) {
		return fmt.Errorf("checker self-test: a flipped element went unnoticed")
	}
	if bytes.Equal(mustJSON(toJSON(a)), mustJSON(toJSON(flipped))) {
		return fmt.Errorf("checker self-test: a flipped element went unnoticed in JSON")
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func cloneArray(a *ps.Array) *ps.Array {
	c := ps.NewRealArray(a.Axes...)
	eachIndex(a.Axes, func(idx []int64) bool {
		c.SetF(idx, a.GetF(idx))
		return true
	})
	return c
}

// randGrid is a 2-D real array over [ilo,ihi]×[jlo,jhi] of values in
// [0, 1).
func randGrid(r *rand.Rand, ilo, ihi, jlo, jhi int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: ilo, Hi: ihi}, ps.Axis{Lo: jlo, Hi: jhi})
	eachIndex(a.Axes, func(idx []int64) bool {
		a.SetF(idx, r.Float64())
		return true
	})
	return a
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
