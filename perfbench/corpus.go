package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/psrc"
	"repro/ps"
)

// actChain is the repeated-activation module: a chain of local stage
// arrays whose allocation, not computation, dominates a run.
const actChain = `
ActChain: module (X: array[I,J] of real; N: int): [Out: array[I,J] of real];
type
    I, J = 1 .. N;
var
    S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11, S12: array[I,J] of real;
define
    S1[I,J] = X[I,J] + 1.0;
    S2[I,J] = S1[I,J] * 0.5;
    S3[I,J] = S2[I,J] + S1[I,J];
    S4[I,J] = S3[I,J] * 0.25;
    S5[I,J] = S4[I,J] - S2[I,J];
    S6[I,J] = S5[I,J] * S3[I,J];
    S7[I,J] = S6[I,J] + S4[I,J];
    S8[I,J] = S7[I,J] * 0.125;
    S9[I,J] = S8[I,J] + S6[I,J];
    S10[I,J] = S9[I,J] * S7[I,J];
    S11[I,J] = S10[I,J] - S8[I,J];
    S12[I,J] = S11[I,J] * 0.5;
    Out[I,J] = S12[I,J] + S1[I,J];
end ActChain;
`

// corpusModule is one paper-corpus module with its fixed problem size,
// its seeded input generator and its hand-written reference loop nest.
type corpusModule struct {
	key, module, src string
	// repeat is the module's activations per round-robin round, fixed so
	// each module takes a comparable share of the measured time.
	repeat int
	inputs func(r *rand.Rand) []any
	ref    func(args []any) []any
}

// Problem sizes. Each activation runs for roughly a millisecond on two
// workers, so a run measures thousands of ops.
const (
	relaxM, relaxK = 40, 6
	gsM, gsK       = 48, 6
	wf2dN          = 112
	heat3dN        = 22
	editN, editM   = 112, 128
	mutualN        = 80
	reflectN       = 80
	chainN         = 24
)

var corpus = []corpusModule{
	{"relaxation", "Relaxation", psrc.Relaxation, 2,
		func(r *rand.Rand) []any {
			return []any{randGrid(r, 0, relaxM+1, 0, relaxM+1), int64(relaxM), int64(relaxK)}
		},
		func(a []any) []any { return []any{refRelax(a[0].(*ps.Array), relaxM, relaxK, false)} }},
	{"gauss_seidel", "Relaxation", psrc.RelaxationGS, 1,
		func(r *rand.Rand) []any { return []any{randGrid(r, 0, gsM+1, 0, gsM+1), int64(gsM), int64(gsK)} },
		func(a []any) []any { return []any{refRelax(a[0].(*ps.Array), gsM, gsK, true)} }},
	{"wavefront2d", "Wavefront2D", psrc.Wavefront2D, 1,
		func(r *rand.Rand) []any { return []any{randGrid(r, 0, wf2dN+1, 0, wf2dN+1), int64(wf2dN)} },
		func(a []any) []any { return []any{refWavefront2D(a[0].(*ps.Array), wf2dN)} }},
	{"heat3d", "Heat3D", psrc.Heat3D, 1,
		func(r *rand.Rand) []any { return []any{randCube(r, heat3dN), int64(heat3dN)} },
		func(a []any) []any { return []any{refHeat3D(a[0].(*ps.Array), heat3dN)} }},
	{"edit_distance", "EditDistance", psrc.EditDistance, 1,
		func(r *rand.Rand) []any {
			return []any{randSymbols(r, editN), randSymbols(r, editM), int64(editN), int64(editM)}
		},
		func(a []any) []any { return []any{refEditDistance(a[0].(*ps.Array), a[1].(*ps.Array), editN, editM)} }},
	{"mutual", "Mutual", psrc.Mutual, 1,
		func(r *rand.Rand) []any { return []any{randGrid(r, 0, mutualN+1, 0, mutualN+1), int64(mutualN)} },
		func(a []any) []any { x, y := refMutual(a[0].(*ps.Array), mutualN); return []any{x, y} }},
	{"reflect", "Reflect", psrc.Reflect, 1,
		func(r *rand.Rand) []any { return []any{randGrid(r, 1, reflectN, 1, reflectN), int64(reflectN)} },
		func(a []any) []any { x, y := refReflect(a[0].(*ps.Array), reflectN); return []any{x, y} }},
	{"activation_chain", "ActChain", actChain, 6,
		func(r *rand.Rand) []any { return []any{randGrid(r, 1, chainN, 1, chainN), int64(chainN)} },
		func(a []any) []any { return []any{refActChain(a[0].(*ps.Array), chainN)} }},
}

// corpusInstances is how many times each corpus module is compiled,
// each under its own name so each calibrates its wavefront grain
// independently; corpusInputs is how many seeded inputs each instance
// cycles through. The auto cascade's barrier/doacross choice rests on
// that one-shot calibration, so a run that compiled each module once
// would measure a single draw of the choice; averaging over instances
// measures its expected cost, and the report shows every draw.
const (
	corpusInstances = 4
	corpusInputs    = 2
)

// corpusJobs builds every corpus module's jobs on eng: seeded inputs,
// references and prepared runners (default auto cascade) for each
// compiled instance.
func corpusJobs(eng *ps.Engine, seed uint64) ([][]*job, error) {
	out := make([][]*job, len(corpus))
	for m, cm := range corpus {
		r := seeded(seed, uint64(100+m))
		var inputs [][]any
		for k := 0; k < corpusInputs; k++ {
			inputs = append(inputs, cm.inputs(r))
		}
		refs := make([][]any, len(inputs))
		for k, args := range inputs {
			refs[k] = cm.ref(args)
		}
		for inst := 0; inst < corpusInstances; inst++ {
			for k, args := range inputs {
				j := &job{key: cm.key, program: fmt.Sprintf("%s-%d", cm.key, inst), module: cm.module,
					src: cm.src, args: args, ref: refs[k]}
				if err := j.finish(eng); err != nil {
					return nil, fmt.Errorf("%s: %w", cm.key, err)
				}
				out[m] = append(out[m], j)
			}
		}
	}
	return out, nil
}

// corpusSequence is the round-robin op order: each module repeat times
// per round, cycling through its instances and inputs from round to
// round.
func corpusSequence(jobs [][]*job) []*job {
	var seq []*job
	for round := 0; round < len(jobs[0]); round++ {
		for m, cm := range corpus {
			for k := 0; k < cm.repeat; k++ {
				seq = append(seq, jobs[m][round%len(jobs[m])])
			}
		}
	}
	return seq
}

// corpusState is corpus_run's set-up: one engine with prepared runners.
type corpusState struct {
	eng  *ps.Engine
	jobs [][]*job
	seq  []*job
}

func setupCorpus(seed uint64) (*corpusState, error) {
	eng := ps.NewEngine()
	jobs, err := corpusJobs(eng, seed)
	if err != nil {
		eng.Close()
		return nil, err
	}
	st := &corpusState{eng: eng, jobs: jobs, seq: corpusSequence(jobs)}
	// Warm-up: pool spin-up, arena fill and the one-shot wavefront grain
	// calibration land outside the timed window.
	for i := 0; i < 2; i++ {
		for _, j := range st.seq {
			if _, _, err := j.runner.Run(nil, j.args); err != nil {
				st.close()
				return nil, fmt.Errorf("%s warm-up: %w", j.key, err)
			}
		}
	}
	return st, nil
}

func (st *corpusState) close() { st.eng.Close() }

func runCorpus(cfg config, dur time.Duration) (*outcome, error) {
	st, setupS, err := medianSetup(setupRepeats, func() (*corpusState, error) { return setupCorpus(cfg.seed) },
		func(s *corpusState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	o := newOutcome()
	if cfg.trace {
		return o, tracedRun(cfg, dur, o, traceInput{
			sources: corpusSources(),
			seq:     st.seq,
			corpus:  st.jobs,
			eng:     st.eng,
		})
	}
	o.values["setup_s"] = setupS
	tally := scheduleTally{}
	closedLoop(o, dur, st.seq, func(j *job) ([]any, error) {
		got, rs, err := j.runner.Run(nil, j.args)
		if err == nil {
			tally.note(j, rs)
		}
		return got, err
	})
	sch := tally.report(st.jobs)
	o.detail["schedule"] = sch
	printSchedule(sch)
	return o, nil
}

// corpusSources are the corpus programs, once each.
func corpusSources() []source {
	var out []source
	for _, cm := range corpus {
		out = append(out, source{name: cm.key, text: cm.src})
	}
	return out
}

// closedLoop issues ops from seq in order, one at a time, until dur has
// elapsed, and reports throughput, latency, CPU and memory of this
// process. exec runs one op and returns its results; they are compared
// with the op's reference after the op's interval closes, so the
// checker's time counts in no metric. Throughput and CPU per op are
// taken over windows of whole passes through seq, so every window runs
// the same mix, and reported as the median over windows: a burst of
// host contention moves a few windows, not the run's figure.
func closedLoop(o *outcome, dur time.Duration, seq []*job, exec func(*job) ([]any, error)) {
	window := len(seq) * max(1, (latWindow+len(seq)-1)/len(seq))
	lat := make([]float64, 0, 1<<14)
	var (
		rates, cpus []float64
		wOps        int
		wBusy, wCPU time.Duration
	)
	// Peak RSS covers the timed window: set-up garbage is collected and
	// the high-water mark reset first.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	steal0 := readSteal()
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		j := seq[i%len(seq)]
		c0 := selfCPU()
		t0 := time.Now()
		got, err := exec(j)
		d := time.Since(t0)
		c := selfCPU() - c0
		o.tally(err, err == nil && sameResults(j.ref, got))
		lat = append(lat, ms(d))
		wOps++
		wBusy += d
		wCPU += c
		if wOps == window {
			rates = append(rates, float64(wOps)/wBusy.Seconds())
			cpus = append(cpus, ms(wCPU)/float64(wOps))
			wOps, wBusy, wCPU = 0, 0, 0
		}
	}
	if len(rates) == 0 && wOps > 0 {
		// A run too short for one whole window reports the partial one.
		rates = append(rates, float64(wOps)/wBusy.Seconds())
		cpus = append(cpus, ms(wCPU)/float64(wOps))
	}
	o.values["host_steal_share"] = readSteal().since(steal0)
	o.values["ops_per_s"] = median(rates)
	o.values["cpu_ms_per_op"] = median(cpus)
	o.detail["window_ops"] = window
	o.detail["windows"] = len(rates)
	latencySummary(o, lat)
	rss, err := peakRSSMB()
	if err == nil {
		o.values["peak_rss_mb"] = rss
	}
}

// Hand-written references: plain Go loop nests over the PS equations,
// evaluated in the same operation order so results match bitwise.

func randCube(r *rand.Rand, n int64) *ps.Array {
	a := ps.NewRealArray(ps.Axis{Lo: 0, Hi: n}, ps.Axis{Lo: 0, Hi: n}, ps.Axis{Lo: 0, Hi: n})
	eachIndex(a.Axes, func(idx []int64) bool {
		a.SetF(idx, r.Float64())
		return true
	})
	return a
}

func randSymbols(r *rand.Rand, n int64) *ps.Array {
	a := ps.NewIntArray(ps.Axis{Lo: 1, Hi: n})
	for i := int64(1); i <= n; i++ {
		a.SetI([]int64{i}, r.Int64N(4))
	}
	return a
}

// grid2 copies a 2-D array into a dense [i][j] slice (offsets removed).
func grid2(a *ps.Array) [][]float64 {
	ax0, ax1 := a.Axes[0], a.Axes[1]
	g := make([][]float64, ax0.Hi-ax0.Lo+1)
	for i := range g {
		g[i] = make([]float64, ax1.Hi-ax1.Lo+1)
		for j := range g[i] {
			g[i][j] = a.GetF([]int64{ax0.Lo + int64(i), ax1.Lo + int64(j)})
		}
	}
	return g
}

// array2 builds a 2-D real array over [lo, lo+len) from g.
func array2(g [][]float64, lo int64) *ps.Array {
	n, m := int64(len(g)), int64(len(g[0]))
	a := ps.NewRealArray(ps.Axis{Lo: lo, Hi: lo + n - 1}, ps.Axis{Lo: lo, Hi: lo + m - 1})
	for i := range g {
		for j := range g[i] {
			a.SetF([]int64{lo + int64(i), lo + int64(j)}, g[i][j])
		}
	}
	return a
}

// refRelax is Figure 1 (Jacobi) or, with gs, the §4 Gauss–Seidel
// revision: the left and upper neighbours come from the current grid.
func refRelax(init *ps.Array, m, maxK int64, gs bool) *ps.Array {
	prev := grid2(init)
	n := int(m + 2)
	for k := int64(2); k <= maxK; k++ {
		cur := make([][]float64, n)
		for i := range cur {
			cur[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == 0 || j == 0 || i == n-1 || j == n-1 {
					cur[i][j] = prev[i][j]
					continue
				}
				left, up := prev[i][j-1], prev[i-1][j]
				if gs {
					left, up = cur[i][j-1], cur[i-1][j]
				}
				cur[i][j] = (left + up + prev[i][j+1] + prev[i+1][j]) / 4
			}
		}
		prev = cur
	}
	return array2(prev, 0)
}

func refWavefront2D(seed *ps.Array, n int64) *ps.Array {
	w := grid2(seed)
	for i := 1; i < len(w); i++ {
		for j := 1; j < len(w); j++ {
			w[i][j] = (w[i-1][j] + w[i][j-1]) / 2.0
		}
	}
	return array2(w, 0)
}

func refHeat3D(g *ps.Array, n int64) *ps.Array {
	out := ps.NewRealArray(g.Axes...)
	for i := int64(0); i <= n; i++ {
		for j := int64(0); j <= n; j++ {
			for k := int64(0); k <= n; k++ {
				idx := []int64{i, j, k}
				if i == 0 || j == 0 || k == 0 {
					out.SetF(idx, g.GetF(idx))
					continue
				}
				v := (out.GetF([]int64{i - 1, j, k}) + out.GetF([]int64{i, j - 1, k}) +
					out.GetF([]int64{i, j, k - 1}) + g.GetF(idx)) / 4.0
				out.SetF(idx, v)
			}
		}
	}
	return out
}

func refEditDistance(a, b *ps.Array, n, m int64) *ps.Array {
	d := make([][]float64, n+1)
	for i := range d {
		d[i] = make([]float64, m+1)
		d[i][0] = float64(i)
	}
	for j := int64(0); j <= m; j++ {
		d[0][j] = float64(j)
	}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= m; j++ {
			sub := 1.0
			if a.GetI([]int64{i}) == b.GetI([]int64{j}) {
				sub = 0.0
			}
			d[i][j] = min(d[i-1][j]+1.0, min(d[i][j-1]+1.0, d[i-1][j-1]+sub))
		}
	}
	return array2(d, 0)
}

func refMutual(seed *ps.Array, n int64) (*ps.Array, *ps.Array) {
	s := grid2(seed)
	x, y := make([][]float64, len(s)), make([][]float64, len(s))
	for i := range s {
		x[i], y[i] = make([]float64, len(s)), make([]float64, len(s))
		for j := range s[i] {
			if i == 0 || j == 0 {
				x[i][j] = s[i][j]
				y[i][j] = 0.5 * s[i][j]
				continue
			}
			x[i][j] = (y[i-1][j] + x[i][j-1]) / 2.0
			y[i][j] = (x[i-1][j] + y[i][j-1]) / 2.0
		}
	}
	return array2(x, 0), array2(y, 0)
}

func refReflect(seed *ps.Array, n int64) (*ps.Array, *ps.Array) {
	s := grid2(seed) // s[i-1][j-1] holds Seed[i,j]
	x, y := make([][]float64, n), make([][]float64, n)
	for i := int64(0); i < n; i++ {
		x[i], y[i] = make([]float64, n), make([]float64, n)
		for j := int64(0); j < n; j++ {
			if i == 0 || j == 0 {
				x[i][j] = s[i][j]
				y[i][j] = 0.5 * s[i][j]
				continue
			}
			// X[I-1, N+1-J] with 1-based J is x[i-1][n-1-j] 0-based.
			x[i][j] = (x[i-1][j] + y[i][j-1]) / 2.0
			y[i][j] = (y[i-1][j] + x[i][j-1] + x[i-1][n-1-j]) / 3.0
		}
	}
	return array2(x, 1), array2(y, 1)
}

func refActChain(xa *ps.Array, n int64) *ps.Array {
	out := ps.NewRealArray(xa.Axes...)
	eachIndex(xa.Axes, func(idx []int64) bool {
		x := xa.GetF(idx)
		// Explicit conversions keep every product rounded on its own, as
		// the interpreter evaluates each equation separately.
		s1 := float64(x + 1.0)
		s2 := float64(s1 * 0.5)
		s3 := float64(s2 + s1)
		s4 := float64(s3 * 0.25)
		s5 := float64(s4 - s2)
		s6 := float64(s5 * s3)
		s7 := float64(s6 + s4)
		s8 := float64(s7 * 0.125)
		s9 := float64(s8 + s6)
		s10 := float64(s9 * s7)
		s11 := float64(s10 - s8)
		s12 := float64(s11 * 0.5)
		out.SetF(idx, s12+s1)
		return true
	})
	return out
}
