package interp

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/types"
	"repro/internal/value"
)

// Typed evaluation functions: the compiler dispatches on the checked
// static type so the hot paths (real and integer arithmetic) never box.
type (
	evalF func(en *env, fr []int64) float64
	evalI func(en *env, fr []int64) int64
	evalB func(en *env, fr []int64) bool
	evalA func(en *env, fr []int64) any
)

// kernelFn executes one equation at the current index frame.
type kernelFn func(en *env, fr []int64)

// compiledModule is one module ready to run: equation kernels compiled
// once, the two lowered plan variants, slot-resolved bound thunks, and
// precomputed allocation descriptors.
type compiledModule struct {
	m     *sem.Module
	sched *core.Schedule
	// plans holds the lowered variants indexed [fuse][mode], where mode
	// is 0 = hyperplane off, 1 = the auto cascade, 2 = the
	// pipeline-first cascade (WithSchedule(SchedulePipeline)). Options
	// select one at activation time; all are lowered once here, not per
	// run. Variants that lower identically — a module with no
	// cascade-eligible nest has equal base and auto plans — share one
	// compiledPlan.
	plans [2][3]*compiledPlan
	// slotOf assigns every subrange type a frame slot for its index
	// value — the plan's Bounds order, shared by every variant. It is
	// consulted at compile time only; execution reads slots baked into
	// plan steps and closures.
	slotOf map[*types.Subrange]int
	nSlots int
	// bounds holds compiled lo/hi thunks per frame slot, evaluated once
	// per activation into env.bounds.
	bounds [][2]evalI
	// symIdx numbers all data symbols for the env value table.
	symIdx map[*sem.Symbol]int
	syms   []*sem.Symbol
	// ws pools per-worker execution state reused across DOALL chunks.
	ws sync.Pool
}

// variant selects the compiled plan for one (fuse, mode) pair.
func (cm *compiledModule) variant(fuse bool, mode int) *compiledPlan {
	fi := 0
	if fuse {
		fi = 1
	}
	return cm.plans[fi][mode]
}

// planMode maps plan options onto the variant mode index: 0 =
// hyperplane off, 1 = the auto cascade, 2 = the pipeline-first cascade.
func planMode(o plan.Options) int {
	switch {
	case !o.Hyperplane:
		return 0
	case o.PipelineFirst:
		return 2
	}
	return 1
}

// compiledPlan pairs one lowered plan variant with its kernel table
// (aligned index-for-index with pl.Eqs) and the allocation descriptors
// resolved against the variant's own virtual-dimension report — the
// auto-hyperplane variants drop windows on transformed subranges.
type compiledPlan struct {
	pl      *plan.Program
	kernels []kernelFn
	// spans holds each equation's span executor (specialized direct
	// kernel or generic wrapper), aligned index-for-index with pl.Eqs.
	spans []eqSpan
	// allocs describes the result and local arrays allocated per
	// activation, with §3.4 windows resolved at compile time.
	allocs []allocInfo
}

// allocInfo describes one array allocated at activation entry.
type allocInfo struct {
	si   int
	elem types.Kind
	dims []allocDim
	// zero means a recycled arena backing must be cleared: the write-
	// coverage analysis could not prove every element is defined before
	// being read. Fresh allocations are zero either way.
	zero bool
	// local marks module locals, whose backing returns to the arena when
	// the activation completes (results outlive it).
	local bool
}

// allocDim is one dimension of an allocated array: the frame slot whose
// bounds size it and the window (0 = physical allocation).
type allocDim struct {
	slot   int
	window int
}

// compiler compiles one module's equations.
type compiler struct {
	p  *Program
	cm *compiledModule
	m  *sem.Module
	eq *sem.Equation
}

type compileError struct{ err error }

func (c *compiler) failf(format string, args ...any) {
	panic(compileError{fmt.Errorf("interp: "+format, args...)})
}

func (p *Program) compileModule(m *sem.Module, sched *core.Schedule) (cm *compiledModule, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				err = ce.err
				return
			}
			panic(r)
		}
	}()
	// Lower the schedule once into every plan variant; everything below
	// compiles against the plan's slot assignment, which all variants
	// share (Bounds come from the module's subrange table).
	basePl := plan.Lower(m, sched, plan.Options{})
	fusedPl := plan.Lower(m, sched, plan.Options{Fuse: true})
	hyperPl := plan.Lower(m, sched, plan.Options{Hyperplane: true})
	hyperFusedPl := plan.Lower(m, sched, plan.Options{Fuse: true, Hyperplane: true})
	pipePl := plan.Lower(m, sched, plan.Options{Hyperplane: true, PipelineFirst: true})
	pipeFusedPl := plan.Lower(m, sched, plan.Options{Fuse: true, Hyperplane: true, PipelineFirst: true})
	cm = &compiledModule{
		m:      m,
		sched:  sched,
		slotOf: make(map[*types.Subrange]int, len(basePl.Bounds)),
		symIdx: make(map[*sem.Symbol]int),
	}
	p.mods[m] = cm // registered before equation compilation so calls resolve
	c := &compiler{p: p, cm: cm, m: m}
	// Symbol slots must exist before bound expressions compile: bounds
	// like M+1 read scalar parameters through the slot table.
	for _, sym := range m.DataSymbols() {
		cm.symIdx[sym] = len(cm.syms)
		cm.syms = append(cm.syms, sym)
	}
	cm.nSlots = basePl.NSlots()
	cm.bounds = make([][2]evalI, cm.nSlots)
	for i, b := range basePl.Bounds {
		cm.slotOf[b.Subrange] = i
		cm.bounds[i] = [2]evalI{c.compileI(b.Lo), c.compileI(b.Hi)}
	}
	// Equation kernels compile once and are shared by every variant; the
	// specializer runs right after each checked kernel, falling back to
	// it for shapes outside the recognized fragment.
	kernels := make(map[*sem.Equation]kernelFn, len(m.Eqs))
	specs := make(map[*sem.Equation]eqSpan, len(m.Eqs))
	for _, eq := range m.Eqs {
		c.eq = eq
		kernels[eq] = c.compileEquation(eq)
		specs[eq] = c.specializeEquation(eq, kernels[eq])
		c.eq = nil
	}
	cm.plans[0][0] = cm.bindPlan(basePl, kernels, specs)
	cm.plans[1][0] = cm.bindPlan(fusedPl, kernels, specs)
	// A module where no cascade backend fires lowers identically with
	// the cascade on; share the untransformed compiledPlan then. The
	// pipeline-first mode likewise shares the auto plan unless flipping
	// the cascade order actually changed the lowering.
	if hyperPl.HasWavefront() || hyperPl.HasPipeline() {
		cm.plans[0][1] = cm.bindPlan(hyperPl, kernels, specs)
	} else {
		cm.plans[0][1] = cm.plans[0][0]
	}
	if hyperFusedPl.HasWavefront() || hyperFusedPl.HasPipeline() {
		cm.plans[1][1] = cm.bindPlan(hyperFusedPl, kernels, specs)
	} else {
		cm.plans[1][1] = cm.plans[1][0]
	}
	if pipePl.String() == hyperPl.String() {
		cm.plans[0][2] = cm.plans[0][1]
	} else {
		cm.plans[0][2] = cm.bindPlan(pipePl, kernels, specs)
	}
	if pipeFusedPl.String() == hyperFusedPl.String() {
		cm.plans[1][2] = cm.plans[1][1]
	} else {
		cm.plans[1][2] = cm.bindPlan(pipeFusedPl, kernels, specs)
	}
	return cm, nil
}

// bindPlan aligns the shared kernel table with one plan variant's
// equation order and resolves the variant's allocation descriptors
// (windows come from the variant's own virtual report).
func (cm *compiledModule) bindPlan(pl *plan.Program, kernels map[*sem.Equation]kernelFn, specs map[*sem.Equation]eqSpan) *compiledPlan {
	cp := &compiledPlan{
		pl:      pl,
		kernels: make([]kernelFn, len(pl.Eqs)),
		spans:   make([]eqSpan, len(pl.Eqs)),
	}
	for i, eq := range pl.Eqs {
		cp.kernels[i] = kernels[eq]
		cp.spans[i] = specs[eq]
	}
	m := cm.m
	win := pl.Windows()
	for _, sym := range append(append([]*sem.Symbol{}, m.Results...), m.Locals...) {
		arr, isArr := sym.Type.(*types.Array)
		if !isArr {
			continue
		}
		al := allocInfo{
			si:    cm.symIdx[sym],
			elem:  arr.Elem.Kind(),
			zero:  !writeCovered(m, sym),
			local: sym.Kind == sem.LocalSym,
		}
		for d, sr := range arr.Dims {
			al.dims = append(al.dims, allocDim{slot: cm.slotOf[sr], window: win[sym][d]})
		}
		cp.allocs = append(cp.allocs, al)
	}
	return cp
}

// --- equation compilation ---------------------------------------------------

func (c *compiler) compileEquation(eq *sem.Equation) kernelFn {
	if eq.MultiCall != nil || eq.WholeCall != nil {
		return c.compileCallEquation(eq)
	}
	target := eq.Targets[0]
	sym := target.Sym
	si := c.cm.symIdx[sym]

	// Compile explicit LHS subscripts and implicit dimension slots.
	subs := make([]evalI, len(target.Subs))
	for i, s := range target.Subs {
		subs[i] = c.compileI(s)
	}
	implicit := make([]int, len(target.Implicit))
	for i, v := range target.Implicit {
		implicit[i] = c.cm.slotOf[v]
	}
	rank := len(subs) + len(implicit)

	if rank == 0 {
		// Scalar target.
		rhs := c.compileScalarAs(eq.RHS, sym.Type)
		return func(en *env, fr []int64) {
			en.scalars[si] = rhs(en, fr)
		}
	}

	elem := sym.Type.(*types.Array).Elem
	idxOf := func(en *env, fr []int64, idx []int64) {
		for i, f := range subs {
			idx[i] = f(en, fr)
		}
		for i, slot := range implicit {
			idx[len(subs)+i] = fr[slot]
		}
	}
	switch elem.Kind() {
	case types.RealKind:
		rhs := c.compileF(eq.RHS)
		return func(en *env, fr []int64) {
			var buf [maxRank]int64
			idx := buf[:rank]
			idxOf(en, fr, idx)
			a := en.arrays[si]
			v := rhs(en, fr)
			if en.strict {
				a.SetF(idx, v)
			} else {
				a.F[arrOffset(a, idx)] = v
			}
		}
	case types.BoolKind:
		rhs := c.compileB(eq.RHS)
		return func(en *env, fr []int64) {
			var buf [maxRank]int64
			idx := buf[:rank]
			idxOf(en, fr, idx)
			a := en.arrays[si]
			v := rhs(en, fr)
			if en.strict {
				a.SetB(idx, v)
			} else {
				a.B[arrOffset(a, idx)] = v
			}
		}
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		rhs := c.compileI(eq.RHS)
		return func(en *env, fr []int64) {
			var buf [maxRank]int64
			idx := buf[:rank]
			idxOf(en, fr, idx)
			a := en.arrays[si]
			v := rhs(en, fr)
			if en.strict {
				a.SetI(idx, v)
			} else {
				a.I[arrOffset(a, idx)] = v
			}
		}
	default:
		rhs := c.compileA(eq.RHS)
		return func(en *env, fr []int64) {
			var buf [maxRank]int64
			idx := buf[:rank]
			idxOf(en, fr, idx)
			en.arrays[si].Set(idx, rhs(en, fr))
		}
	}
}

// compileCallEquation handles whole-value module calls: x = f(...) and
// multi-target a, b = f(...).
func (c *compiler) compileCallEquation(eq *sem.Equation) kernelFn {
	call := eq.WholeCall
	if eq.MultiCall != nil {
		call = eq.MultiCall
	}
	callee := c.m.Prog.Module(call.Fun.Name)
	sub, ok := c.p.mods[callee]
	if !ok {
		var err error
		sub, err = c.p.compileCallee(callee)
		if err != nil {
			c.failf("compiling callee %s: %v", callee.Name, err)
		}
	}
	args := make([]evalA, len(call.Args))
	for i, a := range call.Args {
		args[i] = c.compileA(a)
	}
	slots := make([]int, len(eq.Targets))
	isArray := make([]bool, len(eq.Targets))
	for i, t := range eq.Targets {
		if len(t.Subs) > 0 {
			c.failf("subscripted target %s of whole-call equation %s", t.Sym.Name, eq.Label)
		}
		slots[i] = c.cm.symIdx[t.Sym]
		isArray[i] = types.Rank(t.Sym.Type) > 0
	}
	return func(en *env, fr []int64) {
		argv := make([]any, len(args))
		for i, f := range args {
			argv[i] = f(en, fr)
		}
		results, err := c.p.runModule(en.rs, sub, argv, en.inParallel, en.inParallel || en.inSpan)
		if err != nil {
			panic(runtimeError{err: fmt.Errorf("call %s: %w", sub.m.Name, err)})
		}
		for i, slot := range slots {
			if isArray[i] {
				en.arrays[slot] = results[i].(*value.Array)
			} else {
				en.scalars[slot] = results[i]
			}
		}
	}
}

// --- expression compilation ---------------------------------------------------

// compileScalarAs compiles e coerced to the scalar type t.
func (c *compiler) compileScalarAs(e ast.Expr, t types.Type) evalA {
	switch t.Kind() {
	case types.RealKind:
		f := c.compileF(e)
		return func(en *env, fr []int64) any { return f(en, fr) }
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		f := c.compileI(e)
		return func(en *env, fr []int64) any { return f(en, fr) }
	case types.BoolKind:
		f := c.compileB(e)
		return func(en *env, fr []int64) any { return f(en, fr) }
	default:
		return c.compileA(e)
	}
}

func (c *compiler) typeOf(e ast.Expr) types.Type {
	t := c.m.TypeOf(e)
	if t == nil {
		c.failf("expression %s has no checked type", ast.ExprString(e))
	}
	return t
}

// compileF compiles a numeric expression to a float64 evaluator, widening
// integer subexpressions. Array-typed expressions in element context
// (e.g. the RHS of A[1] = InitialA) compile to implicitly-aligned element
// reads.
func (c *compiler) compileF(e ast.Expr) evalF {
	t := c.typeOf(e)
	if types.IsInteger(t) || t.Kind() == types.CharKind || t.Kind() == types.EnumKind {
		f := c.compileI(e)
		return func(en *env, fr []int64) float64 { return float64(f(en, fr)) }
	}
	if t.Kind() == types.ArrayKind {
		si, subs, rank := c.compileElemAccess(e)
		return func(en *env, fr []int64) float64 {
			var buf [maxRank]int64
			idx := buf[:rank]
			for i, f := range subs {
				idx[i] = f(en, fr)
			}
			a := en.arrays[si]
			if en.strict {
				return a.GetF(idx)
			}
			return a.F[arrOffset(a, idx)]
		}
	}
	if t.Kind() != types.RealKind {
		c.failf("expression %s has type %s, want real", ast.ExprString(e), t)
	}
	switch x := e.(type) {
	case *ast.RealLit:
		v := x.Value
		return func(*env, []int64) float64 { return v }
	case *ast.Paren:
		return c.compileF(x.X)
	case *ast.Ident:
		si := c.scalarSlot(x.Name)
		return func(en *env, fr []int64) float64 { return en.scalars[si].(float64) }
	case *ast.Unary:
		f := c.compileF(x.X)
		if x.Op.String() == "-" {
			return func(en *env, fr []int64) float64 { return -f(en, fr) }
		}
		return f
	case *ast.Binary:
		return c.compileBinaryF(x)
	case *ast.IfExpr:
		arms := c.compileIfArms(x)
		thenF := make([]evalF, len(arms.thens))
		for i, a := range arms.thens {
			thenF[i] = c.compileF(a)
		}
		elseF := c.compileF(x.Else)
		conds := arms.conds
		return func(en *env, fr []int64) float64 {
			for i, cond := range conds {
				if cond(en, fr) {
					return thenF[i](en, fr)
				}
			}
			return elseF(en, fr)
		}
	case *ast.Index:
		return c.compileIndexF(x)
	case *ast.Field:
		g := c.compileFieldAccess(x)
		return func(en *env, fr []int64) float64 { return value.ToFloat(g(en, fr)) }
	case *ast.Call:
		return c.compileCallF(x)
	}
	c.failf("cannot compile real expression %s", ast.ExprString(e))
	return nil
}

func (c *compiler) compileBinaryF(x *ast.Binary) evalF {
	l := c.compileF(x.X)
	r := c.compileF(x.Y)
	switch x.Op.String() {
	case "+":
		return func(en *env, fr []int64) float64 { return l(en, fr) + r(en, fr) }
	case "-":
		return func(en *env, fr []int64) float64 { return l(en, fr) - r(en, fr) }
	case "*":
		return func(en *env, fr []int64) float64 { return l(en, fr) * r(en, fr) }
	case "/":
		return func(en *env, fr []int64) float64 { return l(en, fr) / r(en, fr) }
	}
	c.failf("invalid real operator %s", x.Op)
	return nil
}

// compileElemAccess compiles an array-typed expression appearing in
// element context: a whole or partially subscripted reference whose
// remaining dimensions align with the equation's implicit variables.
// Conditional arms delegate back to the typed compilers.
func (c *compiler) compileElemAccess(e ast.Expr) (int, []evalI, int) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		sym := c.m.Lookup(x.Name)
		if sym == nil || !sym.IsData() {
			c.failf("unknown array %s", x.Name)
		}
		arr, isArr := sym.Type.(*types.Array)
		if !isArr {
			c.failf("%s is not an array", x.Name)
		}
		imp := c.implicitSlots(len(arr.Dims))
		subs := make([]evalI, len(imp))
		for i, slot := range imp {
			s := slot
			subs[i] = func(en *env, fr []int64) int64 { return fr[s] }
		}
		return c.cm.symIdx[sym], subs, len(arr.Dims)
	case *ast.Index:
		return c.compileIndexCommon(x)
	}
	c.failf("array-valued expression %s cannot be read element-wise", ast.ExprString(e))
	return 0, nil, 0
}

// compileI compiles an integer-backed expression (int, subrange, char,
// enum ordinal).
func (c *compiler) compileI(e ast.Expr) evalI {
	// Subrange bound expressions are compiled without checked types; the
	// nil-tolerant lookup only matters for the array element case.
	if t := c.m.TypeOf(e); t != nil && t.Kind() == types.ArrayKind {
		si, subs, rank := c.compileElemAccess(e)
		return func(en *env, fr []int64) int64 {
			var buf [maxRank]int64
			idx := buf[:rank]
			for i, f := range subs {
				idx[i] = f(en, fr)
			}
			a := en.arrays[si]
			if en.strict {
				return a.GetI(idx)
			}
			return a.I[arrOffset(a, idx)]
		}
	}
	switch x := e.(type) {
	case *ast.IntLit:
		v := x.Value
		return func(*env, []int64) int64 { return v }
	case *ast.CharLit:
		v := int64(x.Value)
		return func(*env, []int64) int64 { return v }
	case *ast.Paren:
		return c.compileI(x.X)
	case *ast.Ident:
		if iv := c.m.IndexVar(x.Name); iv != nil {
			slot, ok := c.cm.slotOf[iv]
			if !ok {
				c.failf("no frame slot for index %s", x.Name)
			}
			return func(en *env, fr []int64) int64 { return fr[slot] }
		}
		sym := c.m.Lookup(x.Name)
		if sym != nil && sym.Kind == sem.EnumConstSym {
			v := int64(sym.Index)
			return func(*env, []int64) int64 { return v }
		}
		si := c.scalarSlot(x.Name)
		return func(en *env, fr []int64) int64 { return en.scalars[si].(int64) }
	case *ast.Unary:
		f := c.compileI(x.X)
		if x.Op.String() == "-" {
			return func(en *env, fr []int64) int64 { return -f(en, fr) }
		}
		return f
	case *ast.Binary:
		return c.compileBinaryI(x)
	case *ast.IfExpr:
		arms := c.compileIfArms(x)
		thenF := make([]evalI, len(arms.thens))
		for i, a := range arms.thens {
			thenF[i] = c.compileI(a)
		}
		elseF := c.compileI(x.Else)
		conds := arms.conds
		return func(en *env, fr []int64) int64 {
			for i, cond := range conds {
				if cond(en, fr) {
					return thenF[i](en, fr)
				}
			}
			return elseF(en, fr)
		}
	case *ast.Index:
		return c.compileIndexI(x)
	case *ast.Field:
		g := c.compileFieldAccess(x)
		return func(en *env, fr []int64) int64 { return value.ToInt(g(en, fr)) }
	case *ast.Call:
		return c.compileCallI(x)
	}
	c.failf("cannot compile integer expression %s", ast.ExprString(e))
	return nil
}

func (c *compiler) compileBinaryI(x *ast.Binary) evalI {
	l := c.compileI(x.X)
	r := c.compileI(x.Y)
	switch x.Op.String() {
	case "+":
		return func(en *env, fr []int64) int64 { return l(en, fr) + r(en, fr) }
	case "-":
		return func(en *env, fr []int64) int64 { return l(en, fr) - r(en, fr) }
	case "*":
		return func(en *env, fr []int64) int64 { return l(en, fr) * r(en, fr) }
	case "div":
		return func(en *env, fr []int64) int64 {
			d := r(en, fr)
			if d == 0 {
				panic(runtimeError{err: fmt.Errorf("division by zero")})
			}
			return l(en, fr) / d
		}
	case "mod":
		return func(en *env, fr []int64) int64 {
			d := r(en, fr)
			if d == 0 {
				panic(runtimeError{err: fmt.Errorf("division by zero")})
			}
			return l(en, fr) % d
		}
	}
	c.failf("invalid integer operator %s", x.Op)
	return nil
}

// compileB compiles a boolean expression.
func (c *compiler) compileB(e ast.Expr) evalB {
	if t := c.m.TypeOf(e); t != nil && t.Kind() == types.ArrayKind {
		si, subs, rank := c.compileElemAccess(e)
		return func(en *env, fr []int64) bool {
			var buf [maxRank]int64
			idx := buf[:rank]
			for i, f := range subs {
				idx[i] = f(en, fr)
			}
			a := en.arrays[si]
			if en.strict {
				return a.GetB(idx)
			}
			return a.B[arrOffset(a, idx)]
		}
	}
	switch x := e.(type) {
	case *ast.BoolLit:
		v := x.Value
		return func(*env, []int64) bool { return v }
	case *ast.Paren:
		return c.compileB(x.X)
	case *ast.Ident:
		si := c.scalarSlot(x.Name)
		return func(en *env, fr []int64) bool { return en.scalars[si].(bool) }
	case *ast.Unary:
		f := c.compileB(x.X)
		return func(en *env, fr []int64) bool { return !f(en, fr) }
	case *ast.Binary:
		return c.compileBinaryB(x)
	case *ast.IfExpr:
		arms := c.compileIfArms(x)
		thenF := make([]evalB, len(arms.thens))
		for i, a := range arms.thens {
			thenF[i] = c.compileB(a)
		}
		elseF := c.compileB(x.Else)
		conds := arms.conds
		return func(en *env, fr []int64) bool {
			for i, cond := range conds {
				if cond(en, fr) {
					return thenF[i](en, fr)
				}
			}
			return elseF(en, fr)
		}
	case *ast.Index:
		si, subs, rank := c.compileIndexCommon(x)
		return func(en *env, fr []int64) bool {
			var buf [maxRank]int64
			idx := buf[:rank]
			for i, f := range subs {
				idx[i] = f(en, fr)
			}
			a := en.arrays[si]
			if en.strict {
				return a.GetB(idx)
			}
			return a.B[arrOffset(a, idx)]
		}
	case *ast.Field:
		g := c.compileFieldAccess(x)
		return func(en *env, fr []int64) bool { return g(en, fr).(bool) }
	}
	c.failf("cannot compile boolean expression %s", ast.ExprString(e))
	return nil
}

func (c *compiler) compileBinaryB(x *ast.Binary) evalB {
	op := x.Op.String()
	switch op {
	case "and":
		l, r := c.compileB(x.X), c.compileB(x.Y)
		return func(en *env, fr []int64) bool { return l(en, fr) && r(en, fr) }
	case "or":
		l, r := c.compileB(x.X), c.compileB(x.Y)
		return func(en *env, fr []int64) bool { return l(en, fr) || r(en, fr) }
	}
	// Relational operators: compare by operand type.
	lt := c.typeOf(x.X)
	rt := c.typeOf(x.Y)
	switch {
	case lt.Kind() == types.RealKind || rt.Kind() == types.RealKind:
		l, r := c.compileF(x.X), c.compileF(x.Y)
		return compareF(op, l, r, c)
	case types.IsInteger(lt) || lt.Kind() == types.CharKind || lt.Kind() == types.EnumKind:
		l, r := c.compileI(x.X), c.compileI(x.Y)
		return compareI(op, l, r, c)
	case lt.Kind() == types.BoolKind:
		l, r := c.compileB(x.X), c.compileB(x.Y)
		switch op {
		case "=":
			return func(en *env, fr []int64) bool { return l(en, fr) == r(en, fr) }
		case "<>":
			return func(en *env, fr []int64) bool { return l(en, fr) != r(en, fr) }
		}
	case lt.Kind() == types.StringKind:
		l, r := c.compileA(x.X), c.compileA(x.Y)
		return compareS(op, l, r, c)
	}
	c.failf("cannot compile comparison %s", ast.ExprString(x))
	return nil
}

func compareF(op string, l, r evalF, c *compiler) evalB {
	switch op {
	case "=":
		return func(en *env, fr []int64) bool { return l(en, fr) == r(en, fr) }
	case "<>":
		return func(en *env, fr []int64) bool { return l(en, fr) != r(en, fr) }
	case "<":
		return func(en *env, fr []int64) bool { return l(en, fr) < r(en, fr) }
	case "<=":
		return func(en *env, fr []int64) bool { return l(en, fr) <= r(en, fr) }
	case ">":
		return func(en *env, fr []int64) bool { return l(en, fr) > r(en, fr) }
	case ">=":
		return func(en *env, fr []int64) bool { return l(en, fr) >= r(en, fr) }
	}
	c.failf("invalid comparison operator %s", op)
	return nil
}

func compareI(op string, l, r evalI, c *compiler) evalB {
	switch op {
	case "=":
		return func(en *env, fr []int64) bool { return l(en, fr) == r(en, fr) }
	case "<>":
		return func(en *env, fr []int64) bool { return l(en, fr) != r(en, fr) }
	case "<":
		return func(en *env, fr []int64) bool { return l(en, fr) < r(en, fr) }
	case "<=":
		return func(en *env, fr []int64) bool { return l(en, fr) <= r(en, fr) }
	case ">":
		return func(en *env, fr []int64) bool { return l(en, fr) > r(en, fr) }
	case ">=":
		return func(en *env, fr []int64) bool { return l(en, fr) >= r(en, fr) }
	}
	c.failf("invalid comparison operator %s", op)
	return nil
}

func compareS(op string, l, r evalA, c *compiler) evalB {
	cmp := func(en *env, fr []int64) int {
		return strings.Compare(l(en, fr).(string), r(en, fr).(string))
	}
	switch op {
	case "=":
		return func(en *env, fr []int64) bool { return cmp(en, fr) == 0 }
	case "<>":
		return func(en *env, fr []int64) bool { return cmp(en, fr) != 0 }
	case "<":
		return func(en *env, fr []int64) bool { return cmp(en, fr) < 0 }
	case "<=":
		return func(en *env, fr []int64) bool { return cmp(en, fr) <= 0 }
	case ">":
		return func(en *env, fr []int64) bool { return cmp(en, fr) > 0 }
	case ">=":
		return func(en *env, fr []int64) bool { return cmp(en, fr) >= 0 }
	}
	c.failf("invalid comparison operator %s", op)
	return nil
}

// ifArms pairs the compiled conditions of an if/elsif chain with the
// uncompiled arm expressions.
type ifArms struct {
	conds []evalB
	thens []ast.Expr
}

func (c *compiler) compileIfArms(x *ast.IfExpr) ifArms {
	arms := ifArms{conds: []evalB{c.compileB(x.Cond)}, thens: []ast.Expr{x.Then}}
	for _, e := range x.Elifs {
		arms.conds = append(arms.conds, c.compileB(e.Cond))
		arms.thens = append(arms.thens, e.Then)
	}
	return arms
}

// --- array references ----------------------------------------------------------

// maxRank bounds the subscript buffer kept on the evaluator's stack.
const maxRank = 8

// compileIndexCommon compiles an array reference's base slot and full-rank
// subscript evaluators (explicit subscripts plus implicit alignment).
func (c *compiler) compileIndexCommon(x *ast.Index) (int, []evalI, int) {
	base, ok := ast.Unparen(x.Base).(*ast.Ident)
	if !ok {
		c.failf("subscripted value %s must be a named array", ast.ExprString(x.Base))
	}
	sym := c.m.Lookup(base.Name)
	if sym == nil || !sym.IsData() {
		c.failf("unknown array %s", base.Name)
	}
	arr, isArr := sym.Type.(*types.Array)
	if !isArr {
		c.failf("%s is not an array", base.Name)
	}
	si := c.cm.symIdx[sym]
	subs := make([]evalI, 0, len(arr.Dims))
	for _, s := range x.Subs {
		subs = append(subs, c.compileI(s))
	}
	if len(subs) < len(arr.Dims) {
		// Partial reference: align the remaining dimensions with the
		// equation's implicit variables (newA = A[maxK] reads A[maxK,i,j]).
		imp := c.implicitSlots(len(arr.Dims) - len(subs))
		for _, slot := range imp {
			s := slot
			subs = append(subs, func(en *env, fr []int64) int64 { return fr[s] })
		}
	}
	if len(arr.Dims) > maxRank {
		c.failf("array %s has rank %d > %d", base.Name, len(arr.Dims), maxRank)
	}
	return si, subs, len(arr.Dims)
}

// implicitSlots returns the frame slots of the current equation's last n
// implicit dimensions, failing when alignment is impossible.
func (c *compiler) implicitSlots(n int) []int {
	if c.eq == nil {
		c.failf("array-valued expression outside an equation")
	}
	imp := c.eq.Dims[c.eq.NumExplicit:]
	if len(imp) != n {
		c.failf("cannot align %d remaining dimensions with %d implicit variables in %s", n, len(imp), c.eq.Label)
	}
	out := make([]int, n)
	for i, v := range imp {
		out[i] = c.cm.slotOf[v]
	}
	return out
}

func (c *compiler) compileIndexF(x *ast.Index) evalF {
	si, subs, rank := c.compileIndexCommon(x)
	return func(en *env, fr []int64) float64 {
		var buf [maxRank]int64
		idx := buf[:rank]
		for i, f := range subs {
			idx[i] = f(en, fr)
		}
		a := en.arrays[si]
		if en.strict {
			return a.GetF(idx)
		}
		return a.F[arrOffset(a, idx)]
	}
}

func (c *compiler) compileIndexI(x *ast.Index) evalI {
	si, subs, rank := c.compileIndexCommon(x)
	return func(en *env, fr []int64) int64 {
		var buf [maxRank]int64
		idx := buf[:rank]
		for i, f := range subs {
			idx[i] = f(en, fr)
		}
		a := en.arrays[si]
		if en.strict {
			return a.GetI(idx)
		}
		return a.I[arrOffset(a, idx)]
	}
}

// arrOffset computes the physical offset of idx in a with window
// wrap-around, panicking with a runtimeError when out of range.
func arrOffset(a *value.Array, idx []int64) int64 {
	var off int64
	for d, x := range idx {
		ax := a.Axes[d]
		if x < ax.Lo || x > ax.Hi {
			panic(runtimeError{err: fmt.Errorf("subscript %d out of range %d..%d in dimension %d", x, ax.Lo, ax.Hi, d+1)})
		}
		p := x - ax.Lo
		if ph := a.PhysDims[d]; p >= ph {
			p %= ph
		}
		off += p * a.Strides[d]
	}
	return off
}

// --- calls -------------------------------------------------------------------

func (c *compiler) compileCallF(x *ast.Call) evalF {
	name := strings.ToLower(x.Fun.Name)
	switch name {
	case "sqrt", "sin", "cos", "exp", "ln":
		f := c.compileF(x.Args[0])
		var fn func(float64) float64
		switch name {
		case "sqrt":
			fn = math.Sqrt
		case "sin":
			fn = math.Sin
		case "cos":
			fn = math.Cos
		case "exp":
			fn = math.Exp
		case "ln":
			fn = math.Log
		}
		return func(en *env, fr []int64) float64 { return fn(f(en, fr)) }
	case "pow":
		l, r := c.compileF(x.Args[0]), c.compileF(x.Args[1])
		return func(en *env, fr []int64) float64 { return math.Pow(l(en, fr), r(en, fr)) }
	case "abs":
		f := c.compileF(x.Args[0])
		return func(en *env, fr []int64) float64 { return math.Abs(f(en, fr)) }
	case "min":
		l, r := c.compileF(x.Args[0]), c.compileF(x.Args[1])
		return func(en *env, fr []int64) float64 { return math.Min(l(en, fr), r(en, fr)) }
	case "max":
		l, r := c.compileF(x.Args[0]), c.compileF(x.Args[1])
		return func(en *env, fr []int64) float64 { return math.Max(l(en, fr), r(en, fr)) }
	case "float":
		f := c.compileI(x.Args[0])
		return func(en *env, fr []int64) float64 { return float64(f(en, fr)) }
	}
	// Module call returning a real.
	g := c.compileModuleCall(x)
	return func(en *env, fr []int64) float64 { return value.ToFloat(g(en, fr)) }
}

func (c *compiler) compileCallI(x *ast.Call) evalI {
	name := strings.ToLower(x.Fun.Name)
	switch name {
	case "abs":
		f := c.compileI(x.Args[0])
		return func(en *env, fr []int64) int64 {
			v := f(en, fr)
			if v < 0 {
				return -v
			}
			return v
		}
	case "min":
		l, r := c.compileI(x.Args[0]), c.compileI(x.Args[1])
		return func(en *env, fr []int64) int64 {
			a, b := l(en, fr), r(en, fr)
			if a < b {
				return a
			}
			return b
		}
	case "max":
		l, r := c.compileI(x.Args[0]), c.compileI(x.Args[1])
		return func(en *env, fr []int64) int64 {
			a, b := l(en, fr), r(en, fr)
			if a > b {
				return a
			}
			return b
		}
	case "trunc":
		f := c.compileF(x.Args[0])
		return func(en *env, fr []int64) int64 { return int64(math.Trunc(f(en, fr))) }
	case "round":
		f := c.compileF(x.Args[0])
		return func(en *env, fr []int64) int64 { return int64(math.Round(f(en, fr))) }
	case "ord":
		return c.compileI(x.Args[0])
	}
	g := c.compileModuleCall(x)
	return func(en *env, fr []int64) int64 { return value.ToInt(g(en, fr)) }
}

// compileFieldAccess compiles a record field selection to a boxed
// evaluator, bypassing the scalar-type dispatch of compileA (which would
// bounce scalar-typed fields back to the typed compilers).
func (c *compiler) compileFieldAccess(x *ast.Field) evalA {
	g := c.compileA(x.Base)
	name := x.Sel.Name
	return func(en *env, fr []int64) any {
		return g(en, fr).(*value.Record).Field(name)
	}
}

// compileModuleCall compiles a single-result module invocation.
func (c *compiler) compileModuleCall(x *ast.Call) evalA {
	callee := c.m.Prog.Module(x.Fun.Name)
	if callee == nil {
		c.failf("unknown function %s", x.Fun.Name)
	}
	sub, ok := c.p.mods[callee]
	if !ok {
		var err error
		sub, err = c.p.compileCallee(callee)
		if err != nil {
			c.failf("compiling callee %s: %v", callee.Name, err)
		}
	}
	args := make([]evalA, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compileA(a)
	}
	p := c.p
	return func(en *env, fr []int64) any {
		argv := make([]any, len(args))
		for i, f := range args {
			argv[i] = f(en, fr)
		}
		results, err := p.runModule(en.rs, sub, argv, en.inParallel, en.inParallel || en.inSpan)
		if err != nil {
			panic(runtimeError{err: fmt.Errorf("call %s: %w", sub.m.Name, err)})
		}
		return results[0]
	}
}

// compileA compiles any expression to a boxed evaluator: whole arrays,
// records, strings, and scalars used as call arguments.
func (c *compiler) compileA(e ast.Expr) evalA {
	t := c.typeOf(e)
	switch t.Kind() {
	case types.RealKind:
		f := c.compileF(e)
		return func(en *env, fr []int64) any { return f(en, fr) }
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		f := c.compileI(e)
		return func(en *env, fr []int64) any { return f(en, fr) }
	case types.BoolKind:
		f := c.compileB(e)
		return func(en *env, fr []int64) any { return f(en, fr) }
	}
	switch x := e.(type) {
	case *ast.Paren:
		return c.compileA(x.X)
	case *ast.StringLit:
		v := x.Value
		return func(*env, []int64) any { return v }
	case *ast.Ident:
		sym := c.m.Lookup(x.Name)
		if sym == nil || !sym.IsData() {
			c.failf("unknown name %s", x.Name)
		}
		si := c.cm.symIdx[sym]
		if types.Rank(sym.Type) > 0 {
			return func(en *env, fr []int64) any { return en.arrays[si] }
		}
		return func(en *env, fr []int64) any { return en.scalars[si] }
	case *ast.Field:
		return c.compileFieldAccess(x)
	case *ast.Index:
		si, subs, rank := c.compileIndexCommon(x)
		return func(en *env, fr []int64) any {
			var buf [maxRank]int64
			idx := buf[:rank]
			for i, f := range subs {
				idx[i] = f(en, fr)
			}
			return en.arrays[si].Get(idx)
		}
	case *ast.Call:
		return c.compileModuleCall(x)
	case *ast.IfExpr:
		arms := c.compileIfArms(x)
		thenF := make([]evalA, len(arms.thens))
		for i, a := range arms.thens {
			thenF[i] = c.compileA(a)
		}
		elseF := c.compileA(x.Else)
		conds := arms.conds
		return func(en *env, fr []int64) any {
			for i, cond := range conds {
				if cond(en, fr) {
					return thenF[i](en, fr)
				}
			}
			return elseF(en, fr)
		}
	}
	c.failf("cannot compile expression %s", ast.ExprString(e))
	return nil
}

func (c *compiler) scalarSlot(name string) int {
	sym := c.m.Lookup(name)
	if sym == nil || !sym.IsData() {
		c.failf("unknown name %s", name)
	}
	if types.Rank(sym.Type) > 0 {
		c.failf("array %s used as scalar", name)
	}
	return c.cm.symIdx[sym]
}
