package interp

// Kernel specialization (the perf core of the §3–§4 reproduction): when
// an equation body is a recognized shape — unit-stride affine reads of
// flat float64/int64 arrays combined with +,−,×,÷, literals, loop
// indices and builtins — the compiler emits a *direct kernel* alongside
// the checked closure tree: a closure over raw backing slices whose
// operand offsets are maintained incrementally along a run of
// consecutive points (strength reduction), with array bounds certified
// once per run so the per-point path is branch-free. Executors hand
// kernels contiguous spans instead of single points; points the
// certification cannot cover (span edges, windowed axes in motion,
// strict mode) fall back to the checked kernel, so specialized and
// generic execution are bitwise identical.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sem"
	"repro/internal/types"
)

// spanFn executes n consecutive points of one equation. The span starts
// at the frame's current coordinates and advances fr[slots[j]] += dir[j]
// between points (a wavefront row moves every original coordinate by a
// T⁻¹ column; a DOALL row moves the innermost dimension by one). The
// frame is restored to the span's first point before returning, so
// multi-equation bodies replay the same run per kernel. en.eqCount is
// incremented per executed point.
type spanFn func(en *env, fr []int64, slots []int, dir []int64, n int64)

// eqSpan pairs one equation's span executor with its specialization
// report (surfaced through Program.Kernels and Runner.Explain).
type eqSpan struct {
	fn          spanFn
	specialized bool
	// why is the reason the equation stayed generic ("" when specialized).
	why string
}

// runSpanGeneric walks a span point-by-point through the checked kernel:
// the fallback for strict mode, non-specializable equations, and the
// uncertified edges of specialized spans.
func runSpanGeneric(gen kernelFn, en *env, fr []int64, slots []int, dir []int64, n int64) {
	for c := int64(0); c < n; c++ {
		en.eqCount++
		gen(en, fr)
		for j, s := range slots {
			fr[s] += dir[j]
		}
	}
	for j, s := range slots {
		fr[s] -= n * dir[j]
	}
}

// genericSpanFn wraps a checked kernel as a span executor.
func genericSpanFn(gen kernelFn) spanFn {
	return func(en *env, fr []int64, slots []int, dir []int64, n int64) {
		runSpanGeneric(gen, en, fr, slots, dir, n)
	}
}

// kctx is the runtime state of one specialized span: raw backing slices
// and current flat offsets per access, plus scalars hoisted once at span
// entry. Specialized evaluators close over access indices into these
// tables, so the per-point path is slice reads and arithmetic only.
type kctx struct {
	en    *env
	fr    []int64
	offs  []int64     // current flat offset per access
	slope []int64     // per-point offset increment per access
	fs    [][]float64 // float64 backing per access (nil for int-backed)
	is    [][]int64   // int64 backing per access
	sf    []float64   // hoisted real scalars
	sn    []int64     // hoisted integer scalars
	sb    []bool      // hoisted bool scalars
}

// Specialized evaluators: the direct-kernel mirror of evalF/evalI/evalB.
type (
	kevF func(k *kctx) float64
	kevI func(k *kctx) int64
	kevB func(k *kctx) bool
)

// specAbort is the bail panic of the specializing compiler: the
// equation shape is outside the recognized fragment, so the checked
// closure tree remains the only kernel.
type specAbort struct{ reason string }

// specSub is one dimension of a specialized array access.
type specSub struct {
	// base evaluates the subscript at the span's first point (the
	// checked compiler's own evaluator, run once per span).
	base evalI
	// dimVar is the frame slot of the subscript's unit-coefficient
	// index variable, or -1 for a constant subscript. Eligibility
	// guarantees the subscript is dimVar + c, so its per-point motion
	// along a span is exactly the slot's direction.
	dimVar int
}

// specAccess is one distinct array reference of a specialized equation.
type specAccess struct {
	si   int // symbol slot
	isF  bool
	subs []specSub
}

// speccer compiles one equation into a specialized kernel, sharing the
// checked compiler's symbol resolution.
type speccer struct {
	c     *compiler
	accs  []*specAccess
	byKey map[string]int
	// Hoisted scalar tables: symbol slot → position in kctx.sf/sn/sb.
	sfIdx, snIdx, sbIdx map[int]int
	sfSlots, snSlots    []int
	sbSlots             []int
}

func (s *speccer) bail(format string, args ...any) {
	panic(specAbort{reason: fmt.Sprintf(format, args...)})
}

// access registers an array reference (explicit subscripts plus
// implicit trailing alignment) and returns its index in the access
// tables. Identical references share one table slot, which is safe even
// across the write target: offsets are positions, not values.
func (s *speccer) access(sym *sem.Symbol, explicit []ast.Expr, nImplicit int) int {
	arr, isArr := sym.Type.(*types.Array)
	if !isArr {
		s.bail("%s is not an array", sym.Name)
	}
	var isF bool
	switch arr.Elem.Kind() {
	case types.RealKind:
		isF = true
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		isF = false
	default:
		s.bail("array %s has %s elements", sym.Name, arr.Elem)
	}
	if len(explicit)+nImplicit != len(arr.Dims) {
		s.bail("reference to %s covers %d of %d dimensions", sym.Name, len(explicit)+nImplicit, len(arr.Dims))
	}
	var imp []int
	if nImplicit > 0 {
		imp = s.c.implicitSlots(nImplicit)
	}
	key := fmt.Sprintf("%d", s.c.cm.symIdx[sym])
	for _, e := range explicit {
		key += "|" + ast.ExprString(e)
	}
	for _, slot := range imp {
		key += fmt.Sprintf("|@%d", slot)
	}
	if ai, ok := s.byKey[key]; ok {
		return ai
	}
	ac := &specAccess{si: s.c.cm.symIdx[sym], isF: isF}
	for _, e := range explicit {
		ac.subs = append(ac.subs, s.subscript(e))
	}
	for _, slot := range imp {
		sl := slot
		ac.subs = append(ac.subs, specSub{
			base:   func(en *env, fr []int64) int64 { return fr[sl] },
			dimVar: sl,
		})
	}
	ai := len(s.accs)
	s.accs = append(s.accs, ac)
	s.byKey[key] = ai
	return ai
}

// subscript classifies one explicit subscript: constant (possibly
// symbolic in module scalars) or index variable + literal constant with
// coefficient exactly 1. Anything else — negated or scaled variables
// (reflect's N+1-J), multi-variable sums — bails, keeping the checked
// kernel.
func (s *speccer) subscript(e ast.Expr) specSub {
	af := s.c.m.AnalyzeAffine(e)
	if af == nil {
		s.bail("non-affine subscript %s", ast.ExprString(e))
	}
	nz := 0
	var v *types.Subrange
	var coef int64
	for vv, cc := range af.Coeffs {
		if cc != 0 {
			nz++
			v, coef = vv, cc
		}
	}
	sub := specSub{base: s.c.compileI(e), dimVar: -1}
	switch {
	case nz == 0:
		// constant subscript; base evaluates it (symbolic terms included).
	case nz == 1 && coef == 1:
		slot, ok := s.c.cm.slotOf[v]
		if !ok {
			s.bail("no frame slot for subscript variable in %s", ast.ExprString(e))
		}
		sub.dimVar = slot
	default:
		s.bail("subscript %s is not unit-stride", ast.ExprString(e))
	}
	return sub
}

// elemF reads access ai as float64 through the certified offset.
func elemF(ai int) kevF { return func(k *kctx) float64 { return k.fs[ai][k.offs[ai]] } }

// elemI reads access ai as int64 through the certified offset.
func elemI(ai int) kevI { return func(k *kctx) int64 { return k.is[ai][k.offs[ai]] } }

// hoistF interns a real scalar slot, returning its kctx.sf position.
func (s *speccer) hoistF(si int) int {
	if i, ok := s.sfIdx[si]; ok {
		return i
	}
	i := len(s.sfSlots)
	s.sfIdx[si] = i
	s.sfSlots = append(s.sfSlots, si)
	return i
}

func (s *speccer) hoistI(si int) int {
	if i, ok := s.snIdx[si]; ok {
		return i
	}
	i := len(s.snSlots)
	s.snIdx[si] = i
	s.snSlots = append(s.snSlots, si)
	return i
}

func (s *speccer) hoistB(si int) int {
	if i, ok := s.sbIdx[si]; ok {
		return i
	}
	i := len(s.sbSlots)
	s.sbIdx[si] = i
	s.sbSlots = append(s.sbSlots, si)
	return i
}

// --- the specializing expression compiler -----------------------------------
//
// Each kcompile* mirrors its compile* counterpart operator-for-operator
// (same widening, same short-circuit order, same division-by-zero
// panics), differing only in operand addressing: array elements read
// through certified incremental offsets, scalars through span-entry
// hoists. Shapes outside the fragment bail to the checked kernel.

func (s *speccer) kcompileF(e ast.Expr) kevF {
	c := s.c
	t := c.typeOf(e)
	if types.IsInteger(t) || t.Kind() == types.CharKind || t.Kind() == types.EnumKind {
		f := s.kcompileI(e)
		return func(k *kctx) float64 { return float64(f(k)) }
	}
	if t.Kind() == types.ArrayKind {
		return s.kelemAccessF(e)
	}
	if t.Kind() != types.RealKind {
		s.bail("expression %s has type %s, want real", ast.ExprString(e), t)
	}
	switch x := e.(type) {
	case *ast.RealLit:
		v := x.Value
		return func(*kctx) float64 { return v }
	case *ast.Paren:
		return s.kcompileF(x.X)
	case *ast.Ident:
		hi := s.hoistF(c.scalarSlot(x.Name))
		return func(k *kctx) float64 { return k.sf[hi] }
	case *ast.Unary:
		f := s.kcompileF(x.X)
		if x.Op.String() == "-" {
			return func(k *kctx) float64 { return -f(k) }
		}
		return f
	case *ast.Binary:
		l, r := s.kcompileF(x.X), s.kcompileF(x.Y)
		switch x.Op.String() {
		case "+":
			return func(k *kctx) float64 { return l(k) + r(k) }
		case "-":
			return func(k *kctx) float64 { return l(k) - r(k) }
		case "*":
			return func(k *kctx) float64 { return l(k) * r(k) }
		case "/":
			return func(k *kctx) float64 { return l(k) / r(k) }
		}
		s.bail("invalid real operator %s", x.Op)
	case *ast.IfExpr:
		conds, thens := s.kcompileConds(x)
		thenF := make([]kevF, len(thens))
		for i, a := range thens {
			thenF[i] = s.kcompileF(a)
		}
		elseF := s.kcompileF(x.Else)
		return func(k *kctx) float64 {
			for i, cond := range conds {
				if cond(k) {
					return thenF[i](k)
				}
			}
			return elseF(k)
		}
	case *ast.Index:
		return s.kelemAccessF(x)
	case *ast.Call:
		return s.kcompileCallF(x)
	}
	s.bail("cannot specialize real expression %s", ast.ExprString(e))
	return nil
}

// kelemAccessF compiles an array reference in real element context.
func (s *speccer) kelemAccessF(e ast.Expr) kevF {
	sym, explicit, nImp := s.resolveRef(e)
	ai := s.access(sym, explicit, nImp)
	if !s.accs[ai].isF {
		f := elemI(ai)
		return func(k *kctx) float64 { return float64(f(k)) }
	}
	return elemF(ai)
}

// kelemAccessI compiles an array reference in integer element context.
func (s *speccer) kelemAccessI(e ast.Expr) kevI {
	sym, explicit, nImp := s.resolveRef(e)
	ai := s.access(sym, explicit, nImp)
	if s.accs[ai].isF {
		s.bail("real array %s read in integer context", sym.Name)
	}
	return elemI(ai)
}

// resolveRef decomposes an array-valued expression into its base symbol,
// explicit subscripts, and implicit trailing dimension count.
func (s *speccer) resolveRef(e ast.Expr) (*sem.Symbol, []ast.Expr, int) {
	c := s.c
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		sym := c.m.Lookup(x.Name)
		if sym == nil || !sym.IsData() {
			s.bail("unknown array %s", x.Name)
		}
		arr, isArr := sym.Type.(*types.Array)
		if !isArr {
			s.bail("%s is not an array", x.Name)
		}
		return sym, nil, len(arr.Dims)
	case *ast.Index:
		base, ok := ast.Unparen(x.Base).(*ast.Ident)
		if !ok {
			s.bail("subscripted value %s is not a named array", ast.ExprString(x.Base))
		}
		sym := c.m.Lookup(base.Name)
		if sym == nil || !sym.IsData() {
			s.bail("unknown array %s", base.Name)
		}
		arr, isArr := sym.Type.(*types.Array)
		if !isArr {
			s.bail("%s is not an array", base.Name)
		}
		return sym, x.Subs, len(arr.Dims) - len(x.Subs)
	}
	s.bail("array-valued expression %s cannot be read element-wise", ast.ExprString(e))
	return nil, nil, 0
}

func (s *speccer) kcompileI(e ast.Expr) kevI {
	c := s.c
	if t := c.m.TypeOf(e); t != nil && t.Kind() == types.ArrayKind {
		return s.kelemAccessI(e)
	}
	switch x := e.(type) {
	case *ast.IntLit:
		v := x.Value
		return func(*kctx) int64 { return v }
	case *ast.CharLit:
		v := int64(x.Value)
		return func(*kctx) int64 { return v }
	case *ast.Paren:
		return s.kcompileI(x.X)
	case *ast.Ident:
		if iv := c.m.IndexVar(x.Name); iv != nil {
			slot, ok := c.cm.slotOf[iv]
			if !ok {
				s.bail("no frame slot for index %s", x.Name)
			}
			return func(k *kctx) int64 { return k.fr[slot] }
		}
		if sym := c.m.Lookup(x.Name); sym != nil && sym.Kind == sem.EnumConstSym {
			v := int64(sym.Index)
			return func(*kctx) int64 { return v }
		}
		hi := s.hoistI(c.scalarSlot(x.Name))
		return func(k *kctx) int64 { return k.sn[hi] }
	case *ast.Unary:
		f := s.kcompileI(x.X)
		if x.Op.String() == "-" {
			return func(k *kctx) int64 { return -f(k) }
		}
		return f
	case *ast.Binary:
		l, r := s.kcompileI(x.X), s.kcompileI(x.Y)
		switch x.Op.String() {
		case "+":
			return func(k *kctx) int64 { return l(k) + r(k) }
		case "-":
			return func(k *kctx) int64 { return l(k) - r(k) }
		case "*":
			return func(k *kctx) int64 { return l(k) * r(k) }
		case "div":
			return func(k *kctx) int64 {
				d := r(k)
				if d == 0 {
					panic(runtimeError{err: fmt.Errorf("division by zero")})
				}
				return l(k) / d
			}
		case "mod":
			return func(k *kctx) int64 {
				d := r(k)
				if d == 0 {
					panic(runtimeError{err: fmt.Errorf("division by zero")})
				}
				return l(k) % d
			}
		}
		s.bail("invalid integer operator %s", x.Op)
	case *ast.IfExpr:
		conds, thens := s.kcompileConds(x)
		thenF := make([]kevI, len(thens))
		for i, a := range thens {
			thenF[i] = s.kcompileI(a)
		}
		elseF := s.kcompileI(x.Else)
		return func(k *kctx) int64 {
			for i, cond := range conds {
				if cond(k) {
					return thenF[i](k)
				}
			}
			return elseF(k)
		}
	case *ast.Index:
		return s.kelemAccessI(x)
	case *ast.Call:
		return s.kcompileCallI(x)
	}
	s.bail("cannot specialize integer expression %s", ast.ExprString(e))
	return nil
}

func (s *speccer) kcompileB(e ast.Expr) kevB {
	c := s.c
	if t := c.m.TypeOf(e); t != nil && t.Kind() == types.ArrayKind {
		s.bail("array %s read in boolean context", ast.ExprString(e))
	}
	switch x := e.(type) {
	case *ast.BoolLit:
		v := x.Value
		return func(*kctx) bool { return v }
	case *ast.Paren:
		return s.kcompileB(x.X)
	case *ast.Ident:
		hi := s.hoistB(c.scalarSlot(x.Name))
		return func(k *kctx) bool { return k.sb[hi] }
	case *ast.Unary:
		f := s.kcompileB(x.X)
		return func(k *kctx) bool { return !f(k) }
	case *ast.Binary:
		return s.kcompileBinaryB(x)
	case *ast.IfExpr:
		conds, thens := s.kcompileConds(x)
		thenF := make([]kevB, len(thens))
		for i, a := range thens {
			thenF[i] = s.kcompileB(a)
		}
		elseF := s.kcompileB(x.Else)
		return func(k *kctx) bool {
			for i, cond := range conds {
				if cond(k) {
					return thenF[i](k)
				}
			}
			return elseF(k)
		}
	}
	s.bail("cannot specialize boolean expression %s", ast.ExprString(e))
	return nil
}

func (s *speccer) kcompileBinaryB(x *ast.Binary) kevB {
	c := s.c
	op := x.Op.String()
	switch op {
	case "and":
		l, r := s.kcompileB(x.X), s.kcompileB(x.Y)
		return func(k *kctx) bool { return l(k) && r(k) }
	case "or":
		l, r := s.kcompileB(x.X), s.kcompileB(x.Y)
		return func(k *kctx) bool { return l(k) || r(k) }
	}
	lt := c.typeOf(x.X)
	rt := c.typeOf(x.Y)
	switch {
	case lt.Kind() == types.RealKind || rt.Kind() == types.RealKind:
		l, r := s.kcompileF(x.X), s.kcompileF(x.Y)
		switch op {
		case "=":
			return func(k *kctx) bool { return l(k) == r(k) }
		case "<>":
			return func(k *kctx) bool { return l(k) != r(k) }
		case "<":
			return func(k *kctx) bool { return l(k) < r(k) }
		case "<=":
			return func(k *kctx) bool { return l(k) <= r(k) }
		case ">":
			return func(k *kctx) bool { return l(k) > r(k) }
		case ">=":
			return func(k *kctx) bool { return l(k) >= r(k) }
		}
	case types.IsInteger(lt) || lt.Kind() == types.CharKind || lt.Kind() == types.EnumKind:
		l, r := s.kcompileI(x.X), s.kcompileI(x.Y)
		switch op {
		case "=":
			return func(k *kctx) bool { return l(k) == r(k) }
		case "<>":
			return func(k *kctx) bool { return l(k) != r(k) }
		case "<":
			return func(k *kctx) bool { return l(k) < r(k) }
		case "<=":
			return func(k *kctx) bool { return l(k) <= r(k) }
		case ">":
			return func(k *kctx) bool { return l(k) > r(k) }
		case ">=":
			return func(k *kctx) bool { return l(k) >= r(k) }
		}
	case lt.Kind() == types.BoolKind:
		l, r := s.kcompileB(x.X), s.kcompileB(x.Y)
		switch op {
		case "=":
			return func(k *kctx) bool { return l(k) == r(k) }
		case "<>":
			return func(k *kctx) bool { return l(k) != r(k) }
		}
	}
	s.bail("cannot specialize comparison %s", ast.ExprString(x))
	return nil
}

func (s *speccer) kcompileConds(x *ast.IfExpr) ([]kevB, []ast.Expr) {
	conds := []kevB{s.kcompileB(x.Cond)}
	thens := []ast.Expr{x.Then}
	for _, e := range x.Elifs {
		conds = append(conds, s.kcompileB(e.Cond))
		thens = append(thens, e.Then)
	}
	return conds, thens
}

func (s *speccer) kcompileCallF(x *ast.Call) kevF {
	name := strings.ToLower(x.Fun.Name)
	switch name {
	case "sqrt", "sin", "cos", "exp", "ln":
		f := s.kcompileF(x.Args[0])
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
		return func(k *kctx) float64 { return fn(f(k)) }
	case "pow":
		l, r := s.kcompileF(x.Args[0]), s.kcompileF(x.Args[1])
		return func(k *kctx) float64 { return math.Pow(l(k), r(k)) }
	case "abs":
		f := s.kcompileF(x.Args[0])
		return func(k *kctx) float64 { return math.Abs(f(k)) }
	case "min":
		l, r := s.kcompileF(x.Args[0]), s.kcompileF(x.Args[1])
		return func(k *kctx) float64 { return math.Min(l(k), r(k)) }
	case "max":
		l, r := s.kcompileF(x.Args[0]), s.kcompileF(x.Args[1])
		return func(k *kctx) float64 { return math.Max(l(k), r(k)) }
	case "float":
		f := s.kcompileI(x.Args[0])
		return func(k *kctx) float64 { return float64(f(k)) }
	}
	s.bail("call %s is not a specializable builtin", x.Fun.Name)
	return nil
}

func (s *speccer) kcompileCallI(x *ast.Call) kevI {
	name := strings.ToLower(x.Fun.Name)
	switch name {
	case "abs":
		f := s.kcompileI(x.Args[0])
		return func(k *kctx) int64 {
			v := f(k)
			if v < 0 {
				return -v
			}
			return v
		}
	case "min":
		l, r := s.kcompileI(x.Args[0]), s.kcompileI(x.Args[1])
		return func(k *kctx) int64 {
			a, b := l(k), r(k)
			if a < b {
				return a
			}
			return b
		}
	case "max":
		l, r := s.kcompileI(x.Args[0]), s.kcompileI(x.Args[1])
		return func(k *kctx) int64 {
			a, b := l(k), r(k)
			if a > b {
				return a
			}
			return b
		}
	case "trunc":
		f := s.kcompileF(x.Args[0])
		return func(k *kctx) int64 { return int64(math.Trunc(f(k))) }
	case "round":
		f := s.kcompileF(x.Args[0])
		return func(k *kctx) int64 { return int64(math.Round(f(k))) }
	case "ord":
		return s.kcompileI(x.Args[0])
	}
	s.bail("call %s is not a specializable builtin", x.Fun.Name)
	return nil
}

// --- building the specialized span -------------------------------------------

// specializeEquation compiles eq's span executor: the specialized
// direct kernel when the body fits the recognized fragment, the checked
// kernel gen otherwise. The caller must have c.eq set.
func (c *compiler) specializeEquation(eq *sem.Equation, gen kernelFn) (sp eqSpan) {
	sp = eqSpan{fn: genericSpanFn(gen)}
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case specAbort:
				sp = eqSpan{fn: genericSpanFn(gen), why: e.reason}
			case compileError:
				sp = eqSpan{fn: genericSpanFn(gen), why: e.err.Error()}
			default:
				panic(r)
			}
		}
	}()
	if eq.MultiCall != nil || eq.WholeCall != nil {
		sp.why = "module call"
		return sp
	}
	target := eq.Targets[0]
	if target.Rank() == 0 {
		sp.why = "scalar target"
		return sp
	}
	s := &speccer{
		c:     c,
		byKey: make(map[string]int),
		sfIdx: make(map[int]int),
		snIdx: make(map[int]int),
		sbIdx: make(map[int]int),
	}
	// The write target is access 0 unless a read deduplicates onto it;
	// either way tai addresses the stored element.
	tai := s.access(target.Sym, target.Subs, len(target.Implicit))
	var store func(k *kctx)
	switch target.Sym.Type.(*types.Array).Elem.Kind() {
	case types.RealKind:
		rhs := s.kcompileF(eq.RHS)
		ti := tai
		store = func(k *kctx) { k.fs[ti][k.offs[ti]] = rhs(k) }
	case types.IntKind, types.SubrangeKind, types.CharKind, types.EnumKind:
		rhs := s.kcompileI(eq.RHS)
		ti := tai
		store = func(k *kctx) { k.is[ti][k.offs[ti]] = rhs(k) }
	default:
		sp.why = fmt.Sprintf("target %s has %s elements", target.Sym.Name, target.Sym.Type.(*types.Array).Elem)
		return sp
	}

	accs := s.accs
	sfSlots, snSlots, sbSlots := s.sfSlots, s.snSlots, s.sbSlots
	nacc := len(accs)
	pool := &sync.Pool{New: func() any {
		return &kctx{
			offs:  make([]int64, nacc),
			slope: make([]int64, nacc),
			fs:    make([][]float64, nacc),
			is:    make([][]int64, nacc),
			sf:    make([]float64, len(sfSlots)),
			sn:    make([]int64, len(snSlots)),
			sb:    make([]bool, len(sbSlots)),
		}
	}}

	sp.specialized = true
	eqIdx := int64(eq.Index)
	sp.fn = func(en *env, fr []int64, slots []int, dir []int64, n int64) {
		if n <= 0 {
			return
		}
		if en.strict || en.noSpec {
			runSpanGeneric(gen, en, fr, slots, dir, n)
			return
		}
		k := pool.Get().(*kctx)
		k.en, k.fr = en, fr
		// Certify the span: resolve each access's backing, entry offset
		// and per-point slope, and intersect the sub-interval [cLo,cHi]
		// of points where every access is provably in bounds. Offsets
		// are meaningful inside the certified interval only.
		cLo, cHi := int64(0), n-1
		ok := true
	setup:
		for ai, ac := range accs {
			a := en.arrays[ac.si]
			if ac.isF {
				k.fs[ai] = a.F
			} else {
				k.is[ai] = a.I
			}
			var off, slope int64
			for d, sb := range ac.subs {
				x0 := sb.base(en, fr)
				ax := a.Axes[d]
				var sl int64
				if sb.dimVar >= 0 {
					for j, sv := range slots {
						if sv == sb.dimVar {
							sl = dir[j]
							break
						}
					}
				}
				if sl == 0 {
					// Stationary dimension: one range check covers the
					// span; window wrap folds into the base offset.
					if x0 < ax.Lo || x0 > ax.Hi {
						ok = false
						break setup
					}
					p := x0 - ax.Lo
					if ph := a.PhysDims[d]; p >= ph {
						p %= ph
					}
					off += p * a.Strides[d]
					continue
				}
				if ph := a.PhysDims[d]; ph < ax.Hi-ax.Lo+1 {
					// A windowed axis in motion makes offsets non-affine
					// (mod wrap mid-span); keep the checked kernel.
					ok = false
					break setup
				}
				if sl > 0 {
					if q := ceilDiv(ax.Lo-x0, sl); q > cLo {
						cLo = q
					}
					if q := floorDiv(ax.Hi-x0, sl); q < cHi {
						cHi = q
					}
				} else {
					if q := ceilDiv(x0-ax.Hi, -sl); q > cLo {
						cLo = q
					}
					if q := floorDiv(x0-ax.Lo, -sl); q < cHi {
						cHi = q
					}
				}
				off += (x0 - ax.Lo) * a.Strides[d]
				slope += sl * a.Strides[d]
			}
			k.offs[ai], k.slope[ai] = off, slope
		}
		if !ok || cLo > cHi {
			cLo, cHi = n, n-1 // nothing certified: all points generic
		}
		if cLo < 0 {
			cLo = 0
		}
		if cHi > n-1 {
			cHi = n - 1
		}
		for i, si := range sfSlots {
			k.sf[i] = en.scalars[si].(float64)
		}
		for i, si := range snSlots {
			k.sn[i] = en.scalars[si].(int64)
		}
		for i, si := range sbSlots {
			k.sb[i] = en.scalars[si].(bool)
		}
		// Generic prefix: points before the certified interval.
		if cLo > 0 && en.ring != nil {
			// One instant per fallback segment, not per point: the span's
			// leading points ran the checked kernel instead of the
			// specialized stores.
			en.ring.Emit(obs.KSpecFallback, en.ring.Now(), 0, eqIdx, cLo)
		}
		for p := int64(0); p < cLo; p++ {
			en.eqCount++
			gen(en, fr)
			for j, sv := range slots {
				fr[sv] += dir[j]
			}
		}
		// Certified run: branch-free stores with incremental offsets.
		if cLo <= cHi {
			for ai := range accs {
				k.offs[ai] += k.slope[ai] * cLo
			}
			cnt := cHi - cLo + 1
			en.eqCount += cnt
			en.specCount += cnt
			for p := int64(0); p < cnt; p++ {
				store(k)
				for ai := range accs {
					k.offs[ai] += k.slope[ai]
				}
				for j, sv := range slots {
					fr[sv] += dir[j]
				}
			}
		}
		// Generic suffix: points past the certified interval.
		if cHi+1 < n && en.ring != nil {
			en.ring.Emit(obs.KSpecFallback, en.ring.Now(), 0, eqIdx, n-cHi-1)
		}
		for p := cHi + 1; p < n; p++ {
			en.eqCount++
			gen(en, fr)
			for j, sv := range slots {
				fr[sv] += dir[j]
			}
		}
		for j, sv := range slots {
			fr[sv] -= n * dir[j]
		}
		k.en, k.fr = nil, nil
		pool.Put(k)
	}
	return sp
}

// --- reporting ---------------------------------------------------------------

// KernelSpec describes one equation's kernel-specialization outcome, in
// plan order; Runner.Explain renders it.
type KernelSpec struct {
	Eq          string // equation label
	Target      string // target symbol name(s)
	Specialized bool
	Reason      string // why the equation stayed generic ("" when specialized)
}

// Kernels reports the specialization outcome per equation of the named
// module's selected plan variant.
func (p *Program) Kernels(name string, opts plan.Options) []KernelSpec {
	m := p.Prog.Module(name)
	if m == nil {
		return nil
	}
	cm := p.mods[m]
	if cm == nil {
		return nil
	}
	cp := cm.variant(opts.Fuse, opts.Hyperplane)
	specs := make([]KernelSpec, len(cp.pl.Eqs))
	for i, eq := range cp.pl.Eqs {
		names := make([]string, len(eq.Targets))
		for j, t := range eq.Targets {
			names[j] = t.Sym.Name
		}
		specs[i] = KernelSpec{
			Eq:          eq.Label,
			Target:      strings.Join(names, ", "),
			Specialized: cp.spans[i].specialized,
			Reason:      cp.spans[i].why,
		}
	}
	return specs
}

// --- write-coverage analysis -------------------------------------------------

// writeCovered reports whether the module's equations provably define
// every element of sym before any could be read: the condition under
// which an arena-recycled backing may skip zeroing. The analysis is
// conservative — false means "must zero", never "may skip wrongly".
// Coverage holds when some equation writes the full index space of
// every dimension, or when the equations split exactly one dimension
// into constant slices tiling upward from the dimension's lower bound
// plus a ranged slice covering the rest (the boundary-plus-interior
// shape of relaxation recurrences).
func writeCovered(m *sem.Module, sym *sem.Symbol) bool {
	arr, isArr := sym.Type.(*types.Array)
	if !isArr {
		return true
	}
	nd := len(arr.Dims)
	type dimPiece struct {
		full    bool
		isConst bool
		constV  int64
		ranged  bool
		rangeLo int64
	}
	var rows [][]dimPiece
	for _, eq := range m.Eqs {
		for _, t := range eq.Targets {
			if t.Sym != sym {
				continue
			}
			if eq.WholeCall != nil || eq.MultiCall != nil || len(t.Subs) == 0 {
				// Whole-value assignment covers every element.
				return true
			}
			row := make([]dimPiece, nd)
			for d := 0; d < nd; d++ {
				if d >= len(t.Subs) {
					row[d] = dimPiece{full: true} // implicit: full dimension
					continue
				}
				dim := arr.Dims[d]
				af := m.AnalyzeAffine(t.Subs[d])
				if af == nil {
					continue // unknown piece
				}
				if af.IsConst() && !af.Symbolic {
					row[d] = dimPiece{isConst: true, constV: af.Const}
					continue
				}
				v, cst, ok := af.SingleVar()
				if !ok || cst != 0 {
					continue
				}
				switch {
				case v == dim,
					ast.ExprString(v.Lo) == ast.ExprString(dim.Lo) &&
						ast.ExprString(v.Hi) == ast.ExprString(dim.Hi):
					row[d] = dimPiece{full: true}
				case ast.ExprString(v.Hi) == ast.ExprString(dim.Hi):
					if lo, isLit := sem.EvalConstInt(v.Lo); isLit {
						row[d] = dimPiece{ranged: true, rangeLo: lo}
					}
				}
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return false
	}
	for _, row := range rows {
		full := true
		for d := 0; d < nd; d++ {
			if !row[d].full {
				full = false
				break
			}
		}
		if full {
			return true
		}
	}
	// Single-dimension split: constant slices from the dimension's
	// literal lower bound, then a ranged slice through the upper bound.
	for d := 0; d < nd; d++ {
		dimLo, loLit := sem.EvalConstInt(arr.Dims[d].Lo)
		if !loLit {
			continue
		}
		var consts []int64
		haveRange := false
		rangeLo := int64(0)
		for _, row := range rows {
			fullElse := true
			for e := 0; e < nd; e++ {
				if e != d && !row[e].full {
					fullElse = false
					break
				}
			}
			if !fullElse {
				continue
			}
			switch p := row[d]; {
			case p.isConst:
				consts = append(consts, p.constV)
			case p.ranged:
				if !haveRange || p.rangeLo < rangeLo {
					haveRange, rangeLo = true, p.rangeLo
				}
			}
		}
		if !haveRange {
			continue
		}
		sort.Slice(consts, func(i, j int) bool { return consts[i] < consts[j] })
		next := dimLo
		for _, cv := range consts {
			if cv == next {
				next++
			}
		}
		if rangeLo >= dimLo && rangeLo <= next {
			return true
		}
	}
	return false
}
