// Dataflow substrate: a module-wide, summary-based value-flow analysis
// over the type-checked Program. The taintflow analyzer is built on it;
// DESIGN.md §12 documents the model, the true positives it is held to
// (the envelope) and its deliberate soundness limits.
//
// The analysis runs in two levels. Intra-procedurally, a walker visits a
// function body in source order, tracking per-object taint (a bitset of
// the parameters the value derives from, plus the concrete untrusted
// source it carries and a capped representative source→sink step trail)
// to a monotone fixpoint. Interprocedurally, each function's walk grows a
// funcSummary — which parameters reach the return values, which reach
// sinks inside the callee, which flow into pointer-like out-parameters,
// and what source taint the function originates (e.g. fmri.ReadData
// returning a dataset built from raw file bytes) — and a global fixpoint
// over every module function applies callee summaries at call sites until
// no summary grows. Findings are collected in one final reporting sweep
// so they reflect the converged state.
//
// A call with no summary (the standard library, a function value, an
// interface method) follows one rule: its result and every pointer-like
// argument take the merged taint of the receiver and the arguments, so
// io.ReadFull fills its buffer and Decoder.Decode its target; inside the
// parsing packages a call handed a reader also yields raw input.
//
// Taint is cut two ways. (A) A call to a function whose doc comment
// carries //lint:sanitizes taintflow treats the call's argument (and
// receiver) roots as clean from the call to the end of the enclosing
// function, and its results as trusted. (B) A comparison guard over a
// tainted value whose if-body terminates (return/panic/break/continue)
// cleans the compared roots for the rest of the function — the
// `if n > maxBody { return err }` idiom.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const (
	// maxSteps caps a value's step trail; long flows keep their head (the
	// source) and drop middle hops.
	maxSteps = 8
	// maxIntraIters bounds the per-function fixpoint.
	maxIntraIters = 8
	// maxGlobalRounds bounds the cross-function summary fixpoint; call
	// chains deeper than this see only part of their callees' summaries.
	maxGlobalRounds = 16
	// maxParamBits is the widest parameter list the bitset tracks.
	maxParamBits = 64
)

// taintVal is the abstract value attached to an object or expression:
// which parameters of the enclosing function it derives from, the
// concrete source that reached it (empty when none), and a representative
// path. nil means clean.
type taintVal struct {
	params uint64
	src    string
	steps  []token.Pos
}

// tainted reports whether the value carries any taint at all.
func (tv *taintVal) tainted() bool {
	return tv != nil && (tv.params != 0 || tv.src != "")
}

// sourced reports whether the value derives from a concrete untrusted
// source (not merely from a parameter).
func (tv *taintVal) sourced() bool { return tv != nil && tv.src != "" }

// source creates a fresh source-tainted value.
func source(pos token.Pos, desc string) *taintVal {
	return &taintVal{src: desc, steps: []token.Pos{pos}}
}

// mergeTaint unions two abstract values. The source and the
// representative step trail come from the first operand that carries a
// source.
func mergeTaint(a, b *taintVal) *taintVal {
	if !b.tainted() {
		return a
	}
	if !a.tainted() {
		return b
	}
	out := &taintVal{params: a.params | b.params, src: a.src, steps: a.steps}
	if !a.sourced() {
		out.src, out.steps = b.src, b.steps
	}
	return out
}

// withStep extends a tainted value's trail by one hop (no-op on clean
// values; drops hops beyond maxSteps, keeping the source end).
func (tv *taintVal) withStep(pos token.Pos) *taintVal {
	if !tv.tainted() {
		return tv
	}
	out := &taintVal{params: tv.params, src: tv.src}
	out.steps = append(out.steps[:0:0], tv.steps...)
	if len(out.steps) < maxSteps {
		out.steps = append(out.steps, pos)
	}
	return out
}

// grow merges tv into old and reports whether the result carries strictly
// more taint — the monotone measure driving both fixpoints (step trails
// are cosmetic and do not count).
func grow(old, tv *taintVal) (*taintVal, bool) {
	nw := mergeTaint(old, tv)
	if !nw.tainted() {
		return nw, false
	}
	return nw, !old.tainted() || nw.params&^old.params != 0 || nw.sourced() && !old.sourced()
}

// sinkRec is one sink a parameter reaches inside a function, kept in its
// summary so callers can report the flow at their call sites.
type sinkRec struct {
	kind  string
	pos   token.Pos
	steps []token.Pos
}

// funcSummary is the interprocedural distillation of one function. Every
// field only grows, so the global fixpoint stops on the first round in
// which no summary did.
type funcSummary struct {
	// paramsToRet is the bitset of parameters (receiver = bit 0 when
	// present) that flow into some return value.
	paramsToRet uint64
	// retTaint is source-origin taint of the return values — taint the
	// function creates itself, e.g. by decoding raw input.
	retTaint *taintVal
	// paramSinks maps a parameter index to the sinks it reaches.
	paramSinks map[int][]sinkRec
	// paramOut maps a parameter index to the bitset of pointer-like
	// parameters its taint is written through (gob-style decode helpers).
	paramOut map[int]uint64
	// paramSrcOut maps a pointer-like parameter index to source taint the
	// function writes through it.
	paramSrcOut map[int]*taintVal
}

// taintFinding is one source→sink flow the reporting sweep confirmed.
type taintFinding struct {
	pos token.Pos
	msg string
}

// dfFunc is one module function under analysis.
type dfFunc struct {
	pass *Pass
	decl *ast.FuncDecl
	sum  *funcSummary
	// rawInput marks functions in packages that parse untrusted raw bytes
	// (internal/mpi, internal/fmri, internal/nifti): reads there are
	// themselves sources.
	rawInput bool
}

// dataflow is the cached module-wide analysis result.
type dataflow struct {
	funcs      []*dfFunc
	byObj      map[*types.Func]*dfFunc
	sanitizers map[*types.Func]bool
	// grew is set whenever a walk adds to some function's summary.
	grew bool
	// findings is keyed by the import path of the pass whose function the
	// reporting sweep was walking, so Run attributes each finding once.
	findings map[string][]taintFinding
	seen     map[string]bool
}

// dataflow returns the module-wide analysis, building it on first use.
func (prog *Program) dataflow() *dataflow {
	prog.dfOnce.Do(func() { prog.df = buildDataflow(prog) })
	return prog.df
}

// rawInputPkg reports whether the package parses untrusted raw bytes.
func rawInputPkg(path string) bool {
	return pathWithin(path, "internal/mpi") ||
		pathWithin(path, "internal/fmri") ||
		pathWithin(path, "internal/nifti")
}

// buildDataflow runs the global summary fixpoint and the final reporting
// sweep over every function in the module.
func buildDataflow(prog *Program) *dataflow {
	df := &dataflow{
		byObj:      make(map[*types.Func]*dfFunc),
		sanitizers: make(map[*types.Func]bool),
		findings:   make(map[string][]taintFinding),
		seen:       make(map[string]bool),
	}
	for _, pass := range prog.Passes {
		raw := rawInputPkg(pass.Path)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &dfFunc{pass: pass, decl: fd, rawInput: raw, sum: &funcSummary{
					paramSinks:  make(map[int][]sinkRec),
					paramOut:    make(map[int]uint64),
					paramSrcOut: make(map[int]*taintVal),
				}}
				df.funcs = append(df.funcs, fn)
				df.byObj[obj] = fn
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if a, _, ok := parseDirective(c.Text, sanitizesPrefix); ok && a == "taintflow" {
							df.sanitizers[obj] = true
						}
					}
				}
			}
		}
	}
	for round := 0; round < maxGlobalRounds; round++ {
		df.grew = false
		for _, fn := range df.funcs {
			df.walk(fn, false)
		}
		if !df.grew {
			break
		}
	}
	for _, fn := range df.funcs {
		df.walk(fn, true)
	}
	return df
}

// walker runs the intra-procedural fixpoint for one function.
type walker struct {
	df   *dataflow
	fn   *dfFunc
	pass *Pass

	taint map[types.Object]*taintVal
	// clean maps a sanitized object to the position from which it is
	// trusted (to the end of the function).
	clean    map[types.Object]token.Pos
	litRets  map[types.Object]*taintVal
	paramIdx map[types.Object]int
	sum      *funcSummary

	changed bool
	// emit turns sink hits into findings (the reporting sweep only);
	// summaries grow on every sweep.
	emit bool
	// litRet, when non-nil, captures return-statement taint of the
	// function literal currently being walked instead of the summary.
	litRet **taintVal
}

// walk runs the walker to fixpoint, growing the function's summary. With
// report set, one extra emitting sweep records findings.
func (df *dataflow) walk(fn *dfFunc, report bool) {
	w := &walker{
		df: df, fn: fn, pass: fn.pass,
		taint:    make(map[types.Object]*taintVal),
		clean:    make(map[types.Object]token.Pos),
		litRets:  make(map[types.Object]*taintVal),
		paramIdx: make(map[types.Object]int),
		sum:      fn.sum,
	}
	w.bindParams()
	for it := 0; it < maxIntraIters; it++ {
		w.changed = false
		w.stmts(fn.decl.Body.List)
		if !w.changed {
			break
		}
	}
	if report {
		w.emit = true
		w.stmts(fn.decl.Body.List)
	}
}

// bindParams indexes the receiver (bit 0 when present) and parameters,
// seeding *http.Request parameters as concrete sources.
func (w *walker) bindParams() {
	idx := 0
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, n := range field.Names {
				obj := w.pass.Info.Defs[n]
				if obj != nil && idx < maxParamBits {
					w.paramIdx[obj] = idx
					tv := &taintVal{params: 1 << idx}
					if typeIs(obj.Type(), "net/http", "Request") {
						tv.src, tv.steps = "http request data", []token.Pos{n.Pos()}
					}
					w.taint[obj] = tv
				}
				idx++
			}
		}
	}
	bind(w.fn.decl.Recv)
	bind(w.fn.decl.Type.Params)
}

// sanitize records that obj is clean from pos to the end of the function.
func (w *walker) sanitize(obj types.Object, from token.Pos) {
	if at, ok := w.clean[obj]; !ok || from < at {
		w.clean[obj] = from
	}
}

// lookup returns obj's current taint as seen at pos (nil once sanitized).
func (w *walker) lookup(obj types.Object, pos token.Pos) *taintVal {
	if at, ok := w.clean[obj]; ok && pos >= at {
		return nil
	}
	return w.taint[obj]
}

// mergeInto folds tv into obj's taint, recording out-parameter flows in
// the summary when obj is a pointer-like parameter.
func (w *walker) mergeInto(obj types.Object, tv *taintVal) {
	if obj == nil || obj.Name() == "_" || !tv.tainted() {
		return
	}
	if pi, ok := w.paramIdx[obj]; ok && pointerLike(obj.Type()) {
		for from := 0; from < maxParamBits; from++ {
			if tv.params&(1<<from) != 0 && from != pi && w.sum.paramOut[from]&(1<<pi) == 0 {
				w.sum.paramOut[from] |= 1 << pi
				w.df.grew = true
			}
		}
		if tv.sourced() {
			if nw, ok := grow(w.sum.paramSrcOut[pi], &taintVal{src: tv.src, steps: tv.steps}); ok {
				w.sum.paramSrcOut[pi] = nw
				w.df.grew = true
			}
		}
	}
	if nw, ok := grow(w.taint[obj], tv); ok {
		w.taint[obj] = nw
		w.changed = true
	}
}

// pointerLike reports whether writes through a value of type t are
// visible to the caller.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// rootObj strips selectors, indexing, slicing, derefs, unary operators,
// and parens down to the base identifier's object; nil when the base is a
// call, a literal, or a package name.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			if _, ok := info.Selections[x]; !ok {
				return nil // qualified identifier (pkg.Name)
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sink handles a tainted value reaching a sink: source-tainted values
// become findings (emitting sweep only); parameter-tainted values are
// folded into the summary for the callers to report.
func (w *walker) sink(kind string, pos token.Pos, tv *taintVal) {
	if !tv.tainted() {
		return
	}
	steps := tv.withStep(pos).steps
	if tv.sourced() && w.emit {
		w.emitFinding(kind, pos, tv.src, steps)
	}
	w.addSinks(tv.params, kind, pos, steps)
}

// addSinks records a sink as reachable from every parameter in params.
func (w *walker) addSinks(params uint64, kind string, pos token.Pos, steps []token.Pos) {
	for p := 0; p < maxParamBits; p++ {
		if params&(1<<p) == 0 {
			continue
		}
		dup := false
		for _, r := range w.sum.paramSinks[p] {
			dup = dup || r.pos == pos && r.kind == kind
		}
		if !dup {
			w.sum.paramSinks[p] = append(w.sum.paramSinks[p], sinkRec{kind: kind, pos: pos, steps: steps})
			w.df.grew = true
		}
	}
}

// emitFinding records one deduplicated finding against the walking pass.
func (w *walker) emitFinding(kind string, pos token.Pos, src string, steps []token.Pos) {
	key := fmt.Sprintf("%d|%s", pos, kind)
	if w.df.seen[key] {
		return
	}
	w.df.seen[key] = true
	msg := fmt.Sprintf("untrusted %s reaches %s (%s)",
		src, kind, renderFlow(w.pass.Prog.Fset, steps))
	w.df.findings[w.pass.Path] = append(w.df.findings[w.pass.Path],
		taintFinding{pos: pos, msg: msg})
}

// renderFlow renders a step trail as base-name:line hops.
func renderFlow(fset *token.FileSet, steps []token.Pos) string {
	var b strings.Builder
	b.WriteString("path: ")
	for i, s := range steps {
		if i > 0 {
			b.WriteString(" -> ")
		}
		p := fset.Position(s)
		name := p.Filename
		if j := strings.LastIndexByte(name, '/'); j >= 0 {
			name = name[j+1:]
		}
		fmt.Fprintf(&b, "%s:%d", name, p.Line)
	}
	return b.String()
}

// ---- statement walk ----

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmtOpt(s ast.Stmt) {
	if s != nil {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		w.assign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				switch {
				case len(vs.Values) == len(vs.Names):
					for i, n := range vs.Names {
						w.assignOne(n, vs.Values[i], n.Pos())
					}
				case len(vs.Values) == 1:
					tv := w.eval(vs.Values[0])
					for _, n := range vs.Names {
						w.assignLhs(n, tv, n.Pos())
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.eval(st.X)
	case *ast.ReturnStmt:
		w.returnStmt(st)
	case *ast.IfStmt:
		w.ifStmt(st)
	case *ast.ForStmt:
		w.stmtOpt(st.Init)
		w.eval(st.Cond)
		w.stmtOpt(st.Post)
		w.stmts(st.Body.List)
	case *ast.RangeStmt:
		// The value carries the ranged-over data; the key is an index or
		// a map key, which no sink is fed from, and stays clean.
		xv := w.eval(st.X)
		if st.Value != nil {
			w.assignThrough(st.Value, xv, st.Pos())
		}
		w.stmts(st.Body.List)
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.SwitchStmt:
		w.stmtOpt(st.Init)
		w.eval(st.Tag)
		w.clauses(st.Body)
	case *ast.TypeSwitchStmt:
		// The per-clause bindings stay clean: no sink on the tree is fed
		// from one.
		w.stmtOpt(st.Init)
		w.stmt(st.Assign)
		w.clauses(st.Body)
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			w.stmtOpt(cc.Comm)
			w.stmts(cc.Body)
		}
	case *ast.GoStmt:
		w.eval(st.Call)
	case *ast.DeferStmt:
		w.eval(st.Call)
	case *ast.SendStmt:
		w.eval(st.Chan)
		w.eval(st.Value)
	case *ast.IncDecStmt:
		w.eval(st.X)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	}
}

// clauses walks a switch's case expressions and bodies.
func (w *walker) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		for _, e := range cc.List {
			w.eval(e)
		}
		w.stmts(cc.Body)
	}
}

func (w *walker) assign(st *ast.AssignStmt) {
	switch {
	case len(st.Lhs) == len(st.Rhs):
		for i := range st.Lhs {
			w.assignOne(st.Lhs[i], st.Rhs[i], st.TokPos)
		}
	case len(st.Rhs) == 1:
		// Multi-value assignment: every lhs coarsely gets the rhs taint.
		tv := w.eval(st.Rhs[0])
		for _, lhs := range st.Lhs {
			w.assignLhs(lhs, tv, st.TokPos)
		}
	}
}

func (w *walker) assignOne(lhs, rhs ast.Expr, at token.Pos) {
	if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
		// A closure bound to a local: remember its return taint so calls
		// through the variable propagate it (fmri's readWord pattern).
		ret := w.evalFuncLit(lit)
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj := w.pass.Info.Defs[id]
			if obj == nil {
				obj = w.pass.Info.Uses[id]
			}
			if nw, ok := grow(w.litRets[obj], ret); ok && obj != nil {
				w.litRets[obj] = nw
				w.changed = true
			}
		}
		return
	}
	w.assignLhs(lhs, w.eval(rhs), at)
}

func (w *walker) assignLhs(lhs ast.Expr, tv *taintVal, at token.Pos) {
	// Non-ident targets (a[i] = v) carry their own sink checks.
	if _, ok := lhs.(*ast.Ident); !ok {
		w.eval(lhs)
	}
	w.assignThrough(lhs, tv, at)
}

func (w *walker) returnStmt(st *ast.ReturnStmt) {
	if len(st.Results) == 0 {
		if w.litRet == nil && w.fn.decl.Type.Results != nil {
			// Naked return with named results.
			for _, field := range w.fn.decl.Type.Results.List {
				for _, n := range field.Names {
					if obj := w.pass.Info.Defs[n]; obj != nil {
						w.foldReturn(w.lookup(obj, st.Pos()))
					}
				}
			}
		}
		return
	}
	for _, r := range st.Results {
		w.foldReturn(w.eval(r))
	}
}

func (w *walker) foldReturn(tv *taintVal) {
	if w.litRet != nil {
		*w.litRet, _ = grow(*w.litRet, tv)
		return
	}
	if !tv.tainted() {
		return
	}
	if tv.params&^w.sum.paramsToRet != 0 {
		w.sum.paramsToRet |= tv.params
		w.df.grew = true
	}
	if tv.sourced() {
		if nw, ok := grow(w.sum.retTaint, &taintVal{src: tv.src, steps: tv.steps}); ok {
			w.sum.retTaint = nw
			w.df.grew = true
		}
	}
}

func (w *walker) ifStmt(st *ast.IfStmt) {
	w.stmtOpt(st.Init)
	if terminates(st.Body) {
		// Rule B: the guard rejects bad values and bails; the compared
		// roots are trusted for the rest of the function.
		for _, o := range w.taintedCompareRoots(st.Cond) {
			w.sanitize(o, st.End())
		}
	}
	w.eval(st.Cond)
	w.stmts(st.Body.List)
	if st.Else != nil {
		w.stmt(st.Else)
	}
}

// taintedCompareRoots collects the root objects of tainted operands of
// comparison expressions in cond (through &&/||).
func (w *walker) taintedCompareRoots(cond ast.Expr) []types.Object {
	var roots []types.Object
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LAND, token.LOR:
			visit(be.X)
			visit(be.Y)
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, side := range [2]ast.Expr{be.X, be.Y} {
				if w.eval(side).tainted() {
					if o := rootObj(w.pass.Info, side); o != nil {
						roots = append(roots, o)
					}
				}
			}
		}
	}
	visit(cond)
	return roots
}

// terminates reports whether the block's last statement leaves the
// enclosing scope (return, panic, break, continue, goto).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// ---- expression evaluation ----

func (w *walker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.pass.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if o := w.pass.Info.Uses[id]; o != nil {
			return o.Type()
		}
	}
	return nil
}

func (w *walker) eval(e ast.Expr) *taintVal {
	switch x := e.(type) {
	case *ast.Ident:
		obj := w.pass.Info.Uses[x]
		if obj == nil {
			obj = w.pass.Info.Defs[x]
		}
		return w.contextFiltered(e, w.lookup(obj, x.Pos()))
	case *ast.ParenExpr:
		return w.eval(x.X)
	case *ast.SelectorExpr:
		return w.contextFiltered(e, w.evalSelector(x))
	case *ast.StarExpr:
		return w.eval(x.X)
	case *ast.UnaryExpr:
		return w.eval(x.X)
	case *ast.BinaryExpr:
		return mergeTaint(w.eval(x.X), w.eval(x.Y))
	case *ast.IndexExpr:
		// Generic instantiation, not an index operation.
		if tv, ok := w.pass.Info.Types[x.Index]; ok && tv.IsType() {
			return w.eval(x.X)
		}
		base := w.eval(x.X)
		iv := w.eval(x.Index)
		w.indexSink(x, iv)
		return base
	case *ast.IndexListExpr:
		return w.eval(x.X)
	case *ast.SliceExpr:
		base := w.eval(x.X)
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b == nil {
				continue
			}
			if bv := w.eval(b); bv.tainted() {
				w.sink("slice bounds", b.Pos(), bv)
			}
		}
		return base
	case *ast.CompositeLit:
		var out *taintVal
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = mergeTaint(out, w.eval(el))
		}
		return out
	case *ast.TypeAssertExpr:
		return w.eval(x.X)
	case *ast.CallExpr:
		return w.contextFiltered(e, w.evalCall(x))
	case *ast.FuncLit:
		w.evalFuncLit(x) // walk the body for sinks; the value is clean
	}
	return nil
}

// contextFiltered drops taint on values whose type cannot usefully carry
// attacker data to a sink: context.Context threads request scoping, and
// error values are messages (tracking them would re-export taint a
// sanitizer already cut, through the `return nil, err` idiom).
func (w *walker) contextFiltered(e ast.Expr, tv *taintVal) *taintVal {
	if tv.tainted() {
		if t := w.typeOf(e); t != nil && (isContextType(t) || isErrorType(t)) {
			return nil
		}
	}
	return tv
}

// isErrorType reports whether t is the predeclared error type.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func (w *walker) evalSelector(x *ast.SelectorExpr) *taintVal {
	sel, ok := w.pass.Info.Selections[x]
	if !ok {
		return nil // qualified identifier (pkg.Name)
	}
	base := w.eval(x.X)
	if sel.Kind() == types.FieldVal && x.Sel.Name == "Body" {
		// Reading the payload of an MPI wire frame is a source: the frame
		// arrived from a remote peer.
		if n := namedType(w.typeOf(x.X)); n != nil && n.Obj().Name() == "Message" &&
			n.Obj().Pkg() != nil && pathWithin(n.Obj().Pkg().Path(), "internal/mpi") {
			return mergeTaint(base, source(x.Pos(), "wire frame bytes"))
		}
	}
	return base
}

// evalFuncLit walks a function literal's body with the enclosing
// walker's state (free variables resolve naturally) and returns the
// merged taint of the literal's return values.
func (w *walker) evalFuncLit(lit *ast.FuncLit) *taintVal {
	saved := w.litRet
	var ret *taintVal
	w.litRet = &ret
	w.stmts(lit.Body.List)
	w.litRet = saved
	return ret
}

func (w *walker) indexSink(x *ast.IndexExpr, iv *taintVal) {
	if !iv.tainted() {
		return
	}
	t := w.typeOf(x.X)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
	case *types.Basic:
		if u.Info()&types.IsString == 0 {
			return
		}
	case *types.Pointer:
		if _, ok := u.Elem().Underlying().(*types.Array); !ok {
			return
		}
	default:
		return // maps key safely; anything else is untracked
	}
	w.sink("slice index", x.Index.Pos(), iv)
}

// osPathFuncs are the os package entry points whose string arguments are
// filesystem paths.
var osPathFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
	"WriteFile": true, "Stat": true, "Lstat": true, "Remove": true,
	"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "Rename": true,
	"Truncate": true, "Chmod": true, "ReadDir": true, "Chtimes": true,
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *walker) evalCall(call *ast.CallExpr) *taintVal {
	// Conversions: T(x) carries x's taint.
	if tv, ok := w.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.eval(call.Args[0])
		}
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.Info.Uses[id].(*types.Builtin); ok {
			return w.evalBuiltin(call, b.Name())
		}
		// A local closure variable: its remembered return taint.
		if rt, ok := w.litRets[w.pass.Info.Uses[id]]; ok {
			for _, a := range call.Args {
				w.eval(a)
			}
			return rt.withStep(call.Pos())
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.eval(a)
		}
		return w.evalFuncLit(lit)
	}

	args := make([]*taintVal, len(call.Args))
	for i, a := range call.Args {
		args[i] = w.eval(a)
	}
	var recv *taintVal
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := w.pass.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			recvExpr = sel.X
			recv = w.eval(sel.X)
		}
	}

	fn := calleeFunc(w.pass, call)
	// Annotated sanitizers neutralize their arguments and return trusted
	// results (rule A).
	if w.df.sanitizers[fn] {
		w.sanitizeCall(call, recvExpr)
		return nil
	}
	if target, ok := w.df.byObj[fn]; ok {
		return w.applySummary(call, fn, target.sum, args, recv, recvExpr)
	}

	pkg := ""
	if fn != nil && fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	// Digests of attacker bytes are trusted (the content-address idiom).
	if pkg == "crypto" || strings.HasPrefix(pkg, "crypto/") ||
		pkg == "hash" || strings.HasPrefix(pkg, "hash/") {
		return nil
	}
	// Filesystem path sinks.
	if (pkg == "path/filepath" && fn.Name() == "Join") ||
		(pkg == "os" && osPathFuncs[fn.Name()]) {
		for i, a := range call.Args {
			if args[i].tainted() && isStringType(w.typeOf(a)) {
				w.sink("filesystem path construction", a.Pos(), args[i])
			}
		}
	}

	// Any other callee: the one rule in the file comment.
	res := recv
	for _, a := range args {
		res = mergeTaint(res, a)
	}
	if w.fn.rawInput && fn != nil && takesReader(fn) {
		res = mergeTaint(res, source(call.Pos(), "raw input bytes"))
	}
	for _, a := range call.Args {
		if pointerLike(w.typeOf(a)) {
			w.assignThrough(a, res, call.Pos())
		}
	}
	return res.withStep(call.Pos())
}

// takesReader reports whether fn has an io.Reader parameter.
func takesReader(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if typeIs(params.At(i).Type(), "io", "Reader") {
			return true
		}
	}
	return false
}

// assignThrough writes tv into the root object of an assignment target
// or out-argument.
func (w *walker) assignThrough(target ast.Expr, tv *taintVal, at token.Pos) {
	if !tv.tainted() {
		return
	}
	w.mergeInto(rootObj(w.pass.Info, target), tv.withStep(at))
}

// sanitizeCall applies rule A: the argument and receiver roots of a
// //lint:sanitizes taintflow call are clean from the call onward.
func (w *walker) sanitizeCall(call *ast.CallExpr, recvExpr ast.Expr) {
	targets := append([]ast.Expr{recvExpr}, call.Args...)
	for _, t := range targets {
		if obj := rootObj(w.pass.Info, t); obj != nil {
			w.sanitize(obj, call.End())
		}
	}
}

// applySummary instantiates a callee summary at one call site.
func (w *walker) applySummary(call *ast.CallExpr, fn *types.Func, sum *funcSummary, args []*taintVal, recv *taintVal, recvExpr ast.Expr) *taintVal {
	sig := fn.Type().(*types.Signature)
	vals := make(map[int]*taintVal)
	exprs := make(map[int]ast.Expr)
	off := 0
	if sig.Recv() != nil {
		vals[0] = recv
		exprs[0] = recvExpr
		off = 1
	}
	np := sig.Params().Len()
	for i := range call.Args {
		pi := i
		if np > 0 && pi >= np {
			pi = np - 1 // variadic tail
		}
		pi += off
		if pi >= maxParamBits {
			continue
		}
		vals[pi] = mergeTaint(vals[pi], args[i])
		if exprs[pi] == nil {
			exprs[pi] = call.Args[i]
		}
	}

	// Sinks the callee exposes on its parameters.
	for pi, recs := range sum.paramSinks {
		v := vals[pi]
		if !v.tainted() {
			continue
		}
		for _, rec := range recs {
			steps := v.withStep(call.Pos()).steps
			steps = append(steps[:len(steps):len(steps)], rec.steps...)
			if len(steps) > maxSteps {
				steps = steps[:maxSteps]
			}
			if v.sourced() && w.emit {
				w.emitFinding(rec.kind, rec.pos, v.src, steps)
			}
			w.addSinks(v.params, rec.kind, rec.pos, steps)
		}
	}

	// Taint written through pointer-like out-arguments.
	for from, bits := range sum.paramOut {
		for to := 0; to < maxParamBits; to++ {
			if bits&(1<<to) != 0 && exprs[to] != nil {
				w.assignThrough(exprs[to], vals[from], call.Pos())
			}
		}
	}
	for to, sv := range sum.paramSrcOut {
		if exprs[to] != nil {
			w.assignThrough(exprs[to], sv, call.Pos())
		}
	}

	// Result taint: parameter pass-through plus callee-originated sources.
	var res *taintVal
	for pi := 0; pi < maxParamBits; pi++ {
		if sum.paramsToRet&(1<<pi) != 0 {
			res = mergeTaint(res, vals[pi])
		}
	}
	return mergeTaint(res, sum.retTaint).withStep(call.Pos())
}

func (w *walker) evalBuiltin(call *ast.CallExpr, name string) *taintVal {
	switch name {
	case "make":
		for _, a := range call.Args[1:] {
			if tv := w.eval(a); tv.tainted() {
				w.sink("allocation size", a.Pos(), tv)
			}
		}
		return nil
	case "append", "min", "max":
		var out *taintVal
		for _, a := range call.Args {
			out = mergeTaint(out, w.eval(a))
		}
		return out
	}
	// The length of a tainted buffer is safe: the bytes already fit in
	// memory; no other builtin yields data. Still walk the operands for
	// nested sinks.
	for _, a := range call.Args {
		w.eval(a)
	}
	return nil
}
