package lint

// noalloc: static allocation gate for //ruru:noalloc functions.
//
// The zero-allocation contracts of the hot paths (tsdb's WriteBatchRef
// steady path, pkt parse, ring ops, the sink burst loop) were previously
// pinned only by testing.AllocsPerRun benchmarks that are skipped under
// -race — so an alloc regression could land through a race-enabled CI
// lane untested. This analyzer makes the contract an always-on static
// property: a function whose doc comment carries the line
//
//	//ruru:noalloc
//
// is rejected if its body contains an allocating construct:
//
//   - make / new
//   - composite literals that allocate: &T{…}, slice literals, map
//     literals (plain value struct/array literals live on the stack)
//   - function literals that capture variables (closure allocation);
//     capture-free literals compile to static functions and are allowed
//   - conversions of a non-pointer-shaped concrete value to an interface
//     type (in call arguments, assignments and returns)
//   - any fmt.* call
//   - string concatenation, string([]byte) / []byte(string) conversions
//   - append to a slice declared locally without capacity (a fresh
//     per-call slice; append to reused scratch, fields or parameters is
//     the amortized idiom the AllocsPerRun pins keep honest)
//
// Warm-up guards are recognized: an allocation inside an if/else whose
// condition tests capacity, length or nil-ness (`if cap(buf) < need`,
// `if col == nil`) is an init-once path by construction and allowed.
// Anything else that is intentionally cold can be suppressed with
// //ruru:ignore noalloc <why>.
//
// Calls to other functions are NOT charged to the caller: annotate the
// callee too if it is part of the steady path. The annotation is a
// contract about this function's own body.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoAlloc returns the analyzer.
func NoAlloc() *Analyzer {
	return &Analyzer{
		Name: "noalloc",
		Doc:  "rejects allocating constructs inside functions annotated //ruru:noalloc",
		Run:  runNoAlloc,
	}
}

// noallocMarker matches the annotation line inside a doc comment.
func hasNoAllocMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//ruru:noalloc" {
			return true
		}
	}
	return false
}

func runNoAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoAllocMarker(fd.Doc) {
				continue
			}
			r := &noallocRun{pass: pass, fn: fd}
			r.collectLocalSlices(fd.Body)
			r.walk(fd.Body, false)
		}
	}
	return nil
}

type noallocRun struct {
	pass *Pass
	fn   *ast.FuncDecl
	// freshLocals are slice variables declared in this body with no
	// backing capacity: `var s []T`, `s := []T{}`; appending to one grows
	// a fresh per-call allocation.
	freshLocals map[*types.Var]bool
}

func (r *noallocRun) reportf(pos token.Pos, format string, args ...any) {
	name := r.fn.Name.Name
	r.pass.Reportf(pos, "%s is //ruru:noalloc: "+format, append([]any{name}, args...)...)
}

// collectLocalSlices records locally declared unsized slices.
func (r *noallocRun) collectLocalSlices(body *ast.BlockStmt) {
	r.freshLocals = map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ValueSpec: // var s []T (no initializer)
			if len(n.Values) != 0 {
				return true
			}
			for _, name := range n.Names {
				if v, ok := r.pass.Info.Defs[name].(*types.Var); ok && isSlice(v.Type()) {
					r.freshLocals[v] = true
				}
			}
		case *ast.AssignStmt: // s := []T{}
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := r.pass.Info.Defs[id].(*types.Var)
				if !ok || !isSlice(v.Type()) {
					continue
				}
				if lit, ok := n.Rhs[i].(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
					r.freshLocals[v] = true
				}
			}
		}
		return true
	})
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isWarmupGuard reports whether cond is a capacity/length/nil test — the
// shape of an init-once guard around a lazily allocated buffer.
func isWarmupGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				found = true
			}
		case *ast.Ident:
			if n.Name == "nil" {
				found = true
			}
		}
		return true
	})
	return found
}

// walk visits the body; guarded is true inside a warm-up guard branch.
func (r *noallocRun) walk(n ast.Node, guarded bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.IfStmt:
		r.walk(n.Init, guarded)
		r.checkExpr(n.Cond, guarded)
		branchGuarded := guarded || isWarmupGuard(n.Cond)
		r.walk(n.Body, branchGuarded)
		r.walk(n.Else, branchGuarded)
		return
	case *ast.BlockStmt:
		for _, s := range n.List {
			r.walk(s, guarded)
		}
		return
	case *ast.LabeledStmt:
		r.walk(n.Stmt, guarded)
		return
	case *ast.ForStmt:
		r.walk(n.Init, guarded)
		r.checkExpr(n.Cond, guarded)
		r.walk(n.Body, guarded)
		r.walk(n.Post, guarded)
		return
	case *ast.RangeStmt:
		r.checkExpr(n.X, guarded)
		r.walk(n.Body, guarded)
		return
	case *ast.SwitchStmt:
		r.walk(n.Init, guarded)
		r.checkExpr(n.Tag, guarded)
		for _, c := range n.Body.List {
			for _, s := range c.(*ast.CaseClause).Body {
				r.walk(s, guarded)
			}
		}
		return
	case *ast.TypeSwitchStmt:
		r.walk(n.Init, guarded)
		for _, c := range n.Body.List {
			for _, s := range c.(*ast.CaseClause).Body {
				r.walk(s, guarded)
			}
		}
		return
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				r.walk(cc.Comm, guarded)
			}
			for _, s := range cc.Body {
				r.walk(s, guarded)
			}
		}
		return
	case ast.Stmt:
		// Leaf statements: check their expressions.
		ast.Inspect(n, func(c ast.Node) bool {
			if e, ok := c.(ast.Expr); ok {
				r.checkExprNode(e, guarded)
				if _, isLit := c.(*ast.FuncLit); isLit {
					return false // the literal itself was checked; skip its body
				}
			}
			return true
		})
		return
	}
}

// checkExpr inspects one expression subtree.
func (r *noallocRun) checkExpr(e ast.Expr, guarded bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(c ast.Node) bool {
		if expr, ok := c.(ast.Expr); ok {
			r.checkExprNode(expr, guarded)
			if _, isLit := c.(*ast.FuncLit); isLit {
				return false
			}
		}
		return true
	})
}

// checkExprNode applies the allocation rules to a single expression node.
func (r *noallocRun) checkExprNode(e ast.Expr, guarded bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		r.checkCall(e, guarded)
	case *ast.CompositeLit:
		r.checkCompositeLit(e, guarded)
	case *ast.UnaryExpr:
		if e.Op == token.AND && !guarded {
			if _, ok := e.X.(*ast.CompositeLit); ok {
				r.reportf(e.Pos(), "&composite literal escapes to the heap")
			}
		}
	case *ast.FuncLit:
		if caps := r.captures(e); len(caps) > 0 {
			r.reportf(e.Pos(), "closure captures %s (heap-allocates the closure and its captures)",
				strings.Join(caps, ", "))
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if t, ok := r.pass.Info.Types[e]; ok && isString(t.Type) {
				r.reportf(e.Pos(), "string concatenation allocates")
			}
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func (r *noallocRun) checkCall(call *ast.CallExpr, guarded bool) {
	// Type conversions: string([]byte) and []byte(string) copy.
	if tv, ok := r.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		src, dst := r.pass.Info.Types[call.Args[0]].Type, tv.Type
		if (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src)) {
			if !guarded {
				r.reportf(call.Pos(), "string/[]byte conversion allocates a copy")
			}
		}
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := r.pass.Info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				if !guarded {
					r.reportf(call.Pos(), "%s allocates (wrap cold init in a cap/len/nil guard, or reuse scratch)", b.Name())
				}
				return
			case "append":
				r.checkAppend(call)
				return
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := r.pass.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			r.reportf(call.Pos(), "fmt.%s allocates (formatting is not hot-path work)", fn.Name())
			return
		}
	}
	r.checkInterfaceArgs(call, guarded)
}

// checkAppend flags appends that grow a fresh per-call slice.
func (r *noallocRun) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := r.pass.Info.Uses[id].(*types.Var); ok && r.freshLocals[v] {
		r.reportf(call.Pos(), "append grows %s, a locally declared slice with no reserved capacity", v.Name())
	}
}

// pointerShaped reports whether a value of type t fits an interface word
// without boxing (pointers, maps, chans, funcs, unsafe pointers).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// isInterface reports whether values of type t are interface values. A type
// parameter is not one, although its underlying type is its constraint
// interface: its values are whatever the instantiation holds, so handing
// one to an interface boxes it and handing one to itself does not.
func isInterface(t types.Type) bool {
	_, typeParam := types.Unalias(t).(*types.TypeParam)
	return !typeParam && types.IsInterface(t)
}

// checkInterfaceArgs flags non-pointer-shaped concrete values passed to
// interface-typed parameters (the conversion boxes onto the heap).
func (r *noallocRun) checkInterfaceArgs(call *ast.CallExpr, guarded bool) {
	if guarded {
		return
	}
	tv, ok := r.pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through ... does not box
			}
			paramType = sig.Params().At(sig.Params().Len() - 1).Type().Underlying().(*types.Slice).Elem()
		} else if i < sig.Params().Len() {
			paramType = sig.Params().At(i).Type()
		} else {
			continue
		}
		r.checkIfaceConversion(arg, paramType)
	}
}

// checkIfaceConversion reports arg if assigning it to dst boxes a value.
func (r *noallocRun) checkIfaceConversion(arg ast.Expr, dst types.Type) {
	if dst == nil || !isInterface(dst) {
		return
	}
	tv, ok := r.pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || isInterface(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	r.reportf(arg.Pos(), "converting %s to interface %s boxes the value on the heap",
		types.TypeString(tv.Type, types.RelativeTo(r.pass.Pkg)),
		types.TypeString(dst, types.RelativeTo(r.pass.Pkg)))
}

// checkCompositeLit flags literal forms that allocate.
func (r *noallocRun) checkCompositeLit(lit *ast.CompositeLit, guarded bool) {
	if guarded {
		return
	}
	tv, ok := r.pass.Info.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		r.reportf(lit.Pos(), "slice literal allocates")
	case *types.Map:
		r.reportf(lit.Pos(), "map literal allocates")
	}
	// A plain value struct/array literal stays on the stack; &T{…} is
	// reported by the UnaryExpr case in checkExprNode.
}

// captures returns the names of variables a function literal captures
// from its enclosing function.
func (r *noallocRun) captures(lit *ast.FuncLit) []string {
	var names []string
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := r.pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == r.pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		// Declared inside the literal (params included): not a capture.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}
