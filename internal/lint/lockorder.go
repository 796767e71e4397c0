package lint

// lockorder: a declarative partial order over named mutexes.
//
// The spec names lock classes — (struct type, field) pairs — and the
// allowed nestings between them as directed edges; the transitive closure
// of those edges is the set of (outer, inner) acquisitions permitted.
// Acquiring one tracked lock while another tracked lock is held in any
// pair NOT in that closure is a violation: this single rule expresses
// ordered chains (commitMu → stripe mu → dirMu), leaf-only locks (no
// outgoing edge: nothing may be acquired under them) and forbidden pairs
// (no edge in either direction, e.g. fed's Aggregator.mu ∦ aggProbe.mu).
//
// Tracking is intra-procedural — held locks are followed through
// straight-line code, with control-flow branches analyzed under a copy of
// the held set (an under-approximation: a lock acquired inside a branch
// is not considered held after it) — plus call-graph propagation within
// the package: every function's set of transitively acquired classes is
// computed to a fixpoint, and calling a function that may acquire class C
// while holding class H is checked like a direct acquisition of C.
//
// Deliberate approximations, chosen to keep the checker FP-free on real
// code:
//   - `defer mu.Unlock()` keeps the lock held for the rest of the walk
//     (which is exactly its meaning).
//   - `go f()` bodies and goroutine spawns are not charged to the
//     spawner: a new goroutine starts with nothing held.
//   - Function literals are analyzed as independent functions with an
//     empty held set.
//   - Re-acquiring a held class is allowed: several instances of one
//     class (e.g. every tsdb stripe during a checkpoint) may legally be
//     held together.
//   - RLock and Lock are one acquisition kind: the order invariants here
//     do not distinguish read from write acquisition.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A LockClass names one mutex field the analyzer tracks.
type LockClass struct {
	// ID is the short name used in spec edges and diagnostics, e.g.
	// "tsdb.commitMu".
	ID string
	// Type is the fully qualified named type holding the field, e.g.
	// "ruru/internal/tsdb.DB".
	Type string
	// Field is the mutex field name, e.g. "commitMu". The field's type
	// must be sync.Mutex or sync.RWMutex.
	Field string
}

// A LockOrderSpec is the declarative partial order for one repository.
type LockOrderSpec struct {
	Classes []LockClass
	// Order lists allowed (outer, inner) nestings by class ID; the
	// transitive closure is taken. A class with no outgoing edge is
	// leaf-only; two classes with no connecting path must never nest.
	Order [][2]string
	// Acquires maps a function, by (*types.Func).FullName(), to the class
	// IDs a call to it acquires (and releases before returning): how an
	// edge across a package boundary — tsdb.commitMu → seglog.syncMu — is
	// checked where the outer lock is held, the analyzer seeing one package
	// at a time. Ignored inside the function's own package.
	Acquires map[string][]string
}

// LockOrder builds the analyzer for spec.
func LockOrder(spec *LockOrderSpec) *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "checks Lock/RLock acquisitions against the declared mutex partial order",
		Run:  func(p *Pass) error { return runLockOrder(p, spec) },
	}
}

// allowed returns the closure of spec.Order as a set of "outer→inner".
func (s *LockOrderSpec) allowed() map[string]bool {
	adj := map[string][]string{}
	for _, e := range s.Order {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	closure := map[string]bool{}
	var dfs func(root, cur string)
	dfs = func(root, cur string) {
		for _, next := range adj[cur] {
			key := root + "\x00" + next
			if !closure[key] {
				closure[key] = true
				dfs(root, next)
			}
		}
	}
	for _, c := range s.Classes {
		dfs(c.ID, c.ID)
	}
	return closure
}

// lockOrderRun is the per-pass state.
type lockOrderRun struct {
	pass    *Pass
	spec    *LockOrderSpec
	classOf map[string]string // "pkgpath.Type\x00field" -> class ID
	allowed map[string]bool   // "outer\x00inner"
	// summary maps each package function to the set of tracked classes it
	// may transitively acquire.
	summary map[*types.Func]map[string]bool
	// funcs maps the declared functions to their bodies for the fixpoint.
	funcs map[*types.Func]*ast.FuncDecl
}

func runLockOrder(pass *Pass, spec *LockOrderSpec) error {
	r := &lockOrderRun{
		pass:    pass,
		spec:    spec,
		classOf: map[string]string{},
		allowed: spec.allowed(),
		summary: map[*types.Func]map[string]bool{},
		funcs:   map[*types.Func]*ast.FuncDecl{},
	}
	for _, c := range spec.Classes {
		r.classOf[c.Type+"\x00"+c.Field] = c.ID
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				r.funcs[fn] = fd
			}
		}
	}

	// Pass 1: direct acquisitions per function.
	direct := map[*types.Func]map[string]bool{}
	for fn, fd := range r.funcs {
		direct[fn] = r.directAcquires(fd.Body)
	}
	// Fixpoint: propagate through same-package calls.
	for fn := range r.funcs {
		r.summary[fn] = map[string]bool{}
		for c := range direct[fn] {
			r.summary[fn][c] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range r.funcs {
			for callee := range r.callees(fd.Body) {
				for c := range r.summary[callee] {
					if !r.summary[fn][c] {
						r.summary[fn][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: walk every function (and every function literal,
	// independently) with held-set tracking.
	for _, fd := range r.funcs {
		r.walkBody(fd.Body)
	}
	return nil
}

// walkBody analyzes body with an empty held set and then recurses into
// every function literal it contains, each with its own empty held set.
func (r *lockOrderRun) walkBody(body *ast.BlockStmt) {
	held := map[string]token.Pos{}
	r.walkStmts(body.List, held)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			inner := map[string]token.Pos{}
			r.walkStmts(lit.Body.List, inner)
			// Literals nested inside this one are reached by the
			// recursive Inspect; do not double-walk.
		}
		return true
	})
}

// lockCall classifies a call expression as an acquisition/release of a
// tracked class. kind is "lock", "unlock" or "".
func (r *lockOrderRun) lockCall(call *ast.CallExpr) (class, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return "", ""
	}
	fn, ok := r.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	// The receiver must itself be a field selection on a tracked type:
	// x.mu.Lock() with x of (or pointing to) a spec'd named type.
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	tv, ok := r.pass.Info.Types[inner.X]
	if !ok {
		return "", ""
	}
	cls, ok := r.classOf[namedFQN(derefNamed(tv.Type))+"\x00"+inner.Sel.Name]
	if !ok {
		return "", ""
	}
	return cls, kind
}

// directAcquires collects the tracked classes body may acquire directly,
// excluding function literals and `go` statements (new goroutines start
// with nothing held) but including deferred unlock-free paths.
func (r *lockOrderRun) directAcquires(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if cls, kind := r.lockCall(n); kind == "lock" {
				out[cls] = true
			}
			for _, cls := range r.foreignAcquires(n) {
				out[cls] = true
			}
		}
		return true
	})
	return out
}

// foreignAcquires returns the classes the spec says a call to a function
// of another package acquires.
func (r *lockOrderRun) foreignAcquires(call *ast.CallExpr) []string {
	fn := calleeFunc(r.pass, call)
	if fn == nil || fn.Pkg() == r.pass.Pkg {
		return nil
	}
	return r.spec.Acquires[fn.FullName()]
}

// callees collects the same-package functions body calls directly,
// excluding calls inside function literals, `go` and `defer` statements.
func (r *lockOrderRun) callees(body *ast.BlockStmt) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if fn := r.staticCallee(n); fn != nil {
				out[fn] = true
			}
		}
		return true
	})
	return out
}

// staticCallee resolves a call to a function declared in this package.
func (r *lockOrderRun) staticCallee(call *ast.CallExpr) *types.Func {
	fn := calleeFunc(r.pass, call)
	if _, declared := r.funcs[fn]; !declared {
		return nil
	}
	return fn
}

// walkStmts processes a statement list sequentially, mutating held.
func (r *lockOrderRun) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		r.walkStmt(s, held)
	}
}

// fork returns a copy of held for analyzing a control-flow branch.
func fork(held map[string]token.Pos) map[string]token.Pos {
	cp := make(map[string]token.Pos, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

func (r *lockOrderRun) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		r.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		r.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		r.walkStmt(s.Init, held)
		r.checkExpr(s.Cond, held)
		r.walkStmt(s.Body, fork(held))
		r.walkStmt(s.Else, fork(held))
	case *ast.ForStmt:
		r.walkStmt(s.Init, held)
		r.checkExpr(s.Cond, held)
		body := fork(held)
		r.walkStmt(s.Body, body)
		r.walkStmt(s.Post, body)
	case *ast.RangeStmt:
		r.checkExpr(s.X, held)
		r.walkStmt(s.Body, fork(held))
	case *ast.SwitchStmt:
		r.walkStmt(s.Init, held)
		r.checkExpr(s.Tag, held)
		for _, c := range s.Body.List {
			r.walkStmts(c.(*ast.CaseClause).Body, fork(held))
		}
	case *ast.TypeSwitchStmt:
		r.walkStmt(s.Init, held)
		r.walkStmt(s.Assign, held)
		for _, c := range s.Body.List {
			r.walkStmts(c.(*ast.CaseClause).Body, fork(held))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			branch := fork(held)
			r.walkStmt(cc.Comm, branch)
			r.walkStmts(cc.Body, branch)
		}
	case *ast.GoStmt:
		// A spawned goroutine starts with nothing held; its body (if a
		// literal) is walked independently by walkBody.
	case *ast.DeferStmt:
		// `defer mu.Unlock()` means the lock stays held for the rest of
		// this walk, which is already how held models it: no-op. Deferred
		// arbitrary calls run at return time in an unknowable lock
		// context; skipped.
	default:
		// Plain statements: check every call in their expressions in
		// source order.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				r.checkCall(n, held)
			}
			return true
		})
	}
}

// checkExpr checks the calls inside one expression.
func (r *lockOrderRun) checkExpr(e ast.Expr, held map[string]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			r.checkCall(n, held)
		}
		return true
	})
}

// checkCall applies one call's effect on held: a tracked Lock acquires
// (after order validation), a tracked Unlock releases, and a call to a
// same-package function is validated against that function's transitive
// acquisition summary, a call into another package against the spec's
// Acquires table.
func (r *lockOrderRun) checkCall(call *ast.CallExpr, held map[string]token.Pos) {
	if cls, kind := r.lockCall(call); kind != "" {
		switch kind {
		case "lock":
			r.checkAcquire(call.Pos(), cls, held, "")
			held[cls] = call.Pos()
		case "unlock":
			delete(held, cls)
		}
		return
	}
	if fn := r.staticCallee(call); fn != nil {
		for cls := range r.summary[fn] {
			r.checkAcquire(call.Pos(), cls, held, fn.Name())
		}
	}
	for _, cls := range r.foreignAcquires(call) {
		r.checkAcquire(call.Pos(), cls, held, calleeFunc(r.pass, call).Name())
	}
}

// checkAcquire reports acquiring cls while holding any class it is not
// ordered after. via names the callee for indirect acquisitions.
func (r *lockOrderRun) checkAcquire(pos token.Pos, cls string, held map[string]token.Pos, via string) {
	for outer, at := range held {
		if outer == cls {
			continue // multiple instances of one class may nest
		}
		if r.allowed[outer+"\x00"+cls] {
			continue
		}
		what := fmt.Sprintf("acquires %s", cls)
		if via != "" {
			what = fmt.Sprintf("calls %s, which may acquire %s", via, cls)
		}
		why := "which the declared lock order forbids"
		if r.allowed[cls+"\x00"+outer] {
			why = fmt.Sprintf("but the declared lock order is %s before %s", cls, outer)
		}
		r.pass.Reportf(pos, "%s while holding %s (held since %s), %s",
			what, outer, r.pass.Fset.Position(at), why)
	}
}

// String renders the spec's order edges for documentation/tests.
func (s *LockOrderSpec) String() string {
	var b strings.Builder
	for i, e := range s.Order {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s → %s", e[0], e[1])
	}
	return b.String()
}
