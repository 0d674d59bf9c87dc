// Package lockcheck enforces the repo's `// guarded by mu` field
// convention and the non-blocking-under-lock invariant.
//
// Two invariants, both previously honored by eyeball:
//
//  1. A struct field whose doc or line comment says "guarded by <mu>"
//     may only be read or written while <mu> — a sync.Mutex or
//     sync.RWMutex field of the same struct — is held. The NM's
//     race-unsafe trigger-callback field, since removed, was the
//     archetype: the comment said what the rule was, nothing checked it.
//
//  2. While any mutex is held, the function must not block: no bare
//     channel sends, no select without a default, no time.Sleep, no
//     sync.WaitGroup.Wait. (sync.Cond.Wait is exempt: it requires the
//     lock and releases it while parked.) This is the
//     non-blocking-publish contract of the NM event feed
//     (internal/nm/events.go): publishers run on the management
//     channel handler and must never wedge behind a slow subscriber.
//     A select with a default clause is the compliant form.
//
// The analysis is intentionally syntactic and per-function. Lock state
// is tracked positionally through the statement list: <path>.Lock()
// sets held, <path>.Unlock() clears it — unless the Unlock is deferred
// (held to return) or immediately followed by a return/break/continue
// (an early-exit branch; the fall-through path is still locked).
// Each function literal is its own scope: a closure runs at a
// different time than the function that creates it.
//
// Recognized conventions and escapes:
//
//   - functions whose name ends in "Locked" assert "caller holds the
//     lock" and are exempt from invariant 1 (publishLocked,
//     sortedOriginsLocked);
//   - accesses through a value freshly built in the same scope
//     (v := T{...}, v := &T{...}, v := new(T)) are exempt: the object
//     is not yet shared;
//   - _test.go files are exempt (tests poke fields single-threaded);
//   - a line ending in //conmanvet:allow suppresses lockcheck on that
//     line, for discipline the checker cannot see.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"conman/internal/analysis"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "check `guarded by mu` field access and blocking calls under held locks",
	Run:  run,
}

const allowMarker = "conmanvet:allow"

var guardedRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guard describes one annotated field: the mutex sibling that guards it.
type guard struct {
	mutex string // sibling field name
}

func run(pass *analysis.Pass) (interface{}, error) {
	guards := collectGuards(pass)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		allowed := allowedLines(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScopes(pass, fd.Name.Name, fd.Body, guards, allowed)
		}
	}
	return nil, nil
}

// collectGuards finds every `guarded by <mu>` field annotation in the
// package and validates that the named mutex exists as a sibling
// field of lock type.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	out := map[*types.Var]guard{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardNameOf(field)
				if mu == "" {
					continue
				}
				sibling := findField(st, mu)
				if sibling == nil {
					pass.Reportf(field.Pos(), "field is guarded by %q but the struct has no such field", mu)
					continue
				}
				if !isLockType(pass, sibling) {
					pass.Reportf(field.Pos(), "field is guarded by %q which is not a sync.Mutex or sync.RWMutex", mu)
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = guard{mutex: mu}
					}
				}
			}
			return true
		})
	}
	return out
}

func guardNameOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func findField(st *ast.StructType, name string) *ast.Field {
	for _, f := range st.Fields.List {
		if len(f.Names) == 0 {
			if embeddedName(f.Type) == name {
				return f
			}
			continue
		}
		for _, n := range f.Names {
			if n.Name == name {
				return f
			}
		}
	}
	return nil
}

// embeddedName is the implicit field name of an embedded type.
func embeddedName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.StarExpr:
		return embeddedName(x.X)
	}
	return ""
}

func isLockType(pass *analysis.Pass, field *ast.Field) bool {
	tv, ok := pass.TypesInfo.Types[field.Type]
	if !ok {
		return false
	}
	s := tv.Type.String()
	return s == "sync.Mutex" || s == "sync.RWMutex" || s == "*sync.Mutex" || s == "*sync.RWMutex"
}

// allowedLines collects source lines carrying the //conmanvet:allow
// escape.
func allowedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, allowMarker) {
				out[fset.Position(c.Slash).Line] = true
			}
		}
	}
	return out
}

// lockEvent is one positional change of lock state.
type lockEvent struct {
	pos    token.Pos
	path   string // rendered mutex path, e.g. "m.mu"
	lock   bool   // Lock/RLock vs Unlock/RUnlock
	noop   bool   // deferred or early-exit unlock: does not clear
	anyPos bool
}

// scope is the per-function analysis state.
type scope struct {
	funcName string
	events   []lockEvent
	// fresh maps local objects built in this scope (composite
	// literal, new) — accesses through them are unshared.
	fresh map[types.Object]bool
	// selectDefaults are the ranges of select statements that have a
	// default clause (non-blocking form).
	selectDefaults [][2]token.Pos
}

// checkScopes analyzes body as one scope and recurses into any
// function literals as separate scopes.
func checkScopes(pass *analysis.Pass, funcName string, body *ast.BlockStmt, guards map[*types.Var]guard, allowed map[int]bool) {
	sc := &scope{funcName: funcName, fresh: map[types.Object]bool{}}
	var lits []*ast.FuncLit
	collectScope(pass, body, sc, &lits)
	analyzeScope(pass, sc, body, guards, allowed, lits)
	for _, lit := range lits {
		checkScopes(pass, funcName+" (func literal)", lit.Body, guards, allowed)
	}
}

// collectScope gathers lock events, fresh locals and select-default
// ranges from the statements of one scope, not descending into
// function literals.
func collectScope(pass *analysis.Pass, body *ast.BlockStmt, sc *scope, lits *[]*ast.FuncLit) {
	var walkStmts func(list []ast.Stmt, top bool)
	var walkStmt func(s ast.Stmt, next []ast.Stmt, top bool)

	walkStmts = func(list []ast.Stmt, top bool) {
		for i, s := range list {
			walkStmt(s, list[i+1:], top)
		}
	}

	record := func(call *ast.CallExpr, deferred bool, next []ast.Stmt, top bool) bool {
		path, lock, ok := lockCall(pass, call)
		if !ok {
			return false
		}
		ev := lockEvent{pos: call.Pos(), path: path, lock: lock}
		if !lock {
			if deferred {
				ev.noop = true
			} else if !top && len(next) > 0 && terminates(next[0]) {
				// Unlock on an early-exit branch nested inside the
				// function: the fall-through continues locked. (At the
				// top level the unlock is unconditional, so it really
				// does release — even right before a return.)
				ev.noop = true
			}
		}
		sc.events = append(sc.events, ev)
		return true
	}

	var scanExpr func(e ast.Expr)
	scanExpr = func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				*lits = append(*lits, lit)
				return false
			}
			return true
		})
	}

	walkStmt = func(s ast.Stmt, next []ast.Stmt, top bool) {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if record(call, false, next, top) {
					return
				}
			}
			scanExpr(st.X)
		case *ast.DeferStmt:
			if record(st.Call, true, nil, top) {
				return
			}
			scanExpr(st.Call)
		case *ast.AssignStmt:
			// Track fresh locals: v := T{...}, v := &T{...}, v := new(T).
			if st.Tok == token.DEFINE {
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(st.Rhs) {
						continue
					}
					if isFreshExpr(st.Rhs[i]) {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							sc.fresh[obj] = true
						}
					}
				}
			}
			for _, e := range st.Rhs {
				scanExpr(e)
			}
			for _, e := range st.Lhs {
				scanExpr(e)
			}
		case *ast.BlockStmt:
			walkStmts(st.List, false)
		case *ast.IfStmt:
			scanExpr(st.Cond)
			walkStmts(st.Body.List, false)
			if st.Else != nil {
				walkStmt(st.Else, nil, false)
			}
		case *ast.ForStmt:
			if st.Init != nil {
				walkStmt(st.Init, nil, false)
			}
			if st.Cond != nil {
				scanExpr(st.Cond)
			}
			walkStmts(st.Body.List, false)
			if st.Post != nil {
				walkStmt(st.Post, nil, false)
			}
		case *ast.RangeStmt:
			scanExpr(st.X)
			walkStmts(st.Body.List, false)
		case *ast.SwitchStmt:
			if st.Init != nil {
				walkStmt(st.Init, nil, false)
			}
			scanExpr(st.Tag)
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(cc.Body, false)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(cc.Body, false)
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if cc.Comm == nil {
						hasDefault = true
					}
					walkStmts(cc.Body, false)
				}
			}
			if hasDefault {
				sc.selectDefaults = append(sc.selectDefaults, [2]token.Pos{st.Pos(), st.End()})
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt, next, top)
		case *ast.GoStmt:
			scanExpr(st.Call)
		case *ast.ReturnStmt:
			for _, e := range st.Results {
				scanExpr(e)
			}
		case *ast.SendStmt:
			scanExpr(st.Chan)
			scanExpr(st.Value)
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							if i < len(vs.Values) && isFreshExpr(vs.Values[i]) {
								if obj := pass.TypesInfo.Defs[name]; obj != nil {
									sc.fresh[obj] = true
								}
							}
						}
						for _, v := range vs.Values {
							scanExpr(v)
						}
					}
				}
			}
		}
	}
	walkStmts(body.List, true)
}

func isFreshExpr(e ast.Expr) bool {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

func terminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// lockCall classifies a call as a mutex Lock/Unlock and renders the
// mutex path ("m.mu", expanding embedded-promotion hops).
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (path string, lock bool, ok bool) {
	sel, selOk := call.Fun.(*ast.SelectorExpr)
	if !selOk {
		return "", false, false
	}
	fn, fnOk := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !fnOk {
		return "", false, false
	}
	full := fn.FullName()
	switch full {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		lock = true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		lock = false
	default:
		return "", false, false
	}
	base, baseOk := renderPath(unparen(sel.X))
	if !baseOk {
		return "", false, false
	}
	// Promoted lock (embedded sync.Mutex): include the elided hops so
	// the path matches a "guarded by Mutex"-style annotation.
	if s := pass.TypesInfo.Selections[sel]; s != nil {
		idx := s.Index()
		t := s.Recv()
		for _, i := range idx[:len(idx)-1] {
			stru, sok := structUnder(t)
			if !sok {
				break
			}
			f := stru.Field(i)
			base += "." + f.Name()
			t = f.Type()
		}
	}
	return base, lock, true
}

// renderPath flattens an ident/selector chain to a dotted string; any
// other expression shape (calls, indexing) is unsupported.
func renderPath(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := renderPath(unparen(x.X))
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func structUnder(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// heldAt reports whether the mutex at path is held at pos, per the
// positional event stream.
func (sc *scope) heldAt(path string, pos token.Pos) bool {
	held := false
	for _, ev := range sc.events {
		if ev.pos >= pos || ev.path != path {
			continue
		}
		if ev.lock {
			held = true
		} else if !ev.noop {
			held = false
		}
	}
	return held
}

// anyHeldAt reports whether any mutex is held at pos.
func (sc *scope) anyHeldAt(pos token.Pos) (string, bool) {
	held := map[string]bool{}
	for _, ev := range sc.events {
		if ev.pos >= pos {
			continue
		}
		if ev.lock {
			held[ev.path] = true
		} else if !ev.noop {
			delete(held, ev.path)
		}
	}
	for p := range held {
		return p, true
	}
	return "", false
}

func (sc *scope) inSelectDefault(pos token.Pos) bool {
	for _, r := range sc.selectDefaults {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

// analyzeScope applies both invariants to one collected scope.
func analyzeScope(pass *analysis.Pass, sc *scope, body *ast.BlockStmt, guards map[*types.Var]guard, allowed map[int]bool, lits []*ast.FuncLit) {
	inLit := func(pos token.Pos) bool {
		for _, l := range lits {
			if pos >= l.Pos() && pos < l.End() {
				return true
			}
		}
		return false
	}
	line := func(pos token.Pos) int { return pass.Fset.Position(pos).Line }

	callerHolds := strings.HasSuffix(strings.TrimSuffix(sc.funcName, " (func literal)"), "Locked")

	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope
		}
		if inLit(n.Pos()) {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if callerHolds {
				return true
			}
			selInfo := pass.TypesInfo.Selections[x]
			if selInfo == nil || selInfo.Kind() != types.FieldVal {
				return true
			}
			v, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var)
			if !ok {
				return true
			}
			g, guarded := guards[v]
			if !guarded || allowed[line(x.Pos())] {
				return true
			}
			base, ok := renderPath(unparen(x.X))
			if !ok {
				return true // can't reason about the base; stay quiet
			}
			if root := rootIdent(x.X); root != nil {
				if obj := pass.TypesInfo.Uses[root]; obj != nil && sc.fresh[obj] {
					return true // freshly built, unshared
				}
			}
			mutexPath := base + "." + g.mutex
			if !sc.heldAt(mutexPath, x.Pos()) {
				pass.Reportf(x.Pos(),
					"%s.%s is accessed without holding %s (field is marked `guarded by %s`; use %s.Lock(), a *Locked helper, or //conmanvet:allow)",
					base, x.Sel.Name, mutexPath, g.mutex, mutexPath)
			}
		case *ast.SendStmt:
			if allowed[line(x.Pos())] || sc.inSelectDefault(x.Pos()) {
				return true
			}
			if mu, held := sc.anyHeldAt(x.Pos()); held {
				pass.Reportf(x.Pos(),
					"blocking channel send while holding %s; use a select with default (non-blocking publish) or send after unlocking", mu)
			}
		case *ast.CallExpr:
			if allowed[line(x.Pos())] {
				return true
			}
			if name, blocking := blockingCall(pass, x); blocking {
				if mu, held := sc.anyHeldAt(x.Pos()); held {
					pass.Reportf(x.Pos(), "%s while holding %s; a blocked holder wedges every contender", name, mu)
				}
			}
		}
		return true
	})
}

// blockingCall recognizes well-known blocking calls.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	switch fn.FullName() {
	case "time.Sleep":
		return "time.Sleep", true
	case "(*sync.WaitGroup).Wait":
		return "sync.WaitGroup.Wait", true
		// (*sync.Cond).Wait is deliberately absent: Cond requires the
		// lock held and releases it while parked.
	}
	return "", false
}

// unparen strips parentheses. (ast.Unparen needs go1.22; go.mod says 1.21.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
