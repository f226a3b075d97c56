package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer statically enforces the cancellation contract the
// fault-tolerant runtime (PR 5) established: context flows down, and long
// loops check it.
//
//  1. A function that accepts a context.Context must thread it: calling a
//     context-accepting callee with a fresh context.Background() or
//     context.TODO() severs the caller's cancellation (and deadline) for
//     everything below the call.
//  2. In a function that accepts a context.Context, a loop that drives
//     hotpath work — a call that is, or statically reaches, a
//     //bimode:hotpath function, or any dynamic call when the function is
//     itself //bimode:hotpath dispatch — must consult ctx somewhere in
//     its body. The block contract (batchRecords = 64Ki in
//     internal/trace) is the canonical shape: run a bounded block, check
//     ctx.Err(), repeat. Loops with no ctx use can spin for the whole
//     trace with cancellation dead.
//
// Functions without a context parameter are out of scope: the ctx-less
// reference dispatchers in internal/sim are uncancellable by design and
// the scheduler wraps them in chunked, checking drivers.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "context parameters thread to callees; hotpath-driving loops check cancellation",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParam := contextParam(pass.Pkg.Info, fd)
			if ctxParam == nil {
				continue
			}
			checkCtxThreading(pass, fd)
			checkLoopCancellation(pass, fd)
		}
	}
}

// contextParam returns the function's context.Context parameter object, or
// nil. A parameter named _ cannot be threaded and is skipped.
func contextParam(info *types.Info, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				return v
			}
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxThreading flags calls that replace the in-scope ctx with a fresh
// root context.
func checkCtxThreading(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := staticCalleeInfo(info, inner)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				continue
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(arg.Pos(), "%s has a ctx parameter but passes context.%s() here, severing cancellation; thread ctx instead",
					fd.Name.Name, fn.Name())
			}
		}
		return true
	})
}

// checkLoopCancellation flags hotpath-driving loops with no ctx use in
// their body.
func checkLoopCancellation(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	dispatch := pass.Prog.Hotpath[declSymbol(pass.Pkg.Path, fd)] == HotDispatch
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		case *ast.FuncLit:
			return false // its own function; ctx scoping differs
		default:
			return true
		}
		if loopDrivesHotpath(pass, info, body, dispatch) && !usesContext(info, body) {
			pass.Reportf(n.Pos(), "%s takes a ctx but this loop drives hotpath work without consulting it; check ctx.Err() between bounded chunks (batchRecords = 64Ki) so cancellation stays cooperative",
				fd.Name.Name)
		}
		// Nested loops are checked independently: an outer chunk loop may
		// check ctx while an inner fused loop legitimately does not — but
		// then the inner loop is the hotpath call itself, not a driver.
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// loopDrivesHotpath reports whether the loop body contains a call that
// can process per-record work: a static call that is or reaches a
// //bimode:hotpath function, or — inside a dispatch-annotated function —
// any dynamic call (interface dispatch is exactly what dispatch loops do
// per record).
func loopDrivesHotpath(pass *Pass, info *types.Info, body *ast.BlockStmt, dispatch bool) bool {
	drives := false
	ast.Inspect(body, func(n ast.Node) bool {
		if drives {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCalleeInfo(info, call)
		if fn == nil {
			// Dynamic call: conversions and builtins never reach here as
			// *ast.CallExpr with nil callee... but type conversions do.
			// Only count genuine dynamic calls.
			if dispatch && isDynamicCall(info, call) {
				drives = true
			}
			return true
		}
		if pass.Prog.reachesHotpath(funcSymbol(fn)) {
			drives = true
		}
		return true
	})
	return drives
}

// isDynamicCall distinguishes a real dynamic call (interface method or
// function value) from a type conversion or builtin.
func isDynamicCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName:
			return false
		case *types.Var:
			return true // function-valued variable
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return types.IsInterface(sel.Recv()) || sel.Kind() == types.FieldVal
		}
		if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
			return false
		}
	}
	if t := info.TypeOf(call.Fun); t != nil {
		if _, ok := t.Underlying().(*types.Signature); ok {
			return true
		}
	}
	return false
}

// usesContext reports whether any expression of type context.Context is
// mentioned inside the block.
func usesContext(info *types.Info, body *ast.BlockStmt) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok && isContextType(v.Type()) {
			used = true
		}
		return true
	})
	return used
}
