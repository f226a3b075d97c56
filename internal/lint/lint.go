// Package lint implements bimodelint, the repository's custom static
// analysis pass. It enforces, at compile time, the invariants the fast
// simulation tiers and the counter encapsulation rely on but which Go's
// type system cannot express:
//
//   - hotpath: functions annotated //bimode:hotpath (the fused RunBatch
//     loops and the leaf helpers they call) must stay free of
//     interface dispatch, map operations, defer, closures, channels, and
//     allocating expressions, and may call only other hotpath-annotated or
//     allowlisted functions. The weaker //bimode:hotpath dispatch level
//     (the simulator's per-record dispatch loops) permits dynamic calls
//     but keeps every other restriction.
//   - capladder: the optional-capability ladder of internal/predictor is
//     downward closed — a BatchRunner or Probe must also be a Predictor,
//     and a ProbeBatcher must be a Probe and a BatchRunner.
//   - registry: calls to functions annotated //bimode:registry (the zoo's
//     register) use unique, lowercase-canonical, constant spec names,
//     family-prefixed examples, and factories provably unable to return a
//     nil predictor with a nil error.
//   - counterarith: saturating-counter state (counter.State) is never
//     manipulated with raw arithmetic, ordered comparisons, conversions,
//     or used as a raw table index outside internal/counter; callers go
//     through SatNext, TakenBit, the Table API, or the explicit
//     counter.Bits escape hatch.
//   - allocproof: compiler evidence replaces AST heuristics for the
//     allocation contract — hotpath functions are compiled with
//     -gcflags='-m=2 -d=ssa/check_bce' and must show zero heap
//     allocations; strict hotpath functions must additionally show every
//     bounds check eliminated. The same evidence feeds the committed
//     lint/hotpath_ledger.json (see BuildLedger).
//   - detlint: no wall-clock read, math/rand call, package-level variable
//     write, or map range is statically reachable from functions
//     annotated //bimode:deterministic (scheduler fan-out bodies, journal
//     writers, artifact renderers).
//   - ctxflow: functions taking a context.Context must thread it — never
//     swap in context.Background/TODO for a callee that accepts one — and
//     loops that drive hotpath work from a context-carrying function must
//     consult ctx inside the loop (the 64Ki-record chunking contract).
//
// The pass is built on the standard library only (go/parser, go/types and
// the source importer), so the module stays dependency-free. Run it with
//
//	go run ./cmd/bimodelint ./...
//
// Findings can be suppressed line-by-line with
//
//	//bimode:allow <analyzer> -- <reason>
//
// placed on the offending line or the line above it; the reason is
// mandatory by convention so every escape is reviewable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run inspects pass.Pkg and reports findings
// through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //bimode:allow suppressions.
	Name string
	// Doc is a one-line description for the driver's usage text.
	Doc string
	// Run performs the check on one package.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package under analysis.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Prog is the whole-module context: directive indexes, the shared
	// file set, and the shared importer.
	Prog *Program
	// Pkg is the package under analysis.
	Pkg *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless a //bimode:allow suppression
// for this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotpathAnalyzer,
		CapLadderAnalyzer,
		RegistryAnalyzer,
		CounterArithAnalyzer,
		AllocProofAnalyzer,
		DetLintAnalyzer,
		CtxFlowAnalyzer,
	}
}

// Run executes the analyzers over the given packages and returns the
// findings sorted by file position, then analyzer name.
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// HotLevel is the strength of a //bimode:hotpath annotation.
type HotLevel int

const (
	// HotNone marks an unannotated function.
	HotNone HotLevel = iota
	// HotDispatch is //bimode:hotpath dispatch: a per-record loop that
	// dispatches through interfaces but must not allocate, touch maps,
	// defer, or build closures.
	HotDispatch
	// HotStrict is //bimode:hotpath: a fused loop or leaf helper that
	// additionally must not make any dynamic call and may only call other
	// strict hotpath or allowlisted functions.
	HotStrict
)

func (l HotLevel) String() string {
	switch l {
	case HotStrict:
		return "hotpath"
	case HotDispatch:
		return "hotpath dispatch"
	default:
		return "none"
	}
}

const (
	directivePrefix  = "bimode:"
	hotpathDirective = "bimode:hotpath"
	allowDirective   = "bimode:allow"
	registryDir      = "bimode:registry"
	deterministicDir = "bimode:deterministic"
)

// parseDirectives scans one parsed file for //bimode: directives,
// populating the program's annotation and suppression indexes. pkgPath is
// the import path the file's symbols are indexed under.
func (prog *Program) parseDirectives(pkgPath string, file *ast.File) {
	// Function annotations live in doc comments.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			text := strings.TrimPrefix(c.Text, "//")
			fields := strings.Fields(text)
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case hotpathDirective:
				level := HotStrict
				if len(fields) > 1 && fields[1] == "dispatch" {
					level = HotDispatch
				}
				prog.Hotpath[declSymbol(pkgPath, fd)] = level
			case registryDir:
				prog.Registry[declSymbol(pkgPath, fd)] = true
			case deterministicDir:
				prog.Deterministic[declSymbol(pkgPath, fd)] = true
			}
		}
	}
	// Suppressions may appear anywhere, including trailing comments.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			fields := strings.Fields(text)
			if len(fields) < 2 || fields[0] != allowDirective {
				continue
			}
			pos := prog.Fset.Position(c.Pos())
			reason := ""
			if i := strings.Index(text, "--"); i >= 0 {
				reason = strings.TrimSpace(text[i+2:])
			}
			for _, name := range fields[1:] {
				if name == "--" {
					break // rest is the human-readable reason
				}
				prog.allow[suppressKey{pos.Filename, pos.Line, name}] = reason
			}
		}
	}
}

// declSymbol returns the module-wide symbol of a function declaration:
// pkgpath.Func for package functions, pkgpath.Type.Method for methods
// (pointer receivers normalized away).
func declSymbol(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return pkgPath + "." + id.Name + "." + fd.Name.Name
	}
	return pkgPath + "." + fd.Name.Name
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

// suppressed reports whether a //bimode:allow directive for the analyzer
// covers the position: on the same line (trailing comment) or the line
// above (a full-line comment).
func (prog *Program) suppressed(analyzer string, pos token.Position) bool {
	_, ok := prog.allowedAt(analyzer, pos.Filename, pos.Line)
	return ok
}

// allowedAt looks up the //bimode:allow suppression covering (file, line)
// for the analyzer — same line or the line above — and returns its
// recorded reason. The ledger uses the reason to document waived sites.
func (prog *Program) allowedAt(analyzer, file string, line int) (string, bool) {
	if reason, ok := prog.allow[suppressKey{file, line, analyzer}]; ok {
		return reason, true
	}
	reason, ok := prog.allow[suppressKey{file, line - 1, analyzer}]
	return reason, ok
}
