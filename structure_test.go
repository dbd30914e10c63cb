package godcdo_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestStructure holds these rules over every non-test Go file of the
// module (the benchmark module is its own):
//
//   - internal/wire, internal/vclock and internal/metrics import no package
//     of this module, internal/transport and internal/objstate import only
//     internal/wire: the name intern table, the handler hand-off, the delta
//     codec, the clocks and the counters stay below rpc;
//   - internal/rpc imports none of core, replica or manager, and neither
//     internal/dfm nor internal/registry imports internal/rpc: the call
//     path does not reach up into the runtime that serves over it, the DFM
//     stays a local indirection, and rpc.Function builds on registry.Func,
//     not the other way round;
//   - only the rpc, transport and wire packages build request envelopes;
//     everything else calls through a declared method (Method.Call or
//     CallAt). The E9 overload drill is the one exception: it fires raw
//     envelopes at a server on purpose;
//   - nothing calls wire.DecodeEnvelope, the unpooled decoder: the
//     transport decodes every envelope with wire.DecodeEnvelopePooled, and
//     its caller releases the envelope;
//   - nothing outside internal/wire calls wire.DecodeBatchRun either: both
//     ends of a batch frame decode its run with wire.DecodeBatchRunPooled,
//     and a function that does releases the run with wire.PutBatchRun;
//   - no service dispatches on a method name by hand: a switch on a
//     variable named method belongs in a method table (rpc.Serve). The
//     harness's test objects are exempt;
//   - of the client's files, only internal/rpc/failure.go reads a transport
//     failure class (transport.Classify, transport.Retry*) or a wire error
//     code (wire.Code*): every route settles a failed attempt through its
//     one failure table;
//   - time.Sleep appears only in internal/vclock, internal/transport/faulty.go,
//     internal/harness, internal/testbed and examples: everything else waits
//     on an event or a clock;
//   - the E8, E11, E13 and E14 drills call none of naming.NewAgent,
//     transport.NewInprocNetwork and manager.OpenJournal: they stand their
//     clusters up with internal/testbed, not by hand;
//   - nothing outside internal/rpc calls Client.InvokeIdempotent: a
//     dynamic function's retry class is its declaration's (rpc.Function),
//     not its call site's;
//   - no more than maxCodecSites wire.NewEncoder / wire.NewDecoder call
//     sites sit outside internal/wire: a payload is coded by a declared
//     method's codec, not by hand at each call site;
//   - no exported function, method or interface method outside
//     internal/obs takes an obs.SpanContext parameter: a trace position
//     rides in ctx (obs.ContextWithSpan), the one route every wrapper and
//     remote hop already carries;
//   - no package has more non-test lines than its row in maxLines allows.
func TestStructure(t *testing.T) {
	// importsOK maps a package directory to the module packages it may
	// import; directories not listed are unconstrained.
	importsOK := map[string][]string{
		"internal/wire":      nil,
		"internal/vclock":    nil,
		"internal/metrics":   nil,
		"internal/transport": {"godcdo/internal/wire"},
		"internal/objstate":  {"godcdo/internal/wire"},
	}
	// importsNot maps a package directory to module packages it must not
	// import.
	importsNot := map[string][]string{
		"internal/rpc":      {"godcdo/internal/core", "godcdo/internal/replica", "godcdo/internal/manager"},
		"internal/dfm":      {"godcdo/internal/rpc"},
		"internal/registry": {"godcdo/internal/rpc"},
	}
	envelopeOK := func(path string) bool {
		for _, dir := range []string{"internal/rpc/", "internal/transport/", "internal/wire/"} {
			if strings.HasPrefix(path, dir) {
				return true
			}
		}
		return path == "internal/harness/e9.go"
	}
	clientFiles := []string{"internal/rpc/client.go", "internal/rpc/batch.go", "internal/rpc/direct.go",
		"internal/rpc/method.go", "internal/rpc/function.go", "internal/rpc/read.go"}
	classifies := func(pkg, sel string) bool {
		return pkg == "transport" && (sel == "Classify" || strings.HasPrefix(sel, "Retry")) ||
			pkg == "wire" && strings.HasPrefix(sel, "Code")
	}
	sleepOK := func(path string) bool {
		for _, prefix := range []string{"internal/vclock/", "internal/transport/faulty.go", "internal/harness/", "internal/testbed/", "examples/"} {
			if strings.HasPrefix(path, prefix) {
				return true
			}
		}
		return false
	}
	drills := []string{"internal/harness/e8.go", "internal/harness/e11.go", "internal/harness/e13.go", "internal/harness/e14.go"}
	handBuilt := map[string]bool{"naming.NewAgent": true, "transport.NewInprocNetwork": true, "manager.OpenJournal": true}
	lines := make(map[string]int)
	codecSites := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		path = filepath.ToSlash(path)
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		lines[dir] += bytes.Count(src, []byte("\n"))
		allowed, limited := importsOK[dir]
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if limited && strings.HasPrefix(p, "godcdo/") && !slices.Contains(allowed, p) {
				t.Errorf("%s: imports %s; this package may import only %v of the module", fset.Position(imp.Pos()), p, allowed)
			}
			if slices.Contains(importsNot[dir], p) {
				t.Errorf("%s: imports %s; this package may import none of %v", fset.Position(imp.Pos()), p, importsNot[dir])
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkg, ok := n.X.(*ast.Ident)
				if ok && pkg.Name == "wire" && n.Sel.Name == "KindRequest" && !envelopeOK(path) {
					t.Errorf("%s: builds a request envelope; call through a declared method", fset.Position(n.Pos()))
				}
				if ok && pkg.Name == "wire" && n.Sel.Name == "DecodeEnvelope" {
					t.Errorf("%s: calls wire.DecodeEnvelope; decode with wire.DecodeEnvelopePooled and release it", fset.Position(n.Pos()))
				}
				if ok && pkg.Name == "wire" && n.Sel.Name == "DecodeBatchRun" {
					t.Errorf("%s: calls wire.DecodeBatchRun; decode with wire.DecodeBatchRunPooled and release the run", fset.Position(n.Pos()))
				}
				if ok && classifies(pkg.Name, n.Sel.Name) && slices.Contains(clientFiles, path) {
					t.Errorf("%s: reads %s.%s; only failure.go classifies a client's failures", fset.Position(n.Pos()), pkg.Name, n.Sel.Name)
				}
				if ok && pkg.Name == "time" && n.Sel.Name == "Sleep" && !sleepOK(path) {
					t.Errorf("%s: calls time.Sleep; wait on an event or a vclock.Clock instead", fset.Position(n.Pos()))
				}
				if ok && pkg.Name == "wire" && (n.Sel.Name == "NewEncoder" || n.Sel.Name == "NewDecoder") && dir != "internal/wire" {
					codecSites++
				}
				if n.Sel.Name == "InvokeIdempotent" && dir != "internal/rpc" {
					t.Errorf("%s: calls InvokeIdempotent; call through a declared dynamic function (rpc.Function), whose declaration picks the retry class", fset.Position(n.Pos()))
				}
				if ok && handBuilt[pkg.Name+"."+n.Sel.Name] && slices.Contains(drills, path) {
					t.Errorf("%s: calls %s.%s; stand the drill's cluster up with internal/testbed", fset.Position(n.Pos()), pkg.Name, n.Sel.Name)
				}
			case *ast.FuncDecl:
				if n.Name.IsExported() && dir != "internal/obs" && takesSpan(n.Type) {
					t.Errorf("%s: %s takes an obs.SpanContext; carry the trace position in ctx (obs.ContextWithSpan)", fset.Position(n.Pos()), n.Name.Name)
				}
				if n.Body != nil && selects(n.Body, "wire", "DecodeBatchRunPooled") && !selects(n.Body, "wire", "PutBatchRun") {
					t.Errorf("%s: %s decodes a pooled batch run and never releases it with wire.PutBatchRun", fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					if ft, ok := m.Type.(*ast.FuncType); ok && m.Names[0].IsExported() && dir != "internal/obs" && takesSpan(ft) {
						t.Errorf("%s: interface method %s takes an obs.SpanContext; carry the trace position in ctx (obs.ContextWithSpan)", fset.Position(m.Pos()), m.Names[0].Name)
					}
				}
			case *ast.SwitchStmt:
				if tag, ok := n.Tag.(*ast.Ident); ok && tag.Name == "method" && !strings.HasPrefix(path, "internal/harness/") {
					t.Errorf("%s: switch on method; serve a method table instead", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if codecSites > maxCodecSites {
		t.Errorf("%d wire.NewEncoder / wire.NewDecoder call sites outside internal/wire, above maxCodecSites (%d); code the payload through a declared method's codec", codecSites, maxCodecSites)
	}
	for dir, n := range lines {
		row, ok := maxLines[dir]
		switch {
		case !ok:
			t.Errorf("%s: %d non-test lines and no row in maxLines; add one at its count", dir, n)
		case n > row:
			t.Errorf("%s: %d non-test lines, above its maxLines row of %d; cut it, or raise the row with a CHANGES.md line saying why", dir, n, row)
		}
	}
	for dir := range maxLines {
		if _, ok := lines[dir]; !ok {
			t.Errorf("maxLines has a row for %s, which holds no Go file; delete the row", dir)
		}
	}
}

// maxCodecSites is the codec-site ratchet: the most wire.NewEncoder /
// wire.NewDecoder call sites non-test code outside internal/wire may hold. A
// change may lower it freely; raising it needs a CHANGES.md line saying why.
const maxCodecSites = 20

// maxLines is the line ratchet: the most non-test lines (newlines in the
// package's non-test .go files) each package directory may hold. A change
// may lower a row freely; raising one needs a CHANGES.md line saying why.
var maxLines = map[string]int{
	"cmd/dcdo-bench":        93,
	"cmd/dcdo-ctl":          772,
	"cmd/dcdo-node":         399,
	"dcdo":                  420,
	"examples/hotfix":       202,
	"examples/migration":    144,
	"examples/multiversion": 146,
	"examples/quickstart":   129,
	"examples/sortdep":      222,
	"internal/baseline":     179,
	"internal/component":    457,
	"internal/core":         1378,
	"internal/demo":         156,
	"internal/dfm":          1461,
	"internal/evolution":    331,
	"internal/harness":      3188,
	"internal/legion":       595,
	"internal/manager":      3836,
	"internal/metrics":      1335,
	"internal/naming":       509,
	"internal/objstate":     390,
	"internal/obs":          1082,
	"internal/policy":       306,
	"internal/registry":     195,
	"internal/replica":      1128,
	"internal/rpc":          2836,
	"internal/rpc/rpctest":  72,
	"internal/simnet":       118,
	"internal/supervisor":   1353,
	"internal/testbed":      634,
	"internal/transport":    1873,
	"internal/vault":        270,
	"internal/vclock":       182,
	"internal/version":      165,
	"internal/wire":         1236,
	"internal/workload":     185,
}

// takesSpan reports whether a parameter of ft mentions obs.SpanContext.
func takesSpan(ft *ast.FuncType) bool {
	for _, p := range ft.Params.List {
		if selects(p.Type, "obs", "SpanContext") {
			return true
		}
	}
	return false
}

// selects reports whether n mentions pkg.sel.
func selects(n ast.Node, pkg, sel string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := s.X.(*ast.Ident); ok && id.Name == pkg && s.Sel.Name == sel {
				found = true
			}
		}
		return !found
	})
	return found
}
