package godcdo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
//   - internal/rpc imports none of core, replica or manager, and
//     internal/dfm does not import internal/rpc: the call path does not
//     reach up into the runtime that serves over it, and the DFM stays a
//     local indirection;
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
//     one failure table.
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
		"internal/rpc": {"godcdo/internal/core", "godcdo/internal/replica", "godcdo/internal/manager"},
		"internal/dfm": {"godcdo/internal/rpc"},
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
		"internal/rpc/method.go", "internal/rpc/read.go"}
	classifies := func(pkg, sel string) bool {
		return pkg == "transport" && (sel == "Classify" || strings.HasPrefix(sel, "Retry")) ||
			pkg == "wire" && strings.HasPrefix(sel, "Code")
	}
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
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
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
			case *ast.FuncDecl:
				if n.Body != nil && selects(n.Body, "wire", "DecodeBatchRunPooled") && !selects(n.Body, "wire", "PutBatchRun") {
					t.Errorf("%s: %s decodes a pooled batch run and never releases it with wire.PutBatchRun", fset.Position(n.Pos()), n.Name.Name)
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
