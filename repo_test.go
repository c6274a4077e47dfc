package turbobp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// This file holds the checks that look at the repository rather than at the
// DB: the documentation audit and the benchmark module's own tests.

// TestBenchModule runs the benchmark module's tests — its load generator,
// its manifest and a -quick smoke of the real benchmark command — under the
// file size limit the benchmark runs under (`ulimit -f 16384`, 16 MiB).
// bench/ is its own module, so `go test ./...` here never reaches it: a
// facade change that breaks the benchmark, or a file that outgrows the
// limit, fails here. The limit is set through bash, which counts `ulimit -f`
// in 1024-byte blocks; a POSIX sh such as dash counts 512-byte ones and
// would set 8 MiB.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bench module's tests; skipped in -short")
	}
	cmd := exec.Command("bash", "-c", "ulimit -f 16384 && go test ./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench module tests: %v\n%s", err, out)
	}
}

// TestDocComments is the repository's documentation audit. Every package of
// this module (library, internal, command and example alike) carries a doc
// comment on its package clause in at least one non-test file. The public
// access methods (btree, heapfile), the policy layer and the one verified
// load generator (internal/loadbench), the log (internal/wal), the
// devices (internal/device) and the simulation kernel (internal/sim) hold
// a stricter bar:
// every exported top-level declaration outside a grouped block, and every
// method with an exported name, carries a doc comment of its own.
func TestDocComments(t *testing.T) {
	strict := map[string]bool{"btree": true, "heapfile": true,
		filepath.Join("internal", "policy"): true, filepath.Join("internal", "loadbench"): true,
		filepath.Join("internal", "wal"): true, filepath.Join("internal", "device"): true,
		filepath.Join("internal", "sim"): true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // another module (bench/)
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		sources, documented := 0, false
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			sources++
			documented = documented || f.Doc != nil
			if strict[dir] {
				for _, name := range undocumentedExports(f) {
					t.Errorf("undocumented exported identifier: %s: %s", path, name)
				}
			}
		}
		if sources > 0 && !documented {
			t.Errorf("missing package doc comment: %s", dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// undocumentedExports lists f's exported functions and methods, and its
// exported ungrouped type, var and const declarations, that lack a doc
// comment.
func undocumentedExports(f *ast.File) []string {
	var missing []string
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Name.IsExported() && decl.Doc == nil {
				missing = append(missing, "func "+decl.Name.Name)
			}
		case *ast.GenDecl:
			if decl.Lparen.IsValid() || decl.Doc != nil || len(decl.Specs) != 1 {
				continue
			}
			switch spec := decl.Specs[0].(type) {
			case *ast.TypeSpec:
				if spec.Name.IsExported() {
					missing = append(missing, "type "+spec.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range spec.Names {
					if n.IsExported() {
						missing = append(missing, decl.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return missing
}
