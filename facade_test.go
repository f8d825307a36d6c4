package hybridplaw

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeSurface pins what the façade holds: every ```go block of
// README.md is, de-indented, the body of an Example in example_test.go,
// and every exported function of hybridplaw.go is called by a program
// under cmd/ or examples/ or by an Example. A function nothing calls is
// deleted, not kept for a hypothetical user.
func TestFacadeSurface(t *testing.T) {
	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "example_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]bool{}
	named := map[string]bool{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fn.Name.Name, "Example") {
			continue
		}
		lo, hi := fset.Position(fn.Body.Lbrace).Offset+1, fset.Position(fn.Body.Rbrace).Offset
		bodies[dedent(string(src[lo:hi]))] = true
		addFacadeRefs(named, f, fn.Body)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := goBlocks(string(readme))
	if len(blocks) == 0 {
		t.Fatal("README.md has no ```go block")
	}
	for _, b := range blocks {
		if !bodies[b.text] {
			t.Errorf("README.md:%d: ```go block is not the body of an Example in example_test.go", b.line)
		}
	}

	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			pf, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			addFacadeRefs(named, pf, pf)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	facade, err := parser.ParseFile(token.NewFileSet(), "hybridplaw.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var unnamed []string
	for _, d := range facade.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && !named[fn.Name.Name] {
			unnamed = append(unnamed, fn.Name.Name)
		}
	}
	sort.Strings(unnamed)
	for _, name := range unnamed {
		t.Errorf("hybridplaw.go: %s is called by no program under cmd/ or examples/ and by no Example", name)
	}
}

// addFacadeRefs records every hybridplaw.X selector under n, where f
// is the file that holds n (it names the façade's import).
func addFacadeRefs(named map[string]bool, f *ast.File, n ast.Node) {
	pkg := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "hybridplaw" {
			pkg = "hybridplaw"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				named[sel.Sel.Name] = true
			}
		}
		return true
	})
}

// mdBlock is one fenced code block of a Markdown file and the line of
// its opening fence.
type mdBlock struct {
	line int
	text string
}

// goBlocks returns the ```go blocks of a Markdown file in order.
func goBlocks(md string) []mdBlock {
	var blocks []mdBlock
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i
		var body []string
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
			body = append(body, lines[i])
		}
		blocks = append(blocks, mdBlock{start + 1, strings.Join(body, "\n")})
	}
	return blocks
}

// dedent strips the blank lines around a function body and one tab of
// indentation from each of its lines.
func dedent(body string) string {
	lines := strings.Split(strings.Trim(body, "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(l, "\t")
	}
	return strings.Join(lines, "\n")
}
