// Command linksweep fails when a function or method declared in a non-test
// file under internal/ or cmd/ is linked into no binary:
//
//	go run ./tools/linksweep
//
// It builds every main package of the repository outside tools/ (the
// commands, the examples and the perfbench worker), and one generated
// program that references every exported function of the facade package at
// the module root, all with inlining off (-gcflags=all=-l) so that no call
// is inlined away. The union of their text symbols (go tool nm) is what the
// product links. Each declaration outside that union is printed as
// file:line, and the command exits 1.
//
// The facade's own exported functions are roots; the methods of types it
// re-exports by alias are not, so such a method counts only where a binary
// links it. A package that only _test.go files and other test-support
// packages import (internal/testenv) is test support, and its declarations
// are not swept. Both rules are read from the source, so there is no list
// to keep.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	missing, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "linksweep:", err)
		os.Exit(2)
	}
	if missing > 0 {
		os.Exit(1)
	}
}

// run sweeps the repository that holds the working directory and returns
// how many declarations no binary links.
func run() (int, error) {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return 0, fmt.Errorf("go env GOMOD: %w", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(gomod)))
	src, err := scan(root)
	if err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp("", "linksweep")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	linked := map[string]bool{}
	mains := src.mains()
	for i, dir := range mains {
		bin := filepath.Join(tmp, fmt.Sprint("bin", i))
		mod := src.moduleDir(dir)
		pkg, _ := filepath.Rel(mod, dir)
		if err := build(filepath.Join(root, mod), bin, "./"+filepath.ToSlash(pkg)); err != nil {
			return 0, err
		}
		if err := nm(linked, bin, src.importPath(dir)); err != nil {
			return 0, err
		}
	}
	facade := filepath.Join(tmp, "facade")
	if err := os.Mkdir(facade, 0o755); err != nil {
		return 0, err
	}
	mod := fmt.Sprintf("module linksweep/roots\n\ngo %s\n\nrequire %s v0.0.0\n\nreplace %s => %s\n",
		src.goVersion, src.module, src.module, root)
	if err := os.WriteFile(filepath.Join(facade, "go.mod"), []byte(mod), 0o644); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(facade, "main.go"), src.facadeProgram(), 0o644); err != nil {
		return 0, err
	}
	bin := filepath.Join(tmp, "facade-roots")
	if err := build(facade, bin, "."); err != nil {
		return 0, err
	}
	if err := nm(linked, bin, "linksweep/roots"); err != nil {
		return 0, err
	}

	decls := src.swept()
	missing := unlinked(decls, linked)
	for _, d := range missing {
		fmt.Printf("%s:%d: %s is linked by no binary\n", d.file, d.line, d.key)
	}
	if len(missing) > 0 {
		fmt.Printf("linksweep: %d of %d declarations under internal/ and cmd/ are linked by none of %d binaries\n",
			len(missing), len(decls), len(mains)+1)
	} else {
		fmt.Printf("linksweep: all %d declarations under internal/ and cmd/ are linked by one of %d binaries\n",
			len(decls), len(mains)+1)
	}
	return len(missing), nil
}

// build compiles the main package pkg of the module in dir with inlining off.
func build(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s in %s: %w", pkg, dir, err)
	}
	return nil
}

// nm adds the declaration keys of bin's text symbols to linked; the
// binary's own package main is named mainPath.
func nm(linked map[string]bool, bin, mainPath string) error {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return fmt.Errorf("go tool nm %s: %w", bin, err)
	}
	addSymbols(linked, out, mainPath)
	return nil
}

// addSymbols adds the declaration key of every text symbol (type T or t) in
// go tool nm's output to linked. A line is "address type name", and a name
// may hold spaces, so everything after the type is the name.
func addSymbols(linked map[string]bool, nmOut []byte, mainPath string) {
	sc := bufio.NewScanner(bytes.NewReader(nmOut))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			name := f[2]
			if rest, ok := strings.CutPrefix(name, "main."); ok {
				name = mainPath + "." + rest
			}
			linked[symbolKey(name)] = true
		}
	}
}

// symbolKey maps a symbol name to the key of the declaration it was
// compiled from. Type arguments, which may hold spaces and nested brackets,
// are dropped, and so are a pointer receiver's "(*" and ")":
// boot.Run[go.shape.struct { X []int }] becomes boot.Run, and
// spmat.(*Builder).Total becomes spmat.Builder.Total, the key of a
// value-receiver method too.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0:
		case r == '(' || r == '*' || r == ')':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// decl is a function or method declaration, keyed as symbolKey keys its
// symbol: import path, receiver type name (for a method) and name.
type decl struct {
	file string
	line int
	key  string
}

// unlinked returns the declarations whose keys are not in linked.
func unlinked(decls []decl, linked map[string]bool) []decl {
	var out []decl
	for _, d := range decls {
		if !linked[d.key] {
			out = append(out, d)
		}
	}
	return out
}

// goFile is one parsed Go source file of the repository.
type goFile struct {
	rel  string // slash path from the repository root
	dir  string // slash directory from the root, "." for the root
	test bool
	ast  *ast.File
}

// source is every Go file of the repository outside testdata and hidden
// directories, with the main module's path and go version and the
// directories that hold a go.mod.
type source struct {
	fset      *token.FileSet
	module    string
	goVersion string
	files     []goFile
	modules   map[string]bool
}

// scan parses every Go file under root.
func scan(root string) (*source, error) {
	s := &source{fset: token.NewFileSet(), modules: map[string]bool{}}
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		name := e.Name()
		if e.IsDir() {
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name == "go.mod" {
			s.modules[path.Dir(rel)] = true
			if rel == "go.mod" {
				return s.readGoMod(p)
			}
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(s.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.files = append(s.files, goFile{rel: rel, dir: path.Dir(rel), test: strings.HasSuffix(name, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	return s, nil
}

// readGoMod reads the module path and go version of the root's go.mod.
func (s *source) readGoMod(p string) error {
	b, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "module" {
			s.module = f[1]
		}
		if len(f) == 2 && f[0] == "go" {
			s.goVersion = f[1]
		}
	}
	return nil
}

// importPath is the import path of the package in dir. A nested module's
// go.mod names its path after the root's (perfbench is module/perfbench).
func (s *source) importPath(dir string) string {
	if dir == "." {
		return s.module
	}
	return s.module + "/" + dir
}

// moduleDir is the directory of the module that holds dir: the nearest
// directory at or above it with a go.mod.
func (s *source) moduleDir(dir string) string {
	for !s.modules[dir] && dir != "." {
		dir = path.Dir(dir)
	}
	return dir
}

// mains lists the directories of the main packages outside tools/.
func (s *source) mains() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range s.files {
		if !f.test && f.ast.Name.Name == "main" && !seen[f.dir] && !under(f.dir, "tools") {
			seen[f.dir] = true
			out = append(out, f.dir)
		}
	}
	sort.Strings(out)
	return out
}

// testSupport returns the module's packages that only _test.go files and
// test-support packages import.
func (s *source) testSupport() map[string]bool {
	support := map[string]bool{}
	for grew := true; grew; {
		grew = false
		byTest, byProduct := map[string]bool{}, map[string]bool{}
		for _, f := range s.files {
			for _, spec := range f.ast.Imports {
				imp := strings.Trim(spec.Path.Value, `"`)
				if f.test || support[s.importPath(f.dir)] {
					byTest[imp] = true
				} else {
					byProduct[imp] = true
				}
			}
		}
		for p := range byTest {
			if strings.HasPrefix(p, s.module+"/") && !byProduct[p] && !support[p] {
				support[p] = true
				grew = true
			}
		}
	}
	return support
}

// swept returns the function and method declarations of the non-test files
// under internal/ and cmd/, less those of test-support packages, in file
// order.
func (s *source) swept() []decl {
	support := s.testSupport()
	var out []decl
	for _, f := range s.files {
		pkg := s.importPath(f.dir)
		if f.test || support[pkg] || !(under(f.dir, "internal") || under(f.dir, "cmd")) {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := pkg + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			pos := s.fset.Position(fn.Pos())
			out = append(out, decl{file: f.rel, line: pos.Line, key: key + fn.Name.Name})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// recvName is the type name of a receiver: T for T, *T, T[K] and *T[K].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// facadeProgram is a main package that references every exported function
// of the facade (the module root's package) and so links each of them. A
// generic function cannot be referenced without type arguments, so it is
// not a root.
func (s *source) facadeProgram() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "package main\n\nimport (\n\t\"fmt\"\n\n\tfacade %q\n)\n\nvar roots = []any{\n", s.module)
	for _, f := range s.files {
		if f.dir != "." || f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && fn.Type.TypeParams == nil {
				fmt.Fprintf(&b, "\tfacade.%s,\n", fn.Name.Name)
			}
		}
	}
	b.WriteString("}\n\nfunc main() { fmt.Println(len(roots)) }\n")
	return b.Bytes()
}

// under reports whether the slash directory dir is top or lies below it.
func under(dir, top string) bool {
	return dir == top || strings.HasPrefix(dir, top+"/")
}
