package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// The fixture module in testdata/tree stands in for the repository, and
// testdata/*.nm for go tool nm's output on its command and on the facade
// program, so these tests build nothing.

func TestSymbolKey(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"hybridplaw/internal/hist.New", "hybridplaw/internal/hist.New"},
		{"hybridplaw/internal/spmat.(*Builder).Aggregates", "hybridplaw/internal/spmat.Builder.Aggregates"},
		{"hybridplaw/internal/spmat.Aggregates.String", "hybridplaw/internal/spmat.Aggregates.String"},
		{"hybridplaw/internal/boot.Run[go.shape.struct { Alpha float64; Mu [2]float64 }]", "hybridplaw/internal/boot.Run"},
		{"hybridplaw/internal/spmat.(*flatTable[go.shape.uint64]).add", "hybridplaw/internal/spmat.flatTable.add"},
		{"hybridplaw/internal/xrand.Shuffle[go.shape.struct { Src uint32; Dst uint32; Valid bool }]", "hybridplaw/internal/xrand.Shuffle"},
	} {
		if got := symbolKey(c.sym); got != c.want {
			t.Errorf("symbolKey(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

// fixture scans the fixture module and links its command's symbols, and
// the facade program's when roots is set.
func fixture(t *testing.T, roots bool) (*source, map[string]bool) {
	t.Helper()
	src, err := scan("testdata/tree")
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	nmFiles := map[string]string{"tool.nm": "fixture/cmd/tool"}
	if roots {
		nmFiles["roots.nm"] = "linksweep/roots"
	}
	for file, mainPath := range nmFiles {
		out, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		addSymbols(linked, out, mainPath)
	}
	return src, linked
}

func keys(ds []decl) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.key)
	}
	return out
}

// TestSweepReportsPlanted: of every declaration under internal/ and cmd/,
// only the planted one is unlinked. Generic instantiations, a method
// linked as T.M or only as its (*T).M wrapper, a method of a generic
// type and package main's functions all count as linked.
func TestSweepReportsPlanted(t *testing.T) {
	src, linked := fixture(t, true)
	got := unlinked(src.swept(), linked)
	if len(got) != 1 || got[0].key != "fixture/internal/a.Planted" {
		t.Fatalf("unlinked = %v, want only fixture/internal/a.Planted", keys(got))
	}
	if got[0].file != "internal/a/a.go" || got[0].line != 32 {
		t.Errorf("reported at %s:%d, want internal/a/a.go:32", got[0].file, got[0].line)
	}
}

// TestFacadeRoots: the generated program references the facade's
// exported, non-generic functions and nothing else, and a function that
// only the facade reaches is reported once its symbols are left out.
func TestFacadeRoots(t *testing.T) {
	src, linked := fixture(t, false)
	prog := string(src.facadeProgram())
	if !strings.Contains(prog, "\tfacade \"fixture\"\n") || !strings.Contains(prog, "\tfacade.Root,\n") {
		t.Errorf("facade program does not reference fixture.Root:\n%s", prog)
	}
	if strings.Count(prog, "\tfacade.") != 1 {
		t.Errorf("facade program roots more than Root:\n%s", prog)
	}
	got := keys(unlinked(src.swept(), linked))
	want := []string{"fixture/internal/a.FacadeOnly", "fixture/internal/a.Planted"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unlinked without the facade program = %v, want %v", got, want)
	}
}

// TestTestSupport: a package that only _test.go files import is test
// support, and so is one that only test support imports.
func TestTestSupport(t *testing.T) {
	src, _ := fixture(t, true)
	got := src.testSupport()
	want := map[string]bool{"fixture/internal/support": true, "fixture/internal/deep": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("test support = %v, want %v", got, want)
	}
	for _, d := range src.swept() {
		if strings.HasPrefix(d.key, "fixture/internal/support.") || strings.HasPrefix(d.key, "fixture/internal/deep.") {
			t.Errorf("test-support declaration %s swept", d.key)
		}
	}
}

// TestMains: the binaries are the main packages outside tools/.
func TestMains(t *testing.T) {
	src, _ := fixture(t, true)
	if got := src.mains(); !reflect.DeepEqual(got, []string{"cmd/tool"}) {
		t.Errorf("mains = %v, want [cmd/tool]", got)
	}
}
