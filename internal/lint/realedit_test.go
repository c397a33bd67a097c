package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// realEdit is one row of the real-edit table: a small edit to a real
// module package that exactly one analyzer must catch. Each edit
// replaces old with new, and old must occur exactly once in file, so a
// refactor that moves the code fails the row loudly instead of turning
// it into a no-op.
type realEdit struct {
	analyzer string
	pkg      string // module-relative package directory
	file     string
	edits    [][2]string // old, new
	want     []string    // substrings the finding message must carry
}

var realEdits = []realEdit{
	{analyzer: "walltime", pkg: "internal/sim", file: "kernel.go", edits: [][2]string{
		{"\t\"strings\"\n)", "\t\"strings\"\n\t\"time\"\n)"},
		{"\tk.push(t, k.nextPrio(k.curLP), k.curLP, fn)", "\t_ = time.Now()\n\tk.push(t, k.nextPrio(k.curLP), k.curLP, fn)"},
	}},
	{analyzer: "globalrand", pkg: "internal/faults", file: "faults.go", edits: [][2]string{
		{"\t\"math\"\n", "\t\"math\"\n\t\"math/rand\"\n"},
		{"return int(r.next() % uint64(n))", "return rand.Intn(n)"},
	}},
	{analyzer: "maprange", pkg: "internal/trace", file: "span.go", edits: [][2]string{
		{"\tsort.Slice(out, func(i, j int) bool { return phaseLess(out[i].Phase, out[j].Phase) })",
			"\tsorted := append([]PhaseStat(nil), out...)\n\tsort.Slice(sorted, func(i, j int) bool { return phaseLess(sorted[i].Phase, sorted[j].Phase) })"},
	}},
	{analyzer: "waitcheck", pkg: "internal/mpi", file: "p2p.go", edits: [][2]string{
		{"\tr.Wait(r.Isend(c, dst, tag, vec))\n", "\tr.Isend(c, dst, tag, vec)\n"},
	}},
	{analyzer: "floateq", pkg: "internal/fabric", file: "flow.go", edits: [][2]string{
		{"if capacity == l.capacity { //dpml:allow floateq -- no-op guard: any real change re-waterfills\n",
			"if capacity == l.capacity {\n"},
	}},
	{analyzer: "prio", pkg: "internal/sim", file: "kernel.go", edits: [][2]string{
		{"\tk.push(t, k.nextPrio(k.curLP), k.curLP, fn)", "\tk.push(t, k.nextPrio(k.curLP)^1, k.curLP, fn)"},
	}},
	{analyzer: "sendpath", pkg: "internal/fabric", file: "network.go", edits: [][2]string{
		{"n.k.AfterOn(t.dst.node, wire, t.onArrive)", "t.dst.k.After(wire, t.onArrive)"},
	}},
	// lpown must name the whole chain, from the LP registration that
	// fixes the context to the wrong-class access.
	{analyzer: "lpown", pkg: "internal/fabric", file: "network.go", edits: [][2]string{
		{"\tdd := n.hcaAt(dst.node, dst.hca)\n", "\tdd := n.hcaAt(dst.node, dst.hca)\n\tsu.injections++\n"},
	}, want: []string{"field fabric.hca.injections is node-owned", "(registered on the net LP via AfterNet) → fabric.*Network.launch"}},
}

// TestRealEdits is the standing proof that every analyzer earns its
// lines: each row applies its edit to a temp copy of a real package,
// loads the copy under the package's real import path, and runs the
// whole suite. The row passes when there is at least one finding and
// every finding comes from the row's analyzer.
func TestRealEdits(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range realEdits {
		covered[row.analyzer] = true
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no row in the real-edit table", a.Name)
		}
	}
	for _, row := range realEdits {
		t.Run(row.analyzer, func(t *testing.T) {
			l := realEditLoader(t)
			dir := editedCopy(t, filepath.Join(l.Root, filepath.FromSlash(row.pkg)), row.file, row.edits)
			pkg, err := l.LoadDir(dir, l.ModPath+"/"+row.pkg)
			if err != nil {
				t.Fatal(err)
			}
			fs := RunModule([]*Package{pkg}, l.Loaded(), Analyzers())
			if len(fs) == 0 {
				t.Fatalf("edit to %s/%s produced no finding", row.pkg, row.file)
			}
			for _, f := range fs {
				if f.Analyzer != row.analyzer {
					t.Errorf("finding from %s, want only %s: %s", f.Analyzer, row.analyzer, f)
				}
				for _, part := range row.want {
					if !strings.Contains(f.Message, part) {
						t.Errorf("finding lacks %q: %s", part, f.Message)
					}
				}
			}
		})
	}
}

// realEditLoader returns an empty loader over the module that shares the
// fixture loader's FileSet and standard-library importer, so each row
// type-checks only module packages afresh.
func realEditLoader(t *testing.T) *Loader {
	t.Helper()
	base := fixtureLoader(t)
	return &Loader{
		Root: base.Root, ModPath: base.ModPath, Fset: base.Fset, std: base.std,
		pkgs: map[string]*Package{}, loading: map[string]bool{},
	}
}

// editedCopy copies the Go files of src into a temp directory and
// applies edits to file there.
func editedCopy(t *testing.T, src, file string, edits [][2]string) string {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == file {
			s := string(b)
			for _, ed := range edits {
				if n := strings.Count(s, ed[0]); n != 1 {
					t.Fatalf("%s: edit target occurs %d times, want 1: %q", file, n, ed[0])
				}
				s = strings.Replace(s, ed[0], ed[1], 1)
			}
			b = []byte(s)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
