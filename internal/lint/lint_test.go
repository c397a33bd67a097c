package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests: the stdlib and module
// packages the fixtures import only need to be type-checked once.
var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loaderErr = err
			return
		}
		testLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return testLoader
}

// runFixture analyzes testdata/src/<name> and diffs the findings
// against the fixture's "// want `regex` [`regex` ...]" comments: every
// finding must match a want on its line, every want must be hit.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	l := fixtureLoader(t)
	dir := filepath.Join(l.Root, "internal", "lint", "testdata", "src", name)
	pkg, err := l.LoadDir(dir, "dpml/internal/lint/testdata/src/"+name)
	if err != nil {
		t.Fatal(err)
	}
	findings := RunModule([]*Package{pkg}, l.Loaded(), analyzers)
	wants := parseWants(t, pkg)

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		text := f.Analyzer + ": " + f.Message
		matched := false
		for _, w := range wants[key] {
			if !w.hit && w.re.MatchString(text) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: no finding matched want `%s`", key, w.re)
			}
		}
	}
}

type want struct {
	re  *regexp.Regexp
	hit bool
}

var wantRE = regexp.MustCompile("`([^`]+)`")

// parseWants scans the raw fixture sources for want comments; the
// expectations are backtick-quoted regexes matched (unanchored) against
// "analyzer: message".
func parseWants(t *testing.T, pkg *Package) map[string][]*want {
	t.Helper()
	out := map[string][]*want{}
	for file, src := range pkg.Src {
		for i, line := range strings.Split(string(src), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			ms := wantRE.FindAllStringSubmatch(line[idx:], -1)
			if len(ms) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no backtick-quoted regex)", file, i+1)
			}
			key := fmt.Sprintf("%s:%d", file, i+1)
			for _, m := range ms {
				out[key] = append(out[key], &want{re: regexp.MustCompile(m[1])})
			}
		}
	}
	return out
}

func one(t *testing.T, name string) []*Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return []*Analyzer{a}
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

func TestWalltimeFixture(t *testing.T)   { runFixture(t, "walltime", one(t, "walltime")) }
func TestGlobalrandFixture(t *testing.T) { runFixture(t, "globalrand", one(t, "globalrand")) }
func TestMaprangeFixture(t *testing.T)   { runFixture(t, "maprange", one(t, "maprange")) }
func TestSpanpairFixture(t *testing.T)   { runFixture(t, "spanpair", one(t, "spanpair")) }
func TestWaitcheckFixture(t *testing.T)  { runFixture(t, "waitcheck", one(t, "waitcheck")) }
func TestFloateqFixture(t *testing.T)    { runFixture(t, "floateq", one(t, "floateq")) }
func TestPrioFixture(t *testing.T)       { runFixture(t, "prio", one(t, "prio")) }

// The module-analyzer fixtures exercise the interprocedural passes;
// runFixture hands them the loader's full package closure so chains
// through the fixtures' helper subpackages are followed.
func TestLpownFixture(t *testing.T)    { runFixture(t, "lpown", one(t, "lpown")) }
func TestSendpathFixture(t *testing.T) { runFixture(t, "sendpath", one(t, "sendpath")) }

// The suppress fixture runs with floateq active: used allowances silence
// their findings, and unused/unknown/reason-less allowances surface as
// "suppress" findings alongside the uncovered floateq one.
func TestSuppressFixture(t *testing.T) { runFixture(t, "suppress", one(t, "floateq")) }
