package repro

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/transfer"
)

// TestDocKnobsExist is the knob drift guard: every `Config.<Field>` and
// `Transfer.<Field>` / `Tunables.<Field>` token README.md, DESIGN.md and
// EXPERIMENTS.md quote must name a real field of core.Config or
// transfer.Tunables, so a knob cannot be deleted or renamed while the docs
// keep advertising it.
func TestDocKnobsExist(t *testing.T) {
	owners := map[string]reflect.Type{
		"Config":   reflect.TypeOf(core.Config{}),
		"Transfer": reflect.TypeOf(transfer.Tunables{}),
		"Tunables": reflect.TypeOf(transfer.Tunables{}),
	}
	token := regexp.MustCompile("`(Config|Transfer|Tunables)\\.([A-Z][A-Za-z0-9]*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, m := range token.FindAllSubmatch(text, -1) {
			found++
			owner, field := string(m[1]), string(m[2])
			if _, ok := owners[owner].FieldByName(field); !ok {
				t.Errorf("%s documents `%s.%s`, but %v has no such field", doc, owner, field, owners[owner])
			}
		}
		if found == 0 {
			t.Errorf("%s: no knob tokens matched — did the docs change notation?", doc)
		}
	}
}

// TestDocChunkerDefault: the algorithm README.md and DESIGN.md call the
// default — in the library example's Chunking.Algorithm comment, the package
// table line and §7's "Chunker selection" — is the one a zero chunker.Config
// builds, so the default cannot flip (either way) while the docs, and the
// upgrade note that goes with them, say otherwise.
func TestDocChunkerDefault(t *testing.T) {
	ch, err := chunker.New(chunker.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := string(ch.Config().Algorithm)
	claims := map[string][]*regexp.Regexp{
		"README.md": {
			regexp.MustCompile("Chunking\\.Algorithm: \"([a-z]+)\" \\(default"),
			regexp.MustCompile("(?i)chunker/ +content-defined chunking: ([a-z]+) \\(default\\)"),
		},
		"DESIGN.md": {
			regexp.MustCompile("`chunker\\.Config\\.Algorithm` picks the cut-point\\s+rule: `([a-z]+)` \\(default\\)"),
		},
	}
	for doc, res := range claims {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range res {
			m := re.FindSubmatch(text)
			if m == nil {
				t.Errorf("%s: no default-chunker claim matching %s — did the docs change notation?", doc, re)
			} else if got := strings.ToLower(string(m[1])); got != want {
				t.Errorf("%s documents %q as the default chunker, chunker.New(chunker.Config{}) builds %q", doc, got, want)
			}
		}
	}
}

// TestCoreOneDataPath is the duplication guard for internal/core's data
// path (datapath.go, DESIGN.md §5.1): non-test code in the package may build
// a transfer.Attempt, call the erasure encoder, and call the correcting
// decoder in exactly one place each, so a second hand-rolled provider call,
// encode-then-upload copy or k-of-n reader cannot grow back beside it.
func TestCoreOneDataPath(t *testing.T) {
	sites := map[string]*regexp.Regexp{
		"transfer.Attempt{ construction": regexp.MustCompile(`transfer\.Attempt\{`),
		"erasure Encode/EncodeTo call":   regexp.MustCompile(`\.EncodeTo\(|oder\.Encode\(`),
		"DecodeCorrecting call":          regexp.MustCompile(`DecodeCorrecting\(`),
	}
	found := coreCallSites(t, sites)
	for what := range sites {
		if len(found[what]) != 1 {
			t.Errorf("internal/core has %d %s sites, want exactly 1 (in datapath.go): %v", len(found[what]), what, found[what])
		}
	}
}

// coreCallSites scans internal/core's non-test, non-comment source lines and
// returns, per pattern, the file:line of every match.
func coreCallSites(t *testing.T, sites map[string]*regexp.Regexp) map[string][]string {
	t.Helper()
	files, err := filepath.Glob("internal/core/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no internal/core sources found: %v", err)
	}
	found := make(map[string][]string)
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//") {
				continue
			}
			for what, re := range sites {
				for range re.FindAllString(line, -1) {
					found[what] = append(found[what], file+":"+strconv.Itoa(i+1))
				}
			}
		}
	}
	return found
}

// TestCoreOneVersionPlane is the duplication guard for internal/core's
// version plane (version.go, DESIGN.md §5.2): a record is published, a
// version is checked against its name, and a version's bytes are fetched in
// exactly one place each (publish, resolve, read), and the best-effort sync
// has resolve plus the full-sync callers (List, Conflicts, GC) as its only
// gates — so a second publish tail, a sixth Get body or another cache gate
// cannot grow back beside them. The record-LRU's byte knob stays deleted.
func TestCoreOneVersionPlane(t *testing.T) {
	once := map[string]*regexp.Regexp{
		"c.uploadMeta( call":     regexp.MustCompile(`c\.uploadMeta\(`),
		"\"belongs to\" message": regexp.MustCompile(`belongs to`),
		"c.fetchTo( call":        regexp.MustCompile(`c\.fetchTo\(`),
	}
	const syncs = "c.syncBestEffort( call"
	sites := map[string]*regexp.Regexp{syncs: regexp.MustCompile(`c\.syncBestEffort\(`)}
	for what, re := range once {
		sites[what] = re
	}
	found := coreCallSites(t, sites)
	for what := range once {
		if got := found[what]; len(got) != 1 || !strings.HasPrefix(got[0], "internal/core/version.go:") {
			t.Errorf("internal/core has %d %s sites, want exactly 1 (in version.go): %v", len(got), what, got)
		}
	}
	if got := found[syncs]; len(got) > 5 {
		t.Errorf("internal/core has %d %s sites, want at most 5: %v", len(got), syncs, got)
	}

	gone := "MetaCache" + "Bytes"
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".go"), path == "README.md", path == "DESIGN.md", path == "EXPERIMENTS.md":
		default:
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(text), gone) {
			t.Errorf("%s still mentions %s", path, gone)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
