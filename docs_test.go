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
	"repro/internal/lifecycle"
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

// TestKnobBudget is the budget guard that keeps knobs from growing back. A
// setting no caller moves off its default is a constant, not a field, and an
// inspection hook no other package calls is unexported.
func TestKnobBudget(t *testing.T) {
	budgets := []struct {
		what     string
		got, max int
	}{
		// Raise a limit only together with two non-test callers that need
		// different values of the new field (or both call the new method),
		// named in the change that adds it.
		{"core.Config fields", reflect.TypeOf(core.Config{}).NumField(), 21},
		{"lifecycle.Config fields", reflect.TypeOf(lifecycle.Config{}).NumField(), 4},
		{"transfer.Tunables fields", reflect.TypeOf(transfer.Tunables{}).NumField(), 3},
		{"exported *core.Client methods", reflect.TypeOf(&core.Client{}).NumMethod(), 33},
	}
	for _, b := range budgets {
		t.Logf("%s = %d (budget %d)", b.what, b.got, b.max)
		if b.got > b.max {
			t.Errorf("%s = %d, budget %d", b.what, b.got, b.max)
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
// encode-then-upload copy or k-of-n reader cannot grow back beside it. Object
// names are built in one file, names.go (core.Names), so a second
// CAS-vs-keyed dispatch or key-hash derivation cannot grow back either: the
// keyed share prefix, the CAS name builder, the ".s<index>" share-name
// format (as a fmt verb or a concatenation) and the key hash appear nowhere
// else.
func TestCoreOneDataPath(t *testing.T) {
	const naming = "object-name construction"
	sites := map[string]*regexp.Regexp{
		"transfer.Attempt{ construction": regexp.MustCompile(`transfer\.Attempt\{`),
		"erasure Encode/EncodeTo call":   regexp.MustCompile(`\.EncodeTo\(|oder\.Encode\(`),
		"DecodeCorrecting call":          regexp.MustCompile(`DecodeCorrecting\(`),
		naming:                           regexp.MustCompile(`SharePrefix \+|casShareName\(|\.s%d|"\.s" \+|keyHash`),
	}
	found := coreCallSites(t, sites)
	for what := range sites {
		if what == naming {
			continue
		}
		if len(found[what]) != 1 {
			t.Errorf("internal/core has %d %s sites, want exactly 1 (in datapath.go): %v", len(found[what]), what, found[what])
		}
	}
	files := map[string]bool{}
	for _, site := range found[naming] {
		files[site[:strings.LastIndexByte(site, ':')]] = true
	}
	if len(files) != 1 || !files["internal/core/names.go"] {
		t.Errorf("internal/core has %s sites in %d files, want names.go only: %v", naming, len(files), found[naming])
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
// gates — so a second publish tail, a fifth Get body or another cache gate
// cannot grow back beside them. The record-LRU's byte knob stays deleted, and
// so do the knobs that became constants, the observer-side load plumbing (the
// engine reads its load from its own semaphore), the selector's LP stage
// with its simplex package, the observer's scoreboard (the client keeps
// its own link model), and the second and third records of a provider try
// (the event bus with its Subscribe, the per-try span, the finished-span
// ring with /debug/spans) and the on-demand shard gauge: no source file or
// doc names one with its owner, or bare where the name means nothing else in
// the tree.
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

	gone := []*regexp.Regexp{
		regexp.MustCompile(`\b(MetaCacheBytes|CodecWorkers|PipelineDepth|BaseBackoff|HedgeLoadThreshold|HedgeMinSamples)\b`),
		regexp.MustCompile(`\b(LoadStats|CurrentLoad|QueueDepthNow|LoadConfig|LoadVector|LoadAware|SpanRing|DumpDir)\b`),
		regexp.MustCompile(`\b(Config|Transfer|Tunables)\.(ClientBps|FailureProb|PerCSP|Attempts|MaxBackoff)\b`),
		regexp.MustCompile(`\b(MaxLPCells|RelaxRounds|solveRelaxation)\b`),
		regexp.MustCompile(`internal/lp\b`),
		regexp.MustCompile(`\b(Scoreboard|NewScoreboard|CSPHealth|SetBandwidth)\b`),
		regexp.MustCompile(`\.Health\(\)`),
		regexp.MustCompile(`\b(eventBus|EvShareGet|EvSyncError|TransferEvent|RecentSpans|SpansHandler|MetaShardRecords)\b`),
		regexp.MustCompile(`\.Subscribe\(`),
		regexp.MustCompile(`/debug/spans`),
		regexp.MustCompile(`\b(ObjectClass|ShareObjectName|MetaShareObjectName)\b`),
		regexp.MustCompile(`\.(GetVersion|Params|Policy)\(`),
	}
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
		case path == "docs_test.go": // the list above
			return nil
		case strings.HasSuffix(path, ".go"), path == "README.md", path == "DESIGN.md", path == "EXPERIMENTS.md":
		default:
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, re := range gone {
			if m := re.Find(text); m != nil {
				t.Errorf("%s still mentions %s", path, m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocMetricsRegistered is the metric drift guard: every Metric* constant
// in internal/obs/registry.go has a README.md table row under its full name,
// and every cyrus_* name README.md, DESIGN.md and EXPERIMENTS.md quote is a
// registered constant. Brace lists expand (`cyrus_codec_{encode,decode}_…`),
// a trailing label set is dropped (`cyrus_transfer_inflight{csp}`), and a
// prefix form (`cyrus_hedge_*`) must prefix at least one constant.
func TestDocMetricsRegistered(t *testing.T) {
	src, err := os.ReadFile("internal/obs/registry.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s+Metric\w+\s+=\s+"(cyrus_\w+)"`).FindAllSubmatch(src, -1) {
		registered[string(m[1])] = true
	}
	if len(registered) == 0 {
		t.Fatal("no Metric* constants found in internal/obs/registry.go")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range registered {
		if !strings.Contains(string(readme), "| `"+name+"` |") {
			t.Errorf("README.md has no metric table row for %s", name)
		}
	}

	token := regexp.MustCompile(`cyrus_[a-z0-9_]*(?:\{[a-z0-9_,]+\}[a-z0-9_]*)*\*?`)
	labels := regexp.MustCompile(`([a-z0-9}])\{[a-z0-9_,]+\}$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range token.FindAllString(string(text), -1) {
			for _, name := range expandBraces(labels.ReplaceAllString(tok, "$1")) {
				if prefix, ok := strings.CutSuffix(name, "*"); ok {
					if !anyHasPrefix(registered, prefix) {
						t.Errorf("%s quotes %s (from %q), which prefixes no registered metric", doc, name, tok)
					}
				} else if !registered[name] {
					t.Errorf("%s quotes %s (from %q), which is not a registered metric", doc, name, tok)
				}
			}
		}
	}
}

var braceList = regexp.MustCompile(`\{([a-z0-9_,]+)\}`)

// expandBraces turns each {a,b} list in a quoted metric name into one name
// per alternative.
func expandBraces(name string) []string {
	loc := braceList.FindStringSubmatchIndex(name)
	if loc == nil {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(name[:loc[0]]+alt+name[loc[1]:])...)
	}
	return out
}

func anyHasPrefix(set map[string]bool, prefix string) bool {
	for name := range set {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
