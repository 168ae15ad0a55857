package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/cyrus"
)

// ctl drives the CLI entry point directly.
func ctl(t *testing.T, cfg string, args ...string) error {
	t.Helper()
	return run(append([]string{"-config", cfg}, args...))
}

func mustCtl(t *testing.T, cfg string, args ...string) {
	t.Helper()
	if err := ctl(t, cfg, args...); err != nil {
		t.Fatalf("cyrusctl %v: %v", args, err)
	}
}

// ctlStdout drives the CLI entry point and returns what it printed to
// stdout.
func ctlStdout(t *testing.T, cfg string, args ...string) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := ctl(t, cfg, args...)
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatalf("cyrusctl %v: %v", args, runErr)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// setup initializes a 3-provider cloud in a temp dir and returns the
// config path and working dir.
func setup(t *testing.T) (cfg, dir string) {
	t.Helper()
	dir = t.TempDir()
	cfg = filepath.Join(dir, "cloud.json")
	for _, p := range []string{"a", "b", "c"} {
		if err := os.MkdirAll(filepath.Join(dir, p), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	mustCtl(t, cfg, "init", "-t", "2", "-n", "3",
		"-csp", "a="+filepath.Join(dir, "a"),
		"-csp", "b="+filepath.Join(dir, "b"),
		"-csp", "c="+filepath.Join(dir, "c"))
	return cfg, dir
}

func TestCLILifecycle(t *testing.T) {
	cfg, dir := setup(t)

	src := filepath.Join(dir, "hello.txt")
	if err := os.WriteFile(src, []byte("hello from the CLI test"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustCtl(t, cfg, "put", src)
	mustCtl(t, cfg, "ls")
	out := filepath.Join(dir, "out.txt")
	mustCtl(t, cfg, "get", "-o", out, "hello.txt")
	got, err := os.ReadFile(out)
	if err != nil || string(got) != "hello from the CLI test" {
		t.Fatalf("get round trip: %q, %v", got, err)
	}
	mustCtl(t, cfg, "history", "hello.txt")
	mustCtl(t, cfg, "conflicts")
	mustCtl(t, cfg, "gc")
	mustCtl(t, cfg, "probe")
	mustCtl(t, cfg, "recover")
	mustCtl(t, cfg, "rm", "hello.txt")
	if err := ctl(t, cfg, "get", "-o", out, "hello.txt"); err == nil {
		t.Fatal("get after rm succeeded")
	}
}

// TestCLIIgnoresRetentionKey: config files written by an older init
// -retention carry a "tree_retention" key. Such a file still opens, and the
// value is ignored: every version stays listed and readable.
func TestCLIIgnoresRetentionKey(t *testing.T) {
	cfg, dir := setup(t)
	raw, err := os.ReadFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["tree_retention"] = 2
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	src := filepath.Join(dir, "doc.txt")
	for _, body := range []string{"first version", "second version"} {
		if err := os.WriteFile(src, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		mustCtl(t, cfg, "put", src)
	}
	mustCtl(t, cfg, "rm", "doc.txt")
	mustCtl(t, cfg, "gc")
	lines := strings.Split(strings.TrimSpace(string(ctlStdout(t, cfg, "history", "doc.txt"))), "\n")
	if len(lines) != 3 {
		t.Fatalf("history after gc:\n%s", strings.Join(lines, "\n"))
	}
	oldest := strings.Fields(lines[2])[0]
	out := filepath.Join(dir, "out.txt")
	mustCtl(t, cfg, "get", "-version", oldest, "-o", out, "doc.txt")
	if got, err := os.ReadFile(out); err != nil || string(got) != "first version" {
		t.Fatalf("oldest version: %q, %v", got, err)
	}
}

func TestCLISyncCommand(t *testing.T) {
	cfg, dir := setup(t)
	folder := filepath.Join(dir, "synced")
	if err := os.MkdirAll(folder, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(folder, "note.md"), []byte("local note"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustCtl(t, cfg, "sync", folder)

	// A second folder (another "device" sharing the same config/accounts)
	// pulls the file down.
	folder2 := filepath.Join(dir, "synced2")
	if err := os.MkdirAll(folder2, 0o755); err != nil {
		t.Fatal(err)
	}
	mustCtl(t, cfg, "sync", folder2)
	got, err := os.ReadFile(filepath.Join(folder2, "note.md"))
	if err != nil || string(got) != "local note" {
		t.Fatalf("synced copy: %q, %v", got, err)
	}
}

func TestCLIImportAndCSPLifecycle(t *testing.T) {
	cfg, dir := setup(t)
	// Drop a raw object into provider "a" the way a legacy app would —
	// via a DirStore path (the CLI encodes names with the f- prefix).
	legacy := filepath.Join(dir, "a", "f-legacy.bin")
	if err := os.WriteFile(legacy, []byte("pre-cyrus data"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustCtl(t, cfg, "import", "a", "legacy.bin", "imported/legacy.bin")
	out := filepath.Join(dir, "got.bin")
	mustCtl(t, cfg, "get", "-o", out, "imported/legacy.bin")
	got, _ := os.ReadFile(out)
	if string(got) != "pre-cyrus data" {
		t.Fatalf("imported content %q", got)
	}

	mustCtl(t, cfg, "rmcsp", "c")
	mustCtl(t, cfg, "reinstate", "c")
	if err := ctl(t, cfg, "rmcsp", "nope"); err == nil {
		t.Fatal("rmcsp unknown provider succeeded")
	}
}

// TestCLIClasses: `classes -json` reports the (t, n) each class's new chunks
// are stored at. A named class with N 0 never takes the client's N: it
// derives n from its own Epsilon, or the client's, over its CSP pool — (2,3)
// over a three-provider subset, (2,5) for Epsilon 1e-9 over six providers —
// while the default class keeps the client's explicit (2,4).
func TestCLIClasses(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "cloud.json")
	args := []string{"init", "-t", "2", "-n", "4",
		"-class", "trio,t=2,csps=a+b+c", "-class", "wide,t=2,epsilon=1e-9"}
	for _, p := range []string{"a", "b", "c", "d", "e", "f"} {
		if err := os.MkdirAll(filepath.Join(dir, p), 0o755); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-csp", p+"="+filepath.Join(dir, p))
	}
	mustCtl(t, cfg, args...)
	raw := ctlStdout(t, cfg, "classes", "-json")
	var doc struct {
		Classes map[string]struct{ T, N int } `json:"classes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("classes -json: %v\n%s", err, raw)
	}
	for name, want := range map[string][2]int{"": {2, 4}, "trio": {2, 3}, "wide": {2, 5}} {
		got, ok := doc.Classes[name]
		if !ok || got.T != want[0] || got.N != want[1] {
			t.Errorf("class %q: (t, n) = (%d, %d) (listed %v), want (%d, %d)\n%s", name, got.T, got.N, ok, want[0], want[1], raw)
		}
	}
	mustCtl(t, cfg, "classes")
}

func TestCLIErrors(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("no-args err = %v", err)
	}
	if err := run([]string{"-config", "/nonexistent/cfg.json", "ls"}); err == nil {
		t.Fatal("missing config accepted")
	}
	dir := t.TempDir()
	cfg := filepath.Join(dir, "c.json")
	if err := ctl(t, cfg, "init", "-t", "2"); err == nil {
		t.Fatal("init with too few CSPs accepted")
	}
	if err := ctl(t, cfg, "bogus"); err == nil {
		t.Fatal("unknown command accepted")
	}
}

// TestCLIInitRefusesExistingConfig: the config holds the key, the only
// thing that reads the cloud, so a second init on its path fails, names the
// path, and leaves the file as it was.
func TestCLIInitRefusesExistingConfig(t *testing.T) {
	cfg, dir := setup(t)
	before, err := os.ReadFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = ctl(t, cfg, "init", "-t", "2", "-n", "3", "-key", "another-key",
		"-csp", "a="+filepath.Join(dir, "a"), "-csp", "b="+filepath.Join(dir, "b"), "-csp", "c="+filepath.Join(dir, "c"))
	if err == nil || !strings.Contains(err.Error(), cfg) {
		t.Fatalf("init over an existing config: err = %v, want one naming %s", err, cfg)
	}
	if after, err := os.ReadFile(cfg); err != nil || string(after) != string(before) {
		t.Fatalf("config changed by a refused init (%v):\n%s", err, after)
	}
}

// TestCLIFlightdumpAndTop: the diagnosis commands work against a local
// cloud — flightdump writes a populated manual dump, top renders one
// refresh without blocking.
func TestCLIFlightdumpAndTop(t *testing.T) {
	cfg, dir := setup(t)
	src := filepath.Join(dir, "payload.txt")
	if err := os.WriteFile(src, []byte(strings.Repeat("flight data ", 200)), 0o644); err != nil {
		t.Fatal(err)
	}
	mustCtl(t, cfg, "put", src)

	out := filepath.Join(dir, "dump.json")
	mustCtl(t, cfg, "flightdump", "-o", out)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Seq    uint64 `json:"seq"`
		Reason string `json:"reason"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if dump.Seq == 0 || !strings.HasPrefix(dump.Reason, "manual") || len(dump.Events) == 0 {
		t.Errorf("dump = seq %d reason %q with %d events; want populated manual dump",
			dump.Seq, dump.Reason, len(dump.Events))
	}

	mustCtl(t, cfg, "top", "-count", "1", "-interval", "1ms")

	// -json replaces the table with one machine-readable document per
	// refresh: every provider row carries the engine's load gauges, the
	// link model's EWMA, success count and down state, and the hedge gate.
	raw := ctlStdout(t, cfg, "top", "-count", "1", "-interval", "1ms", "-json")
	var doc struct {
		CSPs []map[string]json.RawMessage `json:"csps"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("top -json output is not JSON: %v\n%s", err, raw)
	}
	if len(doc.CSPs) == 0 {
		t.Fatalf("top -json has no provider rows: %s", raw)
	}
	for _, row := range doc.CSPs {
		for _, field := range []string{"csp", "in_flight", "queue_depth", "ewma_latency_seconds", "samples", "down", "hedge_state"} {
			if _, ok := row[field]; !ok {
				t.Errorf("top -json row lacks %q: %s", field, raw)
			}
		}
		var samples int64
		if err := json.Unmarshal(row["samples"], &samples); err != nil || samples == 0 {
			t.Errorf("top -json row samples = %s, want the provider's success count after a put", row["samples"])
		}
	}
}

// TestTopSLOLines: top prints one SLO line per op of the observer's
// objective table that has finished at least once, get_range and delete
// included, in op order.
func TestTopSLOLines(t *testing.T) {
	o := cyrus.NewObserver()
	for _, op := range []string{"put", "get_range", "delete", "get_range"} {
		_, sp := o.StartOp(context.Background(), op)
		sp.End(nil)
	}
	got := sloLines(o, o.Registry().Snapshot())
	want := []string{
		"slo delete   ok=1 breach=0",
		"slo get_range ok=2 breach=0",
		"slo put      ok=1 breach=0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("slo lines = %q, want %q", got, want)
	}
}

// TestCSPRowsFromRegistry: the per-provider rows of stats and top are read
// from the observer alone — request counts, the link-model gauges, the
// down gauge, and the newest failed attempt in the flight ring.
func TestCSPRowsFromRegistry(t *testing.T) {
	o := cyrus.NewObserver()
	ctx := context.Background()
	o.CSPRequest("a", nil, time.Millisecond)
	o.CSPLink("a", 2e6, 1e6, 0.25)
	o.CSPRequest("b", errors.New("boom"), 0)
	o.AttemptEnd(ctx, "b", "download", 0, 0, 0, errors.New("older"))
	o.AttemptEnd(ctx, "b", "download", 1, 0, 0, errors.New("newest"))
	o.AttemptEnd(ctx, "b", "download", 2, 0, 0, nil)
	o.CSPDownState("b", true)
	got := cspRows(o.Registry().Snapshot(), o.FlightEvents())
	want := []cspRow{
		{CSP: "a", Successes: 1, LatencyEWMASeconds: 0.25, DownlinkBps: 2e6, UplinkBps: 1e6},
		{CSP: "b", Failures: 1, Down: true, LastError: "newest"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %+v, want %+v", got, want)
	}
}
