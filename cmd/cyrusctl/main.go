// Command cyrusctl operates a real CYRUS cloud over directory-backed
// providers — each configured directory plays the role of one CSP account
// (point them at different disks, mounts, or folders synced by different
// providers' native clients).
//
// Setup:
//
//	cyrusctl -config cloud.json init -t 2 -n 3 \
//	    -csp dropbox=/mnt/dropbox -csp gdrive=/mnt/gdrive -csp box=/mnt/box
//
// Then:
//
//	cyrusctl -config cloud.json put notes.txt
//	cyrusctl -config cloud.json ls
//	cyrusctl -config cloud.json get notes.txt -o /tmp/notes.txt
//	cyrusctl -config cloud.json history notes.txt
//	cyrusctl -config cloud.json restore notes.txt <version-id>
//	cyrusctl -config cloud.json rm notes.txt
//	cyrusctl -config cloud.json conflicts
//	cyrusctl -config cloud.json resolve notes.txt <winner-version-id>
//
// The key in the config file is the user secret: every device sharing the
// cloud must use the same key, and without it nothing is readable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/cyrus"
)

type cspEntry struct {
	Name string `json:"name"`
	// Path is a local directory (DirStore) or an http(s):// base URL
	// (a provider speaking the resthttp protocol, e.g. cmd/cyruscsp).
	Path string `json:"path"`
}

type config struct {
	ClientID string `json:"client_id"`
	Key      string `json:"key"`
	T        int    `json:"t"`
	N        int    `json:"n"`
	// Metadata-plane knobs (DESIGN.md §11). Zero values keep the paper's
	// behavior: records on every provider, no cache, no compaction.
	MetaShards       int        `json:"meta_shards,omitempty"`
	MetaCacheEntries int        `json:"meta_cache_entries,omitempty"`
	TreeRetention    int        `json:"tree_retention,omitempty"`
	CSPToken         string     `json:"csp_token,omitempty"` // bearer token for HTTP providers
	CSPs             []cspEntry `json:"csps"`
	// Storage-class knobs (DESIGN.md §13). Empty = one implicit class with
	// the client-wide (t, n). Seed via 'init -class ... -rule ...' or edit
	// the JSON directly; the spec grammar is documented on the init flags.
	Classes      []cyrus.StorageClass `json:"classes,omitempty"`
	ClassRules   []cyrus.ClassRule    `json:"class_rules,omitempty"`
	DefaultClass string               `json:"default_class,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cyrusctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cyrusctl", flag.ContinueOnError)
	cfgPath := fs.String("config", "cyrus.json", "path to the cloud config file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: cyrusctl [-config file] <init|put|get|ls|history|rm|restore|conflicts|resolve|recover|sync|import|gc|probe|rmcsp|reinstate|stats|flightdump|top|classes|reencode> ...")
	}
	cmd, rest := rest[0], rest[1:]

	if cmd == "init" {
		return cmdInit(*cfgPath, rest)
	}
	if cmd == "flightdump" && hasFlag(rest, "-url") {
		// Remote mode needs no config file: the dump comes from a running
		// server's /debug/flightrecorder endpoint.
		return cmdFlightdump(context.Background(), nil, rest)
	}
	client, err := openClient(*cfgPath)
	if err != nil {
		return err
	}
	ctx := context.Background()
	switch cmd {
	case "put":
		return cmdPut(ctx, client, rest)
	case "get":
		return cmdGet(ctx, client, rest)
	case "ls":
		return cmdLs(ctx, client, rest)
	case "history":
		return cmdHistory(ctx, client, rest)
	case "rm":
		return cmdRm(ctx, client, rest)
	case "restore":
		return cmdRestore(ctx, client, rest)
	case "conflicts":
		return cmdConflicts(ctx, client)
	case "resolve":
		return cmdResolve(ctx, client, rest)
	case "recover":
		return client.Recover(ctx)
	case "sync":
		return cmdSync(ctx, client, rest)
	case "import":
		return cmdImport(ctx, client, rest)
	case "gc":
		return cmdGC(ctx, client)
	case "probe":
		return cmdProbe(ctx, client)
	case "stats":
		return cmdStats(ctx, client, rest)
	case "flightdump":
		return cmdFlightdump(ctx, client, rest)
	case "top":
		return cmdTop(ctx, client, rest)
	case "reinstate":
		return cmdReinstate(ctx, client, rest)
	case "classes":
		return cmdClasses(ctx, client, rest)
	case "reencode":
		return cmdReencode(ctx, client, rest)
	case "rmcsp":
		if len(rest) != 1 {
			return fmt.Errorf("usage: rmcsp <provider>")
		}
		return client.RemoveCSP(ctx, rest[0])
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func cmdSync(ctx context.Context, c *cyrus.Client, args []string) error {
	fs := flag.NewFlagSet("sync", flag.ContinueOnError)
	watch := fs.Duration("watch", 0, "keep syncing at this interval (0 = one pass)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sync [-watch interval] <dir>")
	}
	sy, err := cyrus.NewSyncer(c, fs.Arg(0))
	if err != nil {
		return err
	}
	report := func(actions []cyrus.SyncAction, err error) {
		for _, a := range actions {
			fmt.Printf("%-13s %s\n", a.Op, a.Name)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sync:", err)
		}
	}
	if *watch > 0 {
		return sy.Watch(ctx, *watch, report)
	}
	actions, err := sy.Sync(ctx)
	report(actions, nil)
	if err != nil {
		return err
	}
	if len(actions) == 0 {
		fmt.Println("up to date")
	}
	return nil
}

func cmdImport(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return fmt.Errorf("usage: import <provider> <object> [dest-name]")
	}
	dest := ""
	if len(args) == 3 {
		dest = args[2]
	}
	if err := c.Import(ctx, args[0], args[1], dest); err != nil {
		return err
	}
	if dest == "" {
		dest = args[1]
	}
	fmt.Printf("imported %s from %s as %s\n", args[1], args[0], dest)
	return nil
}

func cmdGC(ctx context.Context, c *cyrus.Client) error {
	stats, err := c.GC(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d chunks (%d share objects, ~%d bytes); %d shares skipped\n",
		stats.Chunks, stats.Shares, stats.Bytes, stats.Skipped)
	return nil
}

func cmdProbe(ctx context.Context, c *cyrus.Client) error {
	recovered := c.ProbeFailed(ctx)
	if len(recovered) == 0 {
		fmt.Println("no failed providers recovered")
		return nil
	}
	for _, name := range recovered {
		fmt.Printf("%s is back up\n", name)
	}
	return nil
}

// cmdStats syncs once (touching every reachable provider) and dumps the
// observability scoreboard: per-CSP request counts, latency EWMA, link
// estimates, marked-down state, the metadata records the hashring routes to
// each provider (shard skew), and the metadata cache hit ratio. -json adds
// the full metrics snapshot.
func cmdStats(ctx context.Context, c *cyrus.Client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit JSON (scoreboard plus metrics snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := c.Observer()
	if o == nil {
		return fmt.Errorf("stats: client has no observer attached")
	}
	if _, err := c.Sync(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "stats: sync:", err)
	}
	rows := o.Health().Snapshot()
	snap := o.Registry().Snapshot()
	hits, _ := snap.Find(cyrus.MetricMetaCacheHits, nil)
	misses, _ := snap.Find(cyrus.MetricMetaCacheMisses, nil)
	hitRatio := 0.0
	if total := hits.Value + misses.Value; total > 0 {
		hitRatio = hits.Value / total
	}
	shards := c.MetaShardCounts()
	if *asJSON {
		out := struct {
			CSPs              []cyrus.CSPHealth     `json:"csps"`
			MetaCacheHitRatio float64               `json:"meta_cache_hit_ratio"`
			ShardRecords      map[string]int        `json:"shard_records,omitempty"`
			Metrics           cyrus.MetricsSnapshot `json:"metrics"`
		}{CSPs: rows, MetaCacheHitRatio: hitRatio, ShardRecords: shards, Metrics: snap}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("%-12s %6s %6s %10s %12s %12s %8s %-6s %s\n",
		"CSP", "OK", "FAIL", "LAT(ms)", "DOWN(B/s)", "UP(B/s)", "RECORDS", "STATE", "LAST ERROR")
	for _, r := range rows {
		state := "up"
		if r.Down {
			state = "DOWN"
		}
		fmt.Printf("%-12s %6d %6d %10.2f %12.0f %12.0f %8d %-6s %s\n",
			r.CSP, r.Successes, r.Failures, r.LatencyEWMASeconds*1000,
			r.DownlinkBps, r.UplinkBps, shards[r.CSP], state, r.LastError)
	}
	fmt.Printf("metadata cache: %.0f hits, %.0f misses (%.1f%% hit ratio)\n",
		hits.Value, misses.Value, 100*hitRatio)
	return nil
}

// hasFlag reports whether args carries the given flag name.
func hasFlag(args []string, name string) bool {
	for _, a := range args {
		if a == name || strings.HasPrefix(a, name+"=") {
			return true
		}
	}
	return false
}

// cmdFlightdump captures a flight-recorder dump. With -url it fetches a
// running server's /debug/flightrecorder (POST forces a fresh dump there);
// without it, it opens the local cloud, syncs once to generate activity,
// forces a manual dump, and prints it.
func cmdFlightdump(ctx context.Context, c *cyrus.Client, args []string) error {
	fs := flag.NewFlagSet("flightdump", flag.ContinueOnError)
	url := fs.String("url", "", "base URL of a running server (fetches its /debug/flightrecorder)")
	out := fs.String("o", "", "write the dump to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var data []byte
	if *url != "" {
		resp, err := http.Post(strings.TrimSuffix(*url, "/")+"/debug/flightrecorder", "application/json", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("flightdump: %s returned %s", *url, resp.Status)
		}
		if data, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
	} else {
		o := c.Observer()
		if o == nil {
			return fmt.Errorf("flightdump: client has no observer attached")
		}
		if _, err := c.Sync(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "flightdump: sync:", err)
		}
		dump := o.FlightDump(cyrus.FlightTriggerManual, "cyrusctl")
		var err error
		if data, err = json.MarshalIndent(dump, "", "  "); err != nil {
			return err
		}
		data = append(data, '\n')
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("flight dump written to %s (%d bytes)\n", *out, len(data))
		return nil
	}
	_, err := os.Stdout.Write(data)
	return err
}

// cmdTop is a live per-CSP load view: every interval it syncs (touching
// every reachable provider) and redraws a table of in-flight counts, queue
// depth, latency EWMA, predicted completion time, the hedge controller's
// per-provider suppression state, and the SLO burn counters. -count bounds
// the iterations (0 = until interrupted); -json replaces the table with
// one JSON document per refresh carrying the full load vector (current
// sample plus the retained window) for machine consumers.
func cmdTop(ctx context.Context, c *cyrus.Client, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	count := fs.Int("count", 0, "iterations before exiting (0 = run until interrupted)")
	asJSON := fs.Bool("json", false, "emit one JSON document per refresh instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := c.Observer()
	if o == nil {
		return fmt.Errorf("top: client has no observer attached")
	}
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(*interval):
			}
		}
		if _, err := c.Sync(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "top: sync:", err)
		}
		if *asJSON {
			if err := printTopJSON(c, o); err != nil {
				return err
			}
		} else {
			printTop(c, o)
		}
	}
	return nil
}

// hedgeFlag renders the engine's per-provider hedge gate for the table:
// "ok" when a hedge would arm, otherwise the suppression reason ("cold",
// or "load" — the Ghosh-crossover gate).
func hedgeFlag(state string) string {
	if state == "" {
		return "ok"
	}
	return state
}

func printTop(c *cyrus.Client, o *cyrus.Observer) {
	fmt.Printf("-- %s --\n", time.Now().Format("15:04:05"))
	fmt.Printf("%-12s %8s %6s %10s %12s %8s %-6s %-5s\n",
		"CSP", "INFLIGHT", "QUEUE", "EWMA(ms)", "PREDICT(ms)", "SAMPLES", "STATE", "HEDGE")
	health := map[string]cyrus.CSPHealth{}
	for _, h := range o.Health().Snapshot() {
		health[h.CSP] = h
	}
	for _, l := range o.LoadStats() {
		state := "up"
		if health[l.CSP].Down {
			state = "DOWN"
		}
		fmt.Printf("%-12s %8d %6d %10.2f %12.2f %8d %-6s %-5s\n",
			l.CSP, l.Current.InFlight, l.Current.QueueDepth,
			l.Current.EWMALatencySeconds*1000, l.Current.PredictedSeconds*1000,
			len(l.Window), state, hedgeFlag(c.Engine().HedgeState(l.CSP)))
	}
	s := o.Registry().Snapshot()
	for _, op := range []string{"put", "get", "sync", "migrate", "gc"} {
		okP, _ := s.Find(cyrus.MetricSLOOK, map[string]string{"op": op})
		brP, hasBr := s.Find(cyrus.MetricSLOBreach, map[string]string{"op": op})
		if okP.Value == 0 && (!hasBr || brP.Value == 0) {
			continue
		}
		fmt.Printf("slo %-8s ok=%.0f breach=%.0f\n", op, okP.Value, brP.Value)
	}
}

// topCSPJSON is one provider row of the -json output: the observer's full
// load vector plus scoreboard and hedge-gate state.
type topCSPJSON struct {
	cyrus.CSPLoad
	Down       bool   `json:"down"`
	HedgeState string `json:"hedge_state"` // "" = a hedge would arm
}

// topJSON is one -json refresh document.
type topJSON struct {
	Time       time.Time    `json:"time"`
	QueueDepth int          `json:"queue_depth"`
	CSPs       []topCSPJSON `json:"csps"`
}

func printTopJSON(c *cyrus.Client, o *cyrus.Observer) error {
	health := map[string]cyrus.CSPHealth{}
	for _, h := range o.Health().Snapshot() {
		health[h.CSP] = h
	}
	doc := topJSON{Time: time.Now(), QueueDepth: o.QueueDepthNow()}
	for _, l := range o.LoadStats() {
		doc.CSPs = append(doc.CSPs, topCSPJSON{
			CSPLoad:    l,
			Down:       health[l.CSP].Down,
			HedgeState: c.Engine().HedgeState(l.CSP),
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

func cmdReinstate(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: reinstate <provider>")
	}
	return c.ReinstateCSP(ctx, args[0])
}

func cmdInit(cfgPath string, args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	t := fs.Int("t", 2, "privacy level: shares needed to reconstruct")
	n := fs.Int("n", 0, "reliability level: shares stored (0 = derive from failure model)")
	key := fs.String("key", "", "user key (generated if empty)")
	client := fs.String("client", "", "client id (hostname if empty)")
	cspToken := fs.String("csptoken", "", "bearer token for http(s) providers")
	metaShards := fs.Int("metashards", 0, "providers per metadata record (0 = all providers)")
	metaCache := fs.Int("metacache", 0, "file names whose reads may skip the metadata sync while fresh (0 = always sync)")
	retention := fs.Int("retention", 0, "resolved conflict branches kept per file (0 = keep all)")
	var csps multiFlag
	fs.Var(&csps, "csp", "provider as name=<dir-path or http(s)://url> (repeatable, need at least t)")
	var classes multiFlag
	fs.Var(&classes, "class", "storage class as name,key=val,... with keys tier|t|n|epsilon|csps (a+b+c)|metacsps|demote-after (duration)|demote-to (repeatable)")
	var rules multiFlag
	fs.Var(&rules, "rule", "class rule as prefix=class (repeatable, longest prefix wins)")
	defClass := fs.String("defaultclass", "", "class for objects no rule matches (empty = implicit default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(csps) < *t {
		return fmt.Errorf("need at least %d -csp entries, got %d", *t, len(csps))
	}
	cfg := config{
		ClientID: *client, Key: *key, T: *t, N: *n, CSPToken: *cspToken,
		MetaShards: *metaShards, MetaCacheEntries: *metaCache, TreeRetention: *retention,
		DefaultClass: *defClass,
	}
	for _, spec := range classes {
		cls, err := parseClassSpec(spec)
		if err != nil {
			return err
		}
		cfg.Classes = append(cfg.Classes, cls)
	}
	for _, spec := range rules {
		prefix, class, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -rule %q, want prefix=class", spec)
		}
		cfg.ClassRules = append(cfg.ClassRules, cyrus.ClassRule{Prefix: prefix, Class: class})
	}
	if cfg.ClientID == "" {
		host, _ := os.Hostname()
		cfg.ClientID = host
	}
	if cfg.Key == "" {
		var buf [24]byte
		f, err := os.Open("/dev/urandom")
		if err == nil {
			_, _ = f.Read(buf[:])
			f.Close()
		}
		cfg.Key = fmt.Sprintf("%x", buf)
	}
	for _, e := range csps {
		name, path, ok := strings.Cut(e, "=")
		if !ok {
			return fmt.Errorf("bad -csp %q, want name=path-or-url", e)
		}
		if strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://") {
			if *cspToken == "" {
				return fmt.Errorf("-csp %q is an HTTP provider: set -csptoken", name)
			}
			cfg.CSPs = append(cfg.CSPs, cspEntry{Name: name, Path: path})
			continue
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		cfg.CSPs = append(cfg.CSPs, cspEntry{Name: name, Path: abs})
	}
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfgPath, append(data, '\n'), 0o600); err != nil {
		return err
	}
	fmt.Printf("initialized %s with %d providers (t=%d)\nkeep the key safe: without it nothing is readable\n",
		cfgPath, len(cfg.CSPs), cfg.T)
	return nil
}

func openClient(cfgPath string) (*cyrus.Client, error) {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, fmt.Errorf("read config: %w (run 'cyrusctl init' first)", err)
	}
	var cfg config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("parse config: %w", err)
	}
	var stores []cyrus.Store
	ctx := context.Background()
	for _, e := range cfg.CSPs {
		var s cyrus.Store
		token := "local"
		if strings.HasPrefix(e.Path, "http://") || strings.HasPrefix(e.Path, "https://") {
			s = cyrus.NewHTTPStore(e.Name, e.Path)
			token = cfg.CSPToken
		} else {
			ds, err := cyrus.NewDirStore(e.Name, e.Path)
			if err != nil {
				return nil, err
			}
			s = ds
		}
		if err := s.Authenticate(ctx, cyrus.Credentials{Token: token}); err != nil {
			return nil, err
		}
		stores = append(stores, s)
	}
	return cyrus.New(cyrus.Config{
		ClientID:         cfg.ClientID,
		Key:              cfg.Key,
		T:                cfg.T,
		N:                cfg.N,
		MetaShards:       cfg.MetaShards,
		MetaCacheEntries: cfg.MetaCacheEntries,
		TreeRetention:    cfg.TreeRetention,
		Classes:          cfg.Classes,
		ClassRules:       cfg.ClassRules,
		DefaultClass:     cfg.DefaultClass,
		Obs:              cyrus.NewObserver(),
	}, stores)
}

// cmdClasses syncs once and prints every configured storage class next to
// its live usage: tier, effective (t, n), CSP subset, lifecycle demotion
// rule, and the per-class object/byte tallies (which also refresh the
// cyrus_class_* gauges). -json emits the same as one document.
func cmdClasses(ctx context.Context, c *cyrus.Client, args []string) error {
	fs := flag.NewFlagSet("classes", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := c.Sync(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "classes: sync:", err)
	}
	pol := c.Policy()
	usage := c.ClassStats()
	if *asJSON {
		out := struct {
			DefaultClass string                      `json:"default_class,omitempty"`
			Classes      []cyrus.StorageClass        `json:"classes,omitempty"`
			Rules        []cyrus.ClassRule           `json:"rules,omitempty"`
			Usage        map[string]cyrus.ClassUsage `json:"usage"`
		}{DefaultClass: pol.DefaultClass(), Classes: pol.Classes(), Rules: pol.Rules(), Usage: usage}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("%-12s %-5s %3s %3s %-24s %-20s %8s %12s\n",
		"CLASS", "TIER", "T", "N", "CSPS", "DEMOTE", "OBJECTS", "BYTES")
	row := func(name, tier string, t, n int, csps []string, demote string) {
		u := usage[name]
		label := name
		if name == "" {
			label = "(default)"
		}
		cspCol := "(all)"
		if len(csps) > 0 {
			cspCol = strings.Join(csps, ",")
		}
		fmt.Printf("%-12s %-5s %3d %3d %-24s %-20s %8d %12d\n",
			label, tier, t, n, cspCol, demote, u.Objects, u.Bytes)
	}
	defT, defN := c.Params()
	row("", cyrus.TierHot, defT, defN, nil, "")
	for _, cls := range pol.Classes() {
		t, n := cls.T, cls.N
		if t == 0 {
			t = defT
		}
		if n == 0 {
			n = defN
		}
		demote := ""
		if cls.DemoteTo != "" {
			demote = fmt.Sprintf("%s -> %s", cls.DemoteAfter, cls.DemoteTo)
		}
		row(cls.Name, cls.Tier, t, n, cls.CSPs, demote)
	}
	if def := pol.DefaultClass(); def != "" {
		fmt.Printf("default class: %s\n", def)
	}
	for _, r := range pol.Rules() {
		fmt.Printf("rule: %-24s -> %s\n", r.Prefix+"*", r.Class)
	}
	return nil
}

// cmdReencode moves a file's current version into another storage class
// (the lifecycle migrator's primitive, driven by hand — demote early,
// promote back, or repack after a class edit).
func cmdReencode(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: reencode <name> <class>")
	}
	changed, err := c.ReencodeClass(ctx, args[0], args[1])
	if err != nil {
		return err
	}
	if !changed {
		fmt.Printf("%s is already in class %q\n", args[0], args[1])
		return nil
	}
	fmt.Printf("re-encoded %s into class %q\n", args[0], args[1])
	return nil
}

func cmdPut(ctx context.Context, c *cyrus.Client, args []string) error {
	fs := flag.NewFlagSet("put", flag.ContinueOnError)
	class := fs.String("class", "", "storage-class override for this write (default: policy resolution)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: put [-class name] <file>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	name := filepath.Base(fs.Arg(0))
	// Stream the file: client memory stays bounded by the pipeline window
	// regardless of file size.
	if err := c.PutReaderWith(ctx, name, f, cyrus.PutOptions{Class: *class}); err != nil {
		return err
	}
	fmt.Printf("stored %s (%d bytes)\n", name, st.Size())
	return nil
}

func cmdGet(ctx context.Context, c *cyrus.Client, args []string) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	out := fs.String("o", "", "output path (default: the file name)")
	version := fs.String("version", "", "specific version id")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: get [-o out] [-version id] <name>")
	}
	name := fs.Arg(0)
	dst := *out
	if dst == "" {
		dst = name
	}
	// Stream into a sibling temp file and rename on success: an interrupted
	// download never leaves a torn file at the destination, and client
	// memory stays bounded by the pipeline window.
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+filepath.Base(dst)+".partial-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	var info cyrus.FileInfo
	if *version != "" {
		info, err = c.GetVersionTo(ctx, name, *version, tmp)
	} else {
		info, err = c.GetTo(ctx, name, tmp)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return err
	}
	fmt.Printf("retrieved %s (%d bytes, version %.8s)\n", name, info.Size, info.VersionID)
	if info.Conflicted {
		fmt.Println("warning: this file has conflicting concurrent versions; see 'cyrusctl conflicts'")
	}
	return nil
}

func cmdLs(ctx context.Context, c *cyrus.Client, args []string) error {
	dir := ""
	if len(args) > 0 {
		dir = args[0]
	}
	files, err := c.List(ctx, dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		flag := " "
		if f.Conflicted {
			flag = "!"
		}
		fmt.Printf("%s %10d  %s  %.8s  %s\n", flag, f.Size, f.Modified.Format("2006-01-02 15:04"), f.VersionID, f.Name)
	}
	return nil
}

func cmdHistory(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: history <name>")
	}
	hist, err := c.History(ctx, args[0])
	if err != nil {
		return err
	}
	for i, v := range hist {
		mark := " "
		if i == 0 {
			mark = "*"
		}
		state := ""
		if v.Deleted {
			state = " (deleted)"
		}
		fmt.Printf("%s %s  %10d  %s%s\n", mark, v.VersionID, v.Size, v.Modified.Format("2006-01-02 15:04:05"), state)
	}
	return nil
}

func cmdRm(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: rm <name>")
	}
	return c.Delete(ctx, args[0])
}

func cmdRestore(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: restore <name> <version-id>")
	}
	return c.Restore(ctx, args[0], args[1])
}

func cmdConflicts(ctx context.Context, c *cyrus.Client) error {
	conflicts := c.Conflicts(ctx)
	if len(conflicts) == 0 {
		fmt.Println("no conflicts")
		return nil
	}
	for _, cf := range conflicts {
		fmt.Printf("%s (%s):\n", cf.Name, cf.Type)
		for _, v := range cf.Versions {
			fmt.Printf("  %s  %10d bytes  %s\n", v.VersionID, v.Size, v.Modified.Format("2006-01-02 15:04:05"))
		}
	}
	return nil
}

func cmdResolve(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: resolve <name> <winner-version-id>")
	}
	return c.Resolve(ctx, args[0], args[1])
}

// parseClassSpec parses one -class value: "name,key=val,..." with keys
// tier, t, n, epsilon, csps (plus-separated), metacsps, demote-after (a Go
// duration like 720h), demote-to. Full validation (tier names, demotion
// targets, CSP membership) happens when the client opens the config.
func parseClassSpec(spec string) (cyrus.StorageClass, error) {
	parts := strings.Split(spec, ",")
	cls := cyrus.StorageClass{Name: parts[0]}
	if cls.Name == "" || strings.Contains(cls.Name, "=") {
		return cls, fmt.Errorf("bad -class %q: the first element is the class name", spec)
	}
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return cls, fmt.Errorf("bad -class element %q in %q, want key=val", p, spec)
		}
		var err error
		switch k {
		case "tier":
			cls.Tier = v
		case "t":
			cls.T, err = strconv.Atoi(v)
		case "n":
			cls.N, err = strconv.Atoi(v)
		case "epsilon":
			cls.Epsilon, err = strconv.ParseFloat(v, 64)
		case "csps":
			cls.CSPs = strings.Split(v, "+")
		case "metacsps":
			cls.MetaCSPs = strings.Split(v, "+")
		case "demote-after":
			cls.DemoteAfter, err = time.ParseDuration(v)
		case "demote-to":
			cls.DemoteTo = v
		default:
			return cls, fmt.Errorf("bad -class key %q in %q", k, spec)
		}
		if err != nil {
			return cls, fmt.Errorf("bad -class value %q=%q in %q: %v", k, v, spec, err)
		}
	}
	return cls, nil
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
