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
// conflicts lists each conflicted name's live leaves (versions with no child
// that are not deletion markers); resolve's winner must be one of them, and
// every other one gets a deletion marker.
//
// The key in the config file is the user secret: every device sharing the
// cloud must use the same key, and without it nothing is readable. init
// refuses a config path that already exists.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/cyrus"
	"repro/internal/atomicfile"
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
	// behavior: records on every provider, no cache. Every version is kept:
	// a "tree_retention" key older config files carry is ignored.
	MetaShards       int        `json:"meta_shards,omitempty"`
	MetaCacheEntries int        `json:"meta_cache_entries,omitempty"`
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
		return cmdFlightdump(context.Background(), nil, nil, rest)
	}
	client, o, cfg, err := openClient(*cfgPath)
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
		return cmdStats(ctx, client, o, rest)
	case "flightdump":
		return cmdFlightdump(ctx, client, o, rest)
	case "top":
		return cmdTop(ctx, client, o, rest)
	case "reinstate":
		return cmdReinstate(ctx, client, rest)
	case "classes":
		return cmdClasses(ctx, client, cfg, rest)
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
	fmt.Printf("collected %d share objects (~%d bytes); %d shares skipped\n",
		stats.Shares, stats.Bytes, stats.Skipped)
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

// cspRow is one provider's line of `stats`, read back from the observer:
// request counts (the request histogram's _count by result), the client's
// link model as its gauges export it, the marked-down state, and the
// newest failed attempt in the flight ring.
type cspRow struct {
	CSP                string  `json:"csp"`
	Successes          int64   `json:"successes"`
	Failures           int64   `json:"failures"`
	LatencyEWMASeconds float64 `json:"latency_ewma_seconds"`
	DownlinkBps        float64 `json:"downlink_bps,omitempty"`
	UplinkBps          float64 `json:"uplink_bps,omitempty"`
	Down               bool    `json:"down"`
	LastError          string  `json:"last_error,omitempty"`
}

// cspRows builds one row per provider the client has contacted, sorted by
// name.
func cspRows(s cyrus.MetricsSnapshot, events []cyrus.FlightEvent) []cspRow {
	var rows []cspRow
	at := map[string]int{}
	for _, p := range s.Metrics {
		if p.Name != cyrus.MetricCSPRequestDuration {
			continue
		}
		name := p.Labels["csp"]
		i, ok := at[name]
		if !ok {
			i = len(rows)
			at[name] = i
			csp := map[string]string{"csp": name}
			lat, _ := s.Find(cyrus.MetricCSPLatencyEWMA, csp)
			down, _ := s.Find(cyrus.MetricCSPBandwidth, map[string]string{"csp": name, "dir": "down"})
			up, _ := s.Find(cyrus.MetricCSPBandwidth, map[string]string{"csp": name, "dir": "up"})
			state, _ := s.Find(cyrus.MetricCSPDown, csp)
			rows = append(rows, cspRow{CSP: name, LatencyEWMASeconds: lat.Value,
				DownlinkBps: down.Value, UplinkBps: up.Value, Down: state.Value == 1})
		}
		if p.Labels["result"] == "ok" {
			rows[i].Successes = int64(p.Count)
		} else {
			rows[i].Failures = int64(p.Count)
		}
	}
	for _, ev := range events {
		if i, ok := at[ev.CSP]; ok && ev.Kind == cyrus.FlightAttemptEnd && ev.Err != "" {
			rows[i].LastError = ev.Err
		}
	}
	return rows
}

// cmdStats syncs once (touching every reachable provider) and dumps the
// per-CSP view the observer recorded: request counts, latency EWMA, link
// estimates, marked-down state, last error, the metadata records the
// hashring routes to each provider (shard skew), and the metadata cache hit
// ratio. -json adds the full metrics snapshot.
func cmdStats(ctx context.Context, c *cyrus.Client, o *cyrus.Observer, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit JSON (per-CSP rows plus metrics snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := c.Sync(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "stats: sync:", err)
	}
	snap := o.Registry().Snapshot()
	rows := cspRows(snap, o.FlightEvents())
	hits, _ := snap.Find(cyrus.MetricMetaCacheHits, nil)
	misses, _ := snap.Find(cyrus.MetricMetaCacheMisses, nil)
	hitRatio := 0.0
	if total := hits.Value + misses.Value; total > 0 {
		hitRatio = hits.Value / total
	}
	shards := c.MetaShardCounts()
	if *asJSON {
		out := struct {
			CSPs              []cspRow              `json:"csps"`
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
func cmdFlightdump(ctx context.Context, c *cyrus.Client, o *cyrus.Observer, args []string) error {
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
// depth, latency EWMA, the success count that arms hedging, the hedge
// controller's per-provider suppression state, and one SLO line per op
// (ok/breach against the op's objective, read off the op histogram).
// The provider columns come from the observer's registry; HEDGE is the
// engine's HedgeState over the registry's success count.
// -count bounds the iterations (0 = until interrupted); -json replaces the
// table with one JSON document per refresh for machine consumers.
func cmdTop(ctx context.Context, c *cyrus.Client, o *cyrus.Observer, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	count := fs.Int("count", 0, "iterations before exiting (0 = run until interrupted)")
	asJSON := fs.Bool("json", false, "emit one JSON document per refresh instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
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

// topRow is one provider's line of `top`: the link model's EWMA, success
// count and down state, the engine's two load gauges, and its hedge gate.
type topRow struct {
	CSP                string  `json:"csp"`
	InFlight           int     `json:"in_flight"`
	QueueDepth         int     `json:"queue_depth"` // global: the admission queue spans providers
	EWMALatencySeconds float64 `json:"ewma_latency_seconds"`
	Samples            int64   `json:"samples"` // successes; hedging arms at 8
	Down               bool    `json:"down"`
	HedgeState         string  `json:"hedge_state"` // "" = a hedge would arm
}

// topRows builds one row per provider the client has contacted, sorted by
// name.
func topRows(c *cyrus.Client, s cyrus.MetricsSnapshot) []topRow {
	queue, _ := s.Find(cyrus.MetricTransferQueueDepth, nil)
	var rows []topRow
	for _, r := range cspRows(s, nil) {
		inFlight, _ := s.Find(cyrus.MetricTransferInFlight, map[string]string{"csp": r.CSP})
		rows = append(rows, topRow{
			CSP:                r.CSP,
			InFlight:           int(inFlight.Value),
			QueueDepth:         int(queue.Value),
			EWMALatencySeconds: r.LatencyEWMASeconds,
			Samples:            r.Successes,
			Down:               r.Down,
			HedgeState:         c.Engine().HedgeState(r.CSP, r.Successes),
		})
	}
	return rows
}

func printTop(c *cyrus.Client, o *cyrus.Observer) {
	fmt.Printf("-- %s --\n", time.Now().Format("15:04:05"))
	fmt.Printf("%-12s %8s %6s %10s %8s %-6s %-5s\n",
		"CSP", "INFLIGHT", "QUEUE", "EWMA(ms)", "SAMPLES", "STATE", "HEDGE")
	s := o.Registry().Snapshot()
	for _, r := range topRows(c, s) {
		state := "up"
		if r.Down {
			state = "DOWN"
		}
		fmt.Printf("%-12s %8d %6d %10.2f %8d %-6s %-5s\n",
			r.CSP, r.InFlight, r.QueueDepth, r.EWMALatencySeconds*1000,
			r.Samples, state, hedgeFlag(r.HedgeState))
	}
	for _, line := range sloLines(s) {
		fmt.Println(line)
	}
}

// sloObjectives are top's per-op latency objectives, in op order. Each
// sits on a cyrus_op_duration_seconds bucket bound, so that bucket's
// cumulative count is the ops that finished within it (elapsed <=
// objective).
var sloObjectives = []struct {
	op      string
	seconds float64
}{
	{"delete", 2.5}, {"gc", 10}, {"get", 2.5}, {"get_range", 2.5},
	{"migrate", 10}, {"put", 5}, {"sync", 2.5},
}

// sloLines renders one line per objective whose op has finished at least
// once, read off the op histogram summed over result: ok is the count of
// the objective's bucket, breach the rest.
func sloLines(s cyrus.MetricsSnapshot) []string {
	var lines []string
	for _, obj := range sloObjectives {
		var total, ok uint64
		for _, p := range s.Metrics {
			if p.Name != cyrus.MetricOpDuration || p.Labels["op"] != obj.op {
				continue
			}
			total += p.Count
			for _, b := range p.Buckets {
				if b.LE == obj.seconds {
					ok += b.Count
				}
			}
		}
		if total > 0 {
			lines = append(lines, fmt.Sprintf("slo %-8s ok=%d breach=%d", obj.op, ok, total-ok))
		}
	}
	return lines
}

func printTopJSON(c *cyrus.Client, o *cyrus.Observer) error {
	data, err := json.Marshal(struct {
		Time time.Time `json:"time"`
		CSPs []topRow  `json:"csps"`
	}{time.Now(), topRows(c, o.Registry().Snapshot())})
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
	// The config holds the key, and the key is the only thing that can read
	// the cloud: never replace one.
	if _, err := os.Lstat(cfgPath); err == nil {
		return fmt.Errorf("init: %s already exists; it holds the key that reads the cloud, so init will not replace it", cfgPath)
	} else if !os.IsNotExist(err) {
		return err
	}
	cfg := config{
		ClientID: *client, Key: *key, T: *t, N: *n, CSPToken: *cspToken,
		MetaShards: *metaShards, MetaCacheEntries: *metaCache,
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
	if err := atomicfile.Write(cfgPath, 0o600, bytes.NewReader(append(data, '\n')).WriteTo); err != nil {
		return err
	}
	fmt.Printf("initialized %s with %d providers (t=%d)\nkeep the key safe: without it nothing is readable\n",
		cfgPath, len(cfg.CSPs), cfg.T)
	return nil
}

// openClient builds the client the config file describes, with the
// observer that stats, flightdump and top read, and returns the parsed
// config beside it.
func openClient(cfgPath string) (*cyrus.Client, *cyrus.Observer, config, error) {
	var cfg config
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, cfg, fmt.Errorf("read config: %w (run 'cyrusctl init' first)", err)
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, nil, cfg, fmt.Errorf("parse config: %w", err)
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
				return nil, nil, cfg, err
			}
			s = ds
		}
		if err := s.Authenticate(ctx, cyrus.Credentials{Token: token}); err != nil {
			return nil, nil, cfg, err
		}
		stores = append(stores, s)
	}
	o := cyrus.NewObserver()
	c, err := cyrus.New(cyrus.Config{
		ClientID:         cfg.ClientID,
		Key:              cfg.Key,
		T:                cfg.T,
		N:                cfg.N,
		MetaShards:       cfg.MetaShards,
		MetaCacheEntries: cfg.MetaCacheEntries,
		Classes:          cfg.Classes,
		ClassRules:       cfg.ClassRules,
		DefaultClass:     cfg.DefaultClass,
		Obs:              o,
	}, stores)
	return c, o, cfg, err
}

// cmdClasses syncs once and prints every storage class the client reports
// (ClassStats, which also refreshes the cyrus_class_* gauges), the default
// class first: tier, the (t, n) new chunks are stored at, CSP subset,
// lifecycle demotion rule, and the object/byte tallies — then the config
// file's default class and rules. -json emits the same as one document.
func cmdClasses(ctx context.Context, c *cyrus.Client, cfg config, args []string) error {
	fs := flag.NewFlagSet("classes", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit JSON instead of the table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := c.Sync(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "classes: sync:", err)
	}
	stats := c.ClassStats()
	if *asJSON {
		out := struct {
			DefaultClass string                      `json:"default_class,omitempty"`
			Rules        []cyrus.ClassRule           `json:"rules,omitempty"`
			Classes      map[string]cyrus.ClassUsage `json:"classes"`
		}{DefaultClass: cfg.DefaultClass, Rules: cfg.ClassRules, Classes: stats}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("%-12s %-5s %3s %3s %-24s %-20s %8s %12s\n",
		"CLASS", "TIER", "T", "N", "CSPS", "DEMOTE", "OBJECTS", "BYTES")
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	slices.Sort(names) // "" (the default class) first
	for _, name := range names {
		u := stats[name]
		label := name
		if label == "" {
			label = "(default)"
		}
		cspCol := "(all)"
		if len(u.Class.CSPs) > 0 {
			cspCol = strings.Join(u.Class.CSPs, ",")
		}
		demote := ""
		if u.Class.DemoteTo != "" {
			demote = fmt.Sprintf("%s -> %s", u.Class.DemoteAfter, u.Class.DemoteTo)
		}
		fmt.Printf("%-12s %-5s %3d %3d %-24s %-20s %8d %12d\n",
			label, u.Class.Tier, u.T, u.N, cspCol, demote, u.Objects, u.Bytes)
	}
	if cfg.DefaultClass != "" {
		fmt.Printf("default class: %s\n", cfg.DefaultClass)
	}
	for _, r := range cfg.ClassRules {
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
	// Stream into a sibling temp file and rename on success
	// (atomicfile.Write): an interrupted download never leaves a torn file
	// at the destination, and client memory stays bounded by the pipeline
	// window.
	var info cyrus.FileInfo
	err := atomicfile.Write(dst, 0o644, func(w io.Writer) (_ int64, err error) {
		if *version != "" {
			info, err = c.GetVersionTo(ctx, name, *version, w)
		} else {
			info, err = c.GetTo(ctx, name, w)
		}
		return 0, err
	})
	if err != nil {
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
		fmt.Printf("%s (%s), live leaves:\n", cf.Name, cf.Type)
		for _, v := range cf.Versions {
			fmt.Printf("  %s  %10d bytes  %s\n", v.VersionID, v.Size, v.Modified.Format("2006-01-02 15:04:05"))
		}
	}
	return nil
}

func cmdResolve(ctx context.Context, c *cyrus.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: resolve <name> <winner-version-id> (one of the live leaves 'conflicts' lists)")
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
