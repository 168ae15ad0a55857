package harness

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// The multi-client overlap harness: N *distinct users* (different keys,
// one shared deployment secret) concurrently upload datasets with a
// scripted byte-overlap ratio into one set of simulated clouds. The
// oracles then audit the convergent-dedup contract against raw provider
// state:
//
//   - convergence of content addresses: every expected CAS share object
//     exists exactly once with byte-exact content, and nothing else does
//   - dedup effectiveness: raw CAS bytes equal the *union* footprint (one
//     copy per unique chunk), and at 90% overlap the two-user footprint
//     stays within 15% of a single user's (the acceptance bound)
//   - refcount ground truth: every CAS object's provider-side token set
//     is exactly the set of users whose datasets reference its chunk
//   - placement and t-privacy: shared shares never double up on one
//     provider, and no provider holds enough shares to reconstruct
//   - per-user durability: under every provider kill-subset of size n−t,
//     a fresh device of each user (key + accounts only) re-reads every
//     acknowledged write byte-for-byte
//   - per-user metadata replication: every acknowledged version stays
//     recoverable from >= MetaT intact metadata shares

// OverlapOptions configures one multi-user overlap run.
type OverlapOptions struct {
	Seed      int64
	Users     int     // distinct users (default 2)
	Providers int     // simulated CSPs (default 4)
	T         int     // privacy level (default 2)
	N         int     // shares per chunk (default 3)
	MetaT     int     // metadata privacy level (default 2)
	Overlap   float64 // fraction of each user's files shared by all users
	Files     int     // files per user (default 10)
	FileSize  int     // bytes per file (default 8 KiB); fixed size makes byte overlap == file overlap
}

func (o OverlapOptions) withDefaults() OverlapOptions {
	if o.Users == 0 {
		o.Users = 2
	}
	if o.Providers == 0 {
		o.Providers = 4
	}
	if o.T == 0 {
		o.T = 2
	}
	if o.N == 0 {
		o.N = 3
	}
	if o.MetaT == 0 {
		o.MetaT = 2
	}
	if o.Files == 0 {
		o.Files = 10
	}
	if o.FileSize == 0 {
		o.FileSize = 8 << 10
	}
	return o
}

// OverlapReport is what one overlap run measured.
type OverlapReport struct {
	UniqueChunks  int
	TotalChunks   int   // sum of per-user chunk counts
	CASBytes      int64 // measured bytes stored under content addresses
	ExpectedBytes int64 // union footprint: one copy per unique chunk
	SingleUser    int64 // expected footprint of user 0 uploading alone
	LogicalBytes  int64 // sum of per-user footprints (no dedup baseline)
	DedupHits     int64
	DedupMisses   int64
	DedupSaved    int64
	Violations    []Violation
}

// DedupRatio is the fraction of logical share bytes dedup avoided storing.
func (r *OverlapReport) DedupRatio() float64 {
	if r.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(r.CASBytes)/float64(r.LogicalBytes)
}

// overlapFile is one file of one user's dataset.
type overlapFile struct {
	name string
	data []byte
}

// overlapWorld owns the simulated deployment of one overlap run.
type overlapWorld struct {
	opts     OverlapOptions
	backends map[string]*cloudsim.Backend
	names    []string
	users    []*core.Client // one primary device per user
	obs      *obs.Observer
	chunk    *chunker.Chunker
	conv     *erasure.ConvergentCoder
	datasets [][]overlapFile

	mu     sync.Mutex
	acked  []AckedWrite // Client field holds the user id ("user<u>")
	report OverlapReport
}

func overlapUserKey(u int) string { return fmt.Sprintf("user%d-key", u) }

// newOverlapWorld builds backends, one dedup-mode client per user, and the
// scripted datasets: round(Overlap*Files) files are byte-identical across
// every user, the rest are private to each.
func newOverlapWorld(opts OverlapOptions) (*overlapWorld, error) {
	opts = opts.withDefaults()
	w := &overlapWorld{
		opts:     opts,
		backends: make(map[string]*cloudsim.Backend),
		obs:      obs.NewObserver(),
		conv:     erasure.NewConvergentCoder(harnessDedupSecret),
	}
	ch, err := chunker.New(chunkingConfig)
	if err != nil {
		return nil, err
	}
	w.chunk = ch
	for i := 0; i < opts.Providers; i++ {
		name := fmt.Sprintf("csp%c", 'a'+i)
		identity := csp.NameKeyed
		if i%2 == 1 {
			identity = csp.IDKeyed
		}
		w.backends[name] = cloudsim.NewBackend(name, identity, 0)
		w.names = append(w.names, name)
	}
	sort.Strings(w.names)
	for u := 0; u < opts.Users; u++ {
		c, err := w.buildUser(u, fmt.Sprintf("user%d-dev0", u), w.obs)
		if err != nil {
			return nil, err
		}
		w.users = append(w.users, c)
	}

	// Datasets: the shared pool first (identical bytes for every user, from
	// the run seed), then per-user private files (from a user-salted seed).
	shared := int(float64(opts.Files)*opts.Overlap + 0.5)
	sharedRng := rand.New(rand.NewSource(opts.Seed))
	sharedFiles := make([]overlapFile, shared)
	for i := range sharedFiles {
		data := make([]byte, opts.FileSize)
		sharedRng.Read(data)
		sharedFiles[i] = overlapFile{name: fmt.Sprintf("shared-%d", i), data: data}
	}
	for u := 0; u < opts.Users; u++ {
		files := append([]overlapFile(nil), sharedFiles...)
		privRng := rand.New(rand.NewSource(opts.Seed + 1_000_003*int64(u+1)))
		for i := shared; i < opts.Files; i++ {
			data := make([]byte, opts.FileSize)
			privRng.Read(data)
			files = append(files, overlapFile{name: fmt.Sprintf("private-%d", i), data: data})
		}
		w.datasets = append(w.datasets, files)
	}
	return w, nil
}

// buildUser assembles one authenticated dedup-mode client for user u.
func (w *overlapWorld) buildUser(u int, id string, o *obs.Observer) (*core.Client, error) {
	cfg := core.Config{
		ClientID:    id,
		Key:         overlapUserKey(u),
		T:           w.opts.T,
		N:           w.opts.N,
		MetaT:       w.opts.MetaT,
		Chunking:    chunkingConfig,
		Obs:         o,
		DedupMode:   true,
		DedupSecret: harnessDedupSecret,
	}
	var stores []csp.Store
	for _, name := range w.names {
		s := cloudsim.NewSimStore(w.backends[name])
		if err := s.Authenticate(context.Background(), csp.Credentials{Token: "harness"}); err != nil {
			return nil, err
		}
		stores = append(stores, s)
	}
	return core.New(cfg, stores)
}

// inspector builds a fresh device of user u: key and accounts only.
func (w *overlapWorld) inspector(u int, id string) (*core.Client, error) {
	return w.buildUser(u, id, nil)
}

func (w *overlapWorld) violate(invariant, format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.report.Violations = append(w.report.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// uploadAll runs every user's uploads concurrently, one goroutine per
// user — equal chunks race each other onto the providers, exercising the
// reference-token protocol's concurrent-create path (run under -race).
func (w *overlapWorld) uploadAll(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.users))
	for u := range w.users {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range w.datasets[u] {
				if err := w.users[u].Put(ctx, f.name, f.data); err != nil {
					errs[u] = fmt.Errorf("user%d put %s: %w", u, f.name, err)
					return
				}
				head, _, err := w.users[u].Tree().Head(f.name)
				if err != nil {
					errs[u] = err
					return
				}
				w.mu.Lock()
				w.acked = append(w.acked, AckedWrite{
					File: f.name, VersionID: head.VersionID(),
					Client: fmt.Sprintf("user%d", u), Data: f.data,
				})
				w.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkExpectation is the oracle's view of one unique chunk.
type chunkExpectation struct {
	id    string
	data  []byte
	users map[int]bool // users whose dataset contains the chunk
}

// expectations re-chunks every dataset and unions the result.
func (w *overlapWorld) expectations() map[string]*chunkExpectation {
	exp := make(map[string]*chunkExpectation)
	for u, files := range w.datasets {
		for _, f := range files {
			for _, chunk := range w.chunk.Split(f.data) {
				id := metadata.HashData(chunk.Data)
				e := exp[id]
				if e == nil {
					e = &chunkExpectation{id: id, data: append([]byte(nil), chunk.Data...), users: make(map[int]bool)}
					exp[id] = e
				}
				e.users[u] = true
			}
		}
	}
	return exp
}

// checkAll runs every oracle and fills in the report.
func (w *overlapWorld) checkAll(ctx context.Context) *OverlapReport {
	exp := w.expectations()
	w.checkCASState(exp)
	w.checkDedupAccounting(exp)
	w.checkDurability(ctx)
	w.checkMetaReplication()
	return &w.report
}

// checkCASState walks raw provider state: every expected share object of
// every unique chunk exists exactly once with byte-exact content and the
// exact token set of its referencing users; no provider doubles up on a
// chunk; no provider can reconstruct one; nothing unaccounted is stored
// under the CAS prefix.
func (w *overlapWorld) checkCASState(exp map[string]*chunkExpectation) {
	t, n := w.opts.T, w.opts.N
	naming := w.users[0]

	type objExp struct {
		chunk *chunkExpectation
		index int
		data  []byte
	}
	want := make(map[string]objExp, len(exp)*n)
	var expectedBytes, singleUser, logicalBytes int64
	for _, e := range exp {
		shares, err := w.conv.For(e.id).Encode(e.data, t, n)
		if err != nil {
			w.violate("convergence", "chunk %s does not encode: %v", short(e.id), err)
			continue
		}
		for i := 0; i < n; i++ {
			want[naming.ShareObjectName(e.id, i, t)] = objExp{chunk: e, index: i, data: shares[i].Data}
		}
		size := int64(n) * erasure.ShareSize(int64(len(e.data)), t)
		expectedBytes += size
		logicalBytes += size * int64(len(e.users))
		if e.users[0] {
			singleUser += size
		}
	}
	w.mu.Lock()
	w.report.UniqueChunks = len(exp)
	for _, e := range exp {
		w.report.TotalChunks += len(e.users)
	}
	w.report.ExpectedBytes = expectedBytes
	w.report.SingleUser = singleUser
	w.report.LogicalBytes = logicalBytes
	w.mu.Unlock()

	tokenOf := make(map[int]string, len(w.users))
	for u, c := range w.users {
		tokenOf[u] = c.RefToken()
	}

	seen := make(map[string][]string) // object name -> providers holding it
	var measured int64
	for _, cspName := range w.names {
		b := w.backends[cspName]
		perChunk := make(map[string]int) // chunk id -> distinct shares here
		for _, obj := range b.ObjectNames(core.CASPrefix) {
			oe, ok := want[obj]
			if !ok {
				w.violate("garbage", "%s: unaccounted content-addressed object %q", cspName, obj)
				continue
			}
			seen[obj] = append(seen[obj], cspName)
			data, _ := b.PeekObject(obj)
			measured += int64(len(data))
			if !bytes.Equal(data, oe.data) {
				w.violate("convergence", "%s: object %s content diverges from the convergent encoding", cspName, short(obj))
			}
			perChunk[oe.chunk.id]++

			toks := b.RefTokens(obj)
			wantToks := make(map[string]bool, len(oe.chunk.users))
			for u := range oe.chunk.users {
				wantToks[tokenOf[u]] = true
			}
			if len(toks) != len(wantToks) {
				w.violate("refcount", "%s %s: %d reference tokens, want %d (one per referencing user)",
					cspName, short(obj), len(toks), len(wantToks))
				continue
			}
			for _, tok := range toks {
				if !wantToks[tok] {
					w.violate("refcount", "%s %s: token %s belongs to no referencing user", cspName, short(obj), tok)
				}
			}
		}
		for id, count := range perChunk {
			if count >= t {
				w.violate("privacy", "%s holds %d shares of chunk %s — enough to reconstruct (t=%d)", cspName, count, short(id), t)
			}
		}
	}
	w.mu.Lock()
	w.report.CASBytes = measured
	w.mu.Unlock()

	for obj, oe := range want {
		switch holders := seen[obj]; len(holders) {
		case 0:
			w.violate("durability", "share object %s of chunk %s exists nowhere", short(obj), short(oe.chunk.id))
		case 1:
			// The converged state: exactly one copy per share object.
		default:
			w.violate("placement", "share object %s stored on %d providers %v — dedup should store one copy", short(obj), len(holders), holders)
		}
	}
}

// checkDedupAccounting verifies the measured footprint and the dedup
// metrics against the scripted overlap, including the acceptance bound.
func (w *overlapWorld) checkDedupAccounting(exp map[string]*chunkExpectation) {
	w.mu.Lock()
	r := w.report
	w.mu.Unlock()
	if r.CASBytes != r.ExpectedBytes {
		w.violate("dedup", "raw CAS bytes %d != union footprint %d (dedup ratio drifted from the overlap script)",
			r.CASBytes, r.ExpectedBytes)
	}
	// The ISSUE acceptance bound: at >= 90%% overlap with two users, the
	// raw bytes on the CSPs stay within 15%% of a single user's footprint.
	if w.opts.Users == 2 && w.opts.Overlap >= 0.9 && r.SingleUser > 0 {
		if float64(r.CASBytes) > 1.15*float64(r.SingleUser) {
			w.violate("dedup", "two-user CAS bytes %d exceed 1.15x single-user footprint %d at %.0f%% overlap",
				r.CASBytes, r.SingleUser, 100*w.opts.Overlap)
		}
	}

	// Metric oracle: every duplicate share upload is a hit, every unique
	// one a miss, and the bytes saved are exactly the duplicate footprint.
	var wantHits, wantMisses, wantSaved int64
	for _, e := range exp {
		dups := int64(len(e.users) - 1)
		wantHits += dups * int64(w.opts.N)
		wantMisses += int64(w.opts.N)
		wantSaved += dups * int64(w.opts.N) * erasure.ShareSize(int64(len(e.data)), w.opts.T)
	}
	snap := w.obs.Registry().Snapshot()
	sum := func(name string) (total int64) {
		for _, p := range snap.Metrics {
			if p.Name == name {
				total += int64(p.Value)
			}
		}
		return total
	}
	hits, misses, saved := sum(obs.MetricDedupHits), sum(obs.MetricDedupMisses), sum(obs.MetricDedupBytesSaved)
	w.mu.Lock()
	w.report.DedupHits, w.report.DedupMisses, w.report.DedupSaved = hits, misses, saved
	w.mu.Unlock()
	if hits != wantHits || misses != wantMisses || saved != wantSaved {
		w.violate("dedup", "metrics hits=%d misses=%d saved=%d, want hits=%d misses=%d saved=%d",
			hits, misses, saved, wantHits, wantMisses, wantSaved)
	}
}

// checkDurability fails every provider subset of size n−t and re-reads
// every user's acknowledged writes through a fresh device of that user.
func (w *overlapWorld) checkDurability(ctx context.Context) {
	w.mu.Lock()
	acked := append([]AckedWrite(nil), w.acked...)
	w.mu.Unlock()
	perUser := make(map[int][]AckedWrite)
	for _, aw := range acked {
		var u int
		fmt.Sscanf(aw.Client, "user%d", &u)
		perUser[u] = append(perUser[u], aw)
	}
	for si, subset := range combinations(w.names, w.opts.N-w.opts.T) {
		for _, name := range subset {
			w.backends[name].SetAvailable(false)
		}
		for u := range w.users {
			insp, err := w.inspector(u, fmt.Sprintf("insp-u%d-s%d", u, si))
			if err != nil {
				w.violate("durability", "building user%d recovery device: %v", u, err)
				continue
			}
			// Foreign users' records are unreadable by design, so the sync
			// reports an error while absorbing everything this user owns;
			// the reads below are the actual oracle.
			_, _ = insp.Sync(ctx)
			insp.ChunkTable().Rebuild(insp.Tree().All())
			for _, aw := range perUser[u] {
				got, _, err := insp.GetVersion(ctx, aw.File, aw.VersionID)
				if err != nil {
					w.violate("durability", "user%d with %v down: %s version %s unreadable: %v",
						u, subset, aw.File, short(aw.VersionID), err)
					continue
				}
				if !bytes.Equal(got, aw.Data) {
					w.violate("durability", "user%d with %v down: %s read back wrong bytes", u, subset, aw.File)
				}
			}
		}
		for _, name := range subset {
			w.backends[name].SetAvailable(true)
		}
	}
}

// checkMetaReplication verifies every acknowledged version of every user
// stays recoverable from >= MetaT intact metadata shares. Metadata is
// per-user (keyed by the user's secret), so the shares are recomputed with
// each user's own coder.
func (w *overlapWorld) checkMetaReplication() {
	n := len(w.names)
	metaT := w.opts.MetaT
	if metaT > n {
		metaT = n
	}
	w.mu.Lock()
	acked := append([]AckedWrite(nil), w.acked...)
	w.mu.Unlock()
	for _, aw := range acked {
		var u int
		fmt.Sscanf(aw.Client, "user%d", &u)
		coder := erasure.NewCoder(overlapUserKey(u))
		m, err := w.users[u].Tree().Get(aw.VersionID)
		if err != nil {
			w.violate("meta-replication", "user%d version %s missing from its own tree", u, short(aw.VersionID))
			continue
		}
		blob, err := metadata.Encode(m)
		if err != nil {
			w.violate("meta-replication", "version %s does not re-encode: %v", short(aw.VersionID), err)
			continue
		}
		expected, err := coder.Encode(blob, metaT, n)
		if err != nil {
			w.violate("meta-replication", "version %s share recomputation failed: %v", short(aw.VersionID), err)
			continue
		}
		intact := 0
		for idx := 0; idx < n; idx++ {
			name := w.users[u].MetaShareObjectName(m.File.Name, aw.VersionID, idx)
			for _, cspName := range w.names {
				if data, ok := w.backends[cspName].PeekObject(name); ok && bytes.Equal(data, expected[idx].Data) {
					intact++
					break
				}
			}
		}
		if intact < metaT {
			w.violate("meta-replication", "user%d version %s: %d intact metadata shares, need %d",
				u, short(aw.VersionID), intact, metaT)
		}
	}
}

// checkNoZeroRefObjects asserts no content-addressed object survives with
// an empty token set (one should be deleted the moment its last reference
// drains) — the "nothing survives refcount zero" half of the GC contract.
func (w *overlapWorld) checkNoZeroRefObjects() {
	for _, cspName := range w.names {
		b := w.backends[cspName]
		for _, obj := range b.ObjectNames(core.CASPrefix) {
			if len(b.RefTokens(obj)) == 0 {
				w.violate("refcount", "%s: object %s has zero reference tokens but still exists", cspName, short(obj))
			}
		}
	}
}
