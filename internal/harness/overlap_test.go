package harness

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// newDedupWorld builds a dedup-mode harness world of `users` users with one
// client each on four providers. The overlap and refcount tests script its
// operations by hand instead of running the random workload, record every
// Put in the oracle (Harness.record), and finish with the full checkpoint.
func newDedupWorld(t *testing.T, seed int64, users int) *Harness {
	t.Helper()
	h, err := New(Options{Seed: seed, Users: users, Dedup: true, Providers: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

// checkpointClean runs the full invariant sweep and fails the test on any
// violation.
func checkpointClean(t *testing.T, h *Harness) {
	t.Helper()
	h.checkpoint(context.Background())
	for _, v := range h.report.Violations {
		t.Errorf("[%s] %s", v.Invariant, v.Detail)
	}
}

// overlapFile is one file of one user's scripted dataset.
type overlapFile struct {
	name string
	data []byte
}

// overlapDatasets scripts each user's files: round(ratio*files) of them are
// byte-identical across every user (drawn from the seed), the rest private
// to each user (from a user-salted seed). A fixed file size makes byte
// overlap equal file overlap.
func overlapDatasets(seed int64, users int, ratio float64) [][]overlapFile {
	const files, fileSize = 10, 8 << 10
	shared := int(float64(files)*ratio + 0.5)
	sharedRng := rand.New(rand.NewSource(seed))
	sharedFiles := make([]overlapFile, shared)
	for i := range sharedFiles {
		data := make([]byte, fileSize)
		sharedRng.Read(data)
		sharedFiles[i] = overlapFile{name: fmt.Sprintf("shared-%d", i), data: data}
	}
	var datasets [][]overlapFile
	for u := 0; u < users; u++ {
		dataset := append([]overlapFile(nil), sharedFiles...)
		privRng := rand.New(rand.NewSource(seed + 1_000_003*int64(u+1)))
		for i := shared; i < files; i++ {
			data := make([]byte, fileSize)
			privRng.Read(data)
			dataset = append(dataset, overlapFile{name: fmt.Sprintf("private-%d", i), data: data})
		}
		datasets = append(datasets, dataset)
	}
	return datasets
}

// TestMultiClientOverlap is the cross-user dedup acceptance test: users
// with distinct keys concurrently upload datasets at scripted overlap
// ratios, and the oracles verify the dedup ratio tracks the script while
// every durability, privacy, placement, and refcount invariant holds.
//
// The checkpoint audits what holds under any fault schedule. The
// assertions made here hold only without faults (chaos legitimately leaves
// orphans before GC and keeps migration sources): every CAS object carries
// exactly the tokens of the users whose datasets reference its chunk and
// is stored on exactly one provider, raw CAS bytes equal the union
// footprint, and the dedup metrics count exactly the duplicate uploads.
func TestMultiClientOverlap(t *testing.T) {
	seed := baseSeed(t)
	cases := []struct {
		name  string
		users int
		ratio float64
	}{
		{"overlap-0", 2, 0},
		{"overlap-30", 3, 0.3},
		{"overlap-90", 2, 0.9},
	}
	for i, tc := range cases {
		tc := tc
		i := i
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			seed := seed + int64(i)*271
			h := newDedupWorld(t, seed, tc.users)
			datasets := overlapDatasets(seed, tc.users, tc.ratio)
			ctx := context.Background()

			// One goroutine per user: equal chunks race each other onto the
			// providers, exercising the reference-token protocol's
			// concurrent-create path (run under -race).
			errs := make([][]error, tc.users)
			var wg sync.WaitGroup
			for u := range datasets {
				u := u
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, f := range datasets[u] {
						errs[u] = append(errs[u], h.clients[u].Put(ctx, f.name, f.data))
					}
				}()
			}
			wg.Wait()
			for u, dataset := range datasets {
				for j, f := range dataset {
					if errs[u][j] != nil {
						t.Fatalf("user%d put %s: %v", u, f.name, errs[u][j])
					}
					h.record(h.clients[u], f.name, f.data, nil)
				}
			}
			snap := h.obs.Registry().Snapshot()

			// The oracle's view of every unique chunk: its share size and
			// the users whose dataset contains it.
			type chunkExp struct {
				shareSize int64
				users     map[int]bool
			}
			exp := make(map[string]*chunkExp)
			chunkOf := make(map[string]string) // CAS object name -> chunk ID
			for u, dataset := range datasets {
				for _, f := range dataset {
					for _, chunk := range h.chunk.Split(f.data) {
						id := metadata.HashData(chunk.Data)
						if exp[id] == nil {
							exp[id] = &chunkExp{shareSize: erasure.ShareSize(int64(len(chunk.Data)), h.opts.T), users: make(map[int]bool)}
							for idx := 0; idx < h.opts.N; idx++ {
								chunkOf[h.shareName(0, id, idx, h.opts.T)] = id
							}
						}
						exp[id].users[u] = true
					}
				}
			}
			var totalChunks int
			var expectedBytes, singleUser, logicalBytes, wantHits, wantMisses, wantSaved int64
			for _, e := range exp {
				size, dups := int64(h.opts.N)*e.shareSize, int64(len(e.users)-1)
				totalChunks += len(e.users)
				expectedBytes += size
				logicalBytes += size * int64(len(e.users))
				if e.users[0] {
					singleUser += size
				}
				// Every duplicate share upload is a hit, every unique one a
				// miss, and the bytes saved are exactly the duplicate footprint.
				wantHits += dups * int64(h.opts.N)
				wantMisses += int64(h.opts.N)
				wantSaved += dups * size
			}

			// Exact token sets and one copy per object, on raw state.
			holders := make(map[string][]string)
			var casBytes int64
			for _, cspName := range h.names {
				b := h.backends[cspName]
				for _, obj := range b.ObjectNames(core.CASPrefix) {
					id, ok := chunkOf[obj]
					if !ok {
						continue // unaccounted: the checkpoint's garbage oracle reports it
					}
					holders[obj] = append(holders[obj], cspName)
					data, _ := b.PeekObject(obj)
					casBytes += int64(len(data))
					var want []string
					for u := range exp[id].users {
						want = append(want, h.naming[u].RefToken())
					}
					slices.Sort(want)
					if toks := b.RefTokens(obj); !slices.Equal(toks, want) {
						t.Errorf("[refcount] %s %s: tokens %v, want %v (one per referencing user)", cspName, obj, toks, want)
					}
				}
			}
			for obj := range chunkOf {
				if len(holders[obj]) != 1 {
					t.Errorf("[placement] share object %s stored on %d providers %v — dedup stores one copy", obj, len(holders[obj]), holders[obj])
				}
			}

			// Footprint and metrics against the script.
			if casBytes != expectedBytes {
				t.Errorf("[dedup] raw CAS bytes %d != union footprint %d (dedup ratio drifted from the overlap script)", casBytes, expectedBytes)
			}
			// At >= 90% overlap with two users the raw bytes on the CSPs stay
			// within 15% of a single user's footprint.
			if tc.users == 2 && tc.ratio >= 0.9 && singleUser > 0 && float64(casBytes) > 1.15*float64(singleUser) {
				t.Errorf("[dedup] two-user CAS bytes %d exceed 1.15x single-user footprint %d at %.0f%% overlap",
					casBytes, singleUser, 100*tc.ratio)
			}
			sum := func(name string) (total int64) {
				for _, p := range snap.Metrics {
					if p.Name == name {
						total += int64(p.Value)
					}
				}
				return total
			}
			hits, misses, saved := sum(obs.MetricDedupHits), sum(obs.MetricDedupMisses), sum(obs.MetricDedupBytesSaved)
			if hits != wantHits || misses != wantMisses || saved != wantSaved {
				t.Errorf("[dedup] metrics hits=%d misses=%d saved=%d, want hits=%d misses=%d saved=%d",
					hits, misses, saved, wantHits, wantMisses, wantSaved)
			}
			ratio := 1 - float64(casBytes)/float64(logicalBytes)
			t.Logf("users=%d overlap=%.0f%% uniqueChunks=%d totalChunks=%d casBytes=%d expected=%d single=%d ratio=%.3f hits=%d misses=%d saved=%d",
				tc.users, 100*tc.ratio, len(exp), totalChunks, casBytes, expectedBytes, singleUser, ratio, hits, misses, saved)
			// The dedup ratio must track the script: a fraction `ratio` of
			// each user's bytes is stored once instead of `users` times.
			wantRatio := tc.ratio * float64(tc.users-1) / float64(tc.users)
			if math.Abs(ratio-wantRatio) > 0.05 {
				t.Errorf("dedup ratio %.3f, want %.3f +- 0.05 (overlap script %.0f%%)", ratio, wantRatio, 100*tc.ratio)
			}
			if tc.ratio > 0 && hits == 0 {
				t.Errorf("no dedup hits recorded at %.0f%% overlap", 100*tc.ratio)
			}

			checkpointClean(t, h)
		})
	}
}

// refWorld is a dedup world plus raw RefStore handles for fabricating the
// provider-side state of crashed clients.
type refWorld struct {
	*Harness
	stores map[string]csp.RefStore
}

func newRefWorld(t *testing.T, seed int64) *refWorld {
	t.Helper()
	rw := &refWorld{Harness: newDedupWorld(t, seed, 2), stores: make(map[string]csp.RefStore)}
	for name, b := range rw.backends {
		s := cloudsim.NewSimStore(b)
		if err := s.Authenticate(context.Background(), csp.Credentials{Token: "chaos"}); err != nil {
			t.Fatal(err)
		}
		rw.stores[name] = s
	}
	return rw
}

// fabricateOrphan reproduces what a client crash mid-upload leaves behind:
// share objects with the user's reference token on the providers, no
// metadata record anywhere. The oracle counts it as content user u tried
// to upload. Returns the chunk's object names.
func (rw *refWorld) fabricateOrphan(t *testing.T, u int, data []byte) []string {
	t.Helper()
	id := metadata.HashData(data)
	shares, err := rw.conv.For(id).Encode(data, rw.opts.T, rw.opts.N)
	if err != nil {
		t.Fatal(err)
	}
	token := rw.naming[u].RefToken()
	names := make([]string, rw.opts.N)
	for i := 0; i < rw.opts.N; i++ {
		names[i] = rw.shareName(u, id, i, rw.opts.T)
		provider := rw.names[i%len(rw.names)]
		if _, err := rw.stores[provider].PutRef(context.Background(), names[i], token, shares[i].Data); err != nil {
			t.Fatalf("fabricating orphan share on %s: %v", provider, err)
		}
	}
	rw.tried[u] = append(rw.tried[u], data)
	return names
}

// objectHolders returns the providers physically holding an object.
func (rw *refWorld) objectHolders(name string) []string {
	var out []string
	for _, cspName := range rw.names {
		if _, ok := rw.backends[cspName].PeekObject(name); ok {
			out = append(out, cspName)
		}
	}
	return out
}

// tokensEverywhere returns the union of an object's token sets across
// providers (the chaos cases place each object on one provider only).
func (rw *refWorld) tokensEverywhere(name string) map[string]bool {
	out := make(map[string]bool)
	for _, cspName := range rw.names {
		for _, tok := range rw.backends[cspName].RefTokens(name) {
			out[tok] = true
		}
	}
	return out
}

// seqData builds deterministic single-chunk content (below the chunker's
// MinSize) distinct per salt.
func seqData(salt byte, size int) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = salt ^ byte(i*7+13)
	}
	return data
}

// TestRefcountChaos drives the refcount GC protocol through its crash
// windows: a client dying mid-upload, a GC racing a concurrent upload of
// the same chunk by another user, and a provider outage splitting a GC in
// half. The invariant throughout: no share is lost while any user
// references it, and no share outlives its last reference once a
// full-view GC has run.
func TestRefcountChaos(t *testing.T) {
	t.Parallel()
	rw := newRefWorld(t, baseSeed(t))
	ctx := context.Background()
	u0, u1 := rw.clients[0], rw.clients[1]
	tok0, tok1 := rw.naming[0].RefToken(), rw.naming[1].RefToken()

	// --- Phase A: client crash mid-upload, replayed by GC. ---
	// u0 owns `live` (content X). u1 crashed mid-upload of the same X plus
	// private content Y: tokens landed, metadata never did.
	liveData := seqData(1, 200)
	if err := u0.Put(ctx, "live", liveData); err != nil {
		t.Fatal(err)
	}
	rw.record(u0, "live", liveData, nil)
	liveNames := rw.fabricateOrphan(t, 1, liveData) // u1's token joins u0's objects
	privNames := rw.fabricateOrphan(t, 1, seqData(2, 210))

	if _, err := u1.GC(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range privNames {
		if holders := rw.objectHolders(name); len(holders) != 0 {
			t.Errorf("phase A: u1's private orphan %s survived its refcount draining (on %v)", name, holders)
		}
	}
	for _, name := range liveNames {
		if holders := rw.objectHolders(name); len(holders) == 0 {
			t.Errorf("phase A: shared share %s lost while u0 still references it", name)
		}
		toks := rw.tokensEverywhere(name)
		if !toks[tok0] || toks[tok1] {
			t.Errorf("phase A: %s tokens %v, want exactly u0's", name, toks)
		}
	}
	if got, _, err := u0.Get(ctx, "live"); err != nil || !bytes.Equal(got, liveData) {
		t.Fatalf("phase A: u0's live file after u1's GC replay: %v", err)
	}

	// --- Phase B: GC racing a concurrent upload of the same chunk. ---
	// u0 holds an orphaned copy of Z (a crashed upload); u1 uploads Z live
	// while u0's GC releases its token. Backend-atomic reference ops make
	// every interleaving safe: either u1 references the surviving object,
	// or it recreates the object after the delete.
	zData := seqData(3, 220)
	zNames := rw.fabricateOrphan(t, 0, zData)
	putErr, gcErr := make(chan error, 1), make(chan error, 1)
	go func() { putErr <- u1.Put(ctx, "z-file", zData) }()
	go func() {
		_, err := u0.GC(ctx)
		gcErr <- err
	}()
	if err := <-gcErr; err != nil {
		t.Fatal(err)
	}
	if err := <-putErr; err != nil {
		t.Fatal(err)
	}
	rw.record(u1, "z-file", zData, nil)
	if got, _, err := u1.Get(ctx, "z-file"); err != nil || !bytes.Equal(got, zData) {
		t.Fatalf("phase B: u1's file after racing u0's GC: %v", err)
	}
	for _, name := range zNames {
		if toks := rw.tokensEverywhere(name); !toks[tok1] {
			t.Errorf("phase B: %s lacks u1's token after its acknowledged upload", name)
		}
	}
	// A quiescent GC settles any interleaving-dependent leftovers: u0's
	// token must now be gone from Z (u0 references nothing of it).
	if _, err := u0.GC(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range zNames {
		toks := rw.tokensEverywhere(name)
		if toks[tok0] || !toks[tok1] {
			t.Errorf("phase B: %s tokens %v after quiescent GC, want exactly u1's", name, toks)
		}
	}

	// --- Phase C: provider outage splits a GC in half. ---
	// An orphan of u0's sits on three providers; a previous GC died after
	// releasing the token on the first (its copy drained away), and now a
	// second provider is down. The next GC must refuse to sweep off the
	// partial view; the one after the restart finishes the job.
	wData := seqData(4, 230)
	wNames := rw.fabricateOrphan(t, 0, wData)
	firstHolder := rw.objectHolders(wNames[0])[0]
	if removed, err := rw.stores[firstHolder].DelRef(ctx, wNames[0], tok0); err != nil || !removed {
		t.Fatalf("simulating half-finished GC: removed=%v err=%v", removed, err)
	}
	downProvider := rw.objectHolders(wNames[1])[0]
	rw.backends[downProvider].SetAvailable(false)
	if _, err := u0.GC(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range wNames[1:] {
		if len(rw.objectHolders(name)) == 0 {
			t.Errorf("phase C: %s released off a partial view (provider %s was down)", name, downProvider)
		}
	}
	rw.backends[downProvider].SetAvailable(true)
	u0.ProbeFailed(ctx)
	if _, err := u0.GC(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range wNames {
		if holders := rw.objectHolders(name); len(holders) != 0 {
			t.Errorf("phase C: orphan %s survived the full-view replay (on %v)", name, holders)
		}
	}
	if got, _, err := u0.Get(ctx, "live"); err != nil || !bytes.Equal(got, liveData) {
		t.Fatalf("phase C: u0's live file after all sweeps: %v", err)
	}
	if got, _, err := u1.Get(ctx, "z-file"); err != nil || !bytes.Equal(got, zData) {
		t.Fatalf("phase C: u1's file after all sweeps: %v", err)
	}

	// Global closing sweep, the refcount oracle included: nothing survives
	// with zero references, and every token is accounted.
	checkpointClean(t, rw.Harness)
}
