package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// Sync's contract under partial failure: it returns the number of records
// it DID absorb alongside the first error, and a record whose every share
// is rotten fails alone — it must not take the rest of the sync with it.
func TestSyncPartialFailureCountAndError(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	if err := w.Put(bg, "good", randData(1, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(bg, "doomed", randData(2, 3000)); err != nil {
		t.Fatal(err)
	}
	head, _, err := w.Tree().Head("doomed")
	if err != nil {
		t.Fatal(err)
	}
	vid := head.VersionID()

	// Rot every metadata share of the doomed record on every provider.
	// The verified search has nothing intact to work with, so the
	// record is genuinely unreadable — the point is that "good" still syncs.
	for _, name := range env.names {
		b := env.backends[name]
		for _, obj := range b.ObjectNames(metadata.MetaPrefix + w.names.recordKey("doomed", vid)) {
			b.MutateObject(obj, func(d []byte) []byte {
				d[len(d)/2] ^= 0x41
				return d
			})
		}
	}

	r := env.client("reader", nil)
	absorbed, err := r.Sync(bg)
	if err == nil {
		t.Fatal("Sync swallowed the unreadable record")
	}
	if !errors.Is(err, ErrDamaged) {
		t.Fatalf("Sync error = %v, want ErrDamaged", err)
	}
	if absorbed == 0 {
		t.Fatal("Sync absorbed nothing; the healthy record must not be held hostage")
	}
	if r.Tree().Has(vid) {
		t.Fatal("unreadable record appeared in the tree anyway")
	}
	if _, _, err := r.Get(bg, "good"); err != nil {
		t.Fatalf("healthy file unreadable after partial sync: %v", err)
	}
}

// cancellingStore cancels the given context on first download, modelling a
// caller whose context dies while the sync fan-out is in flight.
type cancellingStore struct {
	csp.Store
	cancel  context.CancelFunc
	tripped *atomic.Bool
}

func (s *cancellingStore) Download(ctx context.Context, name string) ([]byte, error) {
	if s.tripped.CompareAndSwap(false, true) {
		s.cancel()
	}
	return s.Store.Download(ctx, name)
}

// Sync under a context cancelled mid-fan-out must surface the
// cancellation, not report a clean empty sync.
func TestSyncCancelledContextMidFanout(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := w.Put(bg, name, randData(int64(len(name)), 2000)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var tripped atomic.Bool
	var stores []csp.Store
	for _, name := range env.names {
		s := cloudsimStore(t, env, name)
		stores = append(stores, &cancellingStore{Store: s, cancel: cancel, tripped: &tripped})
	}
	r, err := New(Config{
		ClientID: "reader",
		Key:      "shared-user-key",
		T:        2, N: 3,
	}, stores)
	if err != nil {
		t.Fatal(err)
	}

	absorbed, err := r.Sync(ctx)
	if err == nil {
		t.Fatalf("Sync reported success (%d absorbed) under a dying context", absorbed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sync error = %v, want to unwrap to context.Canceled", err)
	}
}

// Get's pre-read sync is best-effort by design (Algorithm 3 line 2 serves
// the local replica), but the failure must surface as a failed sync op so
// applications can tell a fresh view from a stale one.
func TestGetSurfacesSyncErrorEvent(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	w := env.client("writer", nil)
	data := randData(9, 5000)
	if err := w.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}

	o := obs.NewObserver()
	r := env.client("reader", func(cfg *Config) { cfg.Obs = o })
	if err := r.Recover(bg); err != nil {
		t.Fatal(err)
	}

	// Two injected faults per provider: the transfer engine retries each
	// List once, so both attempts must fail for the sync to fail. The
	// share downloads that follow succeed.
	for _, name := range env.names {
		env.backends[name].FailNext(2)
	}
	got, _, err := r.Get(bg, "doc")
	if err != nil {
		t.Fatalf("Get should have served the local replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Get served wrong bytes")
	}
	if p, _ := o.Registry().Snapshot().Find(obs.MetricOpDuration, map[string]string{"op": "sync", "result": "error"}); p.Count != 1 {
		t.Fatalf("op_duration_seconds_count{op=sync,result=error} = %v, want 1", p.Count)
	}
}

// cloudsimStore builds one authenticated raw store for wrapper tests.
func cloudsimStore(t *testing.T, env *testEnv, name string) csp.Store {
	t.Helper()
	s := cloudsim.NewSimStore(env.backends[name])
	if err := s.Authenticate(context.Background(), csp.Credentials{Token: "t"}); err != nil {
		t.Fatal(err)
	}
	return s
}
