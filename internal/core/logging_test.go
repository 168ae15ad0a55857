package core

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestStoreAndMigrationRecorded: the facts the client once logged — a
// stored version, a migrated share — are op records of the observer: the
// put and migrate op spans in cyrus_op_duration_seconds, and the migrated
// share's new home in the chunk table.
func TestStoreAndMigrationRecorded(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 5)
	o := obs.NewObserver()
	c := env.client("alice", func(cfg *Config) { cfg.Obs = o })

	data := randData(90, 4_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	if p, ok := o.Registry().Snapshot().Find(obs.MetricOpDuration, map[string]string{"op": "put", "result": "ok"}); !ok || p.Count != 1 {
		t.Fatalf("put ops recorded = %d (found %v), want 1", p.Count, ok)
	}
	// Removal + download triggers migration.
	var victim string
	for name := range env.backends {
		if len(c.ChunkTable().SharesOn(name)) > 0 {
			victim = name
			break
		}
	}
	if err := c.RemoveCSP(bg, victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "doc"); err != nil {
		t.Fatal(err)
	}
	if p, ok := o.Registry().Snapshot().Find(obs.MetricOpDuration, map[string]string{"op": "migrate", "result": "ok"}); !ok || p.Count == 0 {
		t.Fatalf("no migrate op recorded (found %v)", ok)
	}
	if left := c.ChunkTable().SharesOn(victim); len(left) > 0 {
		t.Fatalf("%d shares still placed on removed provider %s", len(left), victim)
	}
}

func TestCapacityFallback(t *testing.T) {
	t.Parallel()
	// One provider has almost no space: share uploads that land there are
	// rejected with ErrOverCapacity and must fall back to other providers.
	env := newEnv(t, 5)
	env.backends["cspa"].SetAvailable(true)
	// Rebuild cspa as a capacity-limited backend is not possible in-place;
	// instead use FailNext-style rejection by filling it: upload junk to
	// consume... simpler: a dedicated env.
	_ = env

	// Dedicated world with one tiny provider.
	tiny := newEnvWithCapacity(t, map[string]int64{"cspa": 64})
	c := tiny.client("alice", nil)
	data := randData(92, 8_000)
	if err := c.Put(bg, "doc", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip with capacity-starved provider: %v", err)
	}
}
