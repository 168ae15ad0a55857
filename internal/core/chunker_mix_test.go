package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/chunker"
	"repro/internal/metadata"
)

// TestMixedChunkerVersionChain: chunk boundaries are a write-time choice
// recorded in each version's ChunkRefs, so a file whose versions were cut by
// different algorithms — a Rabin-pinned client and a default (FastCDC) one
// taking turns on the same name — reads back byte-exact, version by version,
// from a client that has never seen either writer. Each writer still
// deduplicates against its own earlier chunks: a small edit uploads only the
// chunks it touched.
func TestMixedChunkerVersionChain(t *testing.T) {
	t.Parallel()
	env := newEnv(t, 4)
	pinRabin := func(c *Config) { c.Chunking.Algorithm = chunker.Rabin }
	writers := []*Client{env.client("rabin-writer", pinRabin), env.client("default-writer", nil)}
	if writers[0].chunk.Config().Algorithm != chunker.Rabin || writers[1].chunk.Config().Algorithm != chunker.FastCDC {
		t.Fatalf("writers chunk with %q and %q", writers[0].chunk.Config().Algorithm, writers[1].chunk.Config().Algorithm)
	}

	shareObjects := func() int {
		n := 0
		for _, b := range env.backends {
			for _, name := range b.ObjectNames("") {
				if strings.Contains(name, SharePrefix) {
					n++
				}
			}
		}
		return n
	}

	// v1 rabin, v2 default, v3 rabin, v4 default: each a 16-byte edit of
	// the one before, far enough apart to dirty different chunks.
	const size = 60_000
	versions := [][]byte{randData(71, size)}
	for i := 1; i < 4; i++ {
		next := bytes.Clone(versions[i-1])
		copy(next[i*size/4:], randData(int64(80+i), 16))
		versions = append(versions, next)
	}
	stored := map[string]bool{} // chunk IDs some version already uploaded
	var ids []string
	for i, data := range versions {
		w := writers[i%2]
		chunks := w.chunk.Split(data)
		fresh := 0
		for _, ch := range chunks {
			if id := metadata.HashData(ch.Data); !stored[id] {
				stored[id] = true
				fresh++
			}
		}
		before := shareObjects()
		if err := w.Put(bg, "doc", data); err != nil {
			t.Fatalf("v%d: %v", i+1, err)
		}
		if got, want := shareObjects()-before, fresh*3; got != want {
			t.Errorf("v%d (%s): %d new share objects, want %d (%d of %d chunks new)", i+1, w.chunk.Config().Algorithm, got, want, fresh, len(chunks))
		}
		if i >= 2 && fresh >= len(chunks)/2 {
			t.Errorf("v%d (%s): %d of %d chunks new after a 16-byte edit of the writer's last version", i+1, w.chunk.Config().Algorithm, fresh, len(chunks))
		}
		head, _, err := w.Tree().Head("doc")
		if err != nil {
			t.Fatal(err)
		}
		if len(head.Chunks) != len(chunks) {
			t.Fatalf("v%d: record has %d chunks, the writer's chunker cuts %d", i+1, len(head.Chunks), len(chunks))
		}
		for j, ref := range head.Chunks {
			if ref.Offset != chunks[j].Offset || ref.Size != int64(len(chunks[j].Data)) {
				t.Fatalf("v%d chunk %d: record says [%d,+%d), the writer's chunker cuts [%d,+%d)", i+1, j, ref.Offset, ref.Size, chunks[j].Offset, len(chunks[j].Data))
			}
		}
		ids = append(ids, head.VersionID())
	}

	reader := env.client("reader", nil)
	if _, err := reader.Sync(bg); err != nil {
		t.Fatal(err)
	}
	hist, err := reader.History(bg, "doc")
	if err != nil || len(hist) != len(versions) {
		t.Fatalf("History = %d versions, %v; want %d", len(hist), err, len(versions))
	}
	for i, want := range versions {
		got, info, err := getVersion(bg, reader, "doc", ids[i])
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("GetVersion v%d: %d bytes, %v", i+1, len(got), err)
		}
		if info.VersionID != ids[i] || info.Size != size {
			t.Fatalf("GetVersion v%d: info = %+v", i+1, info)
		}
	}
	latest := versions[len(versions)-1]
	got, _, err := reader.Get(bg, "doc")
	if err != nil || !bytes.Equal(got, latest) {
		t.Fatalf("Get: %d bytes, %v", len(got), err)
	}
	for _, r := range [][2]int64{{0, 1}, {0, size}, {size - 1, 1}, {size/4 - 8, 32}, {1000, 30_000}, {size / 2, size}} {
		part, _, err := reader.GetRange(bg, "doc", r[0], r[1])
		end := min(r[0]+r[1], size)
		if err != nil || !bytes.Equal(part, latest[r[0]:end]) {
			t.Fatalf("GetRange(%d, %d): %d bytes, %v", r[0], r[1], len(part), err)
		}
	}
}
