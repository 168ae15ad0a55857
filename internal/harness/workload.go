package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metadata"
)

// step runs one workload operation: a PRNG-chosen client performs a
// PRNG-chosen operation. Operations are sequential — each completes before
// the next is drawn — so the op sequence is a pure function of the seed
// and the schedule. Operation failures under faults are tolerated (that is
// the point of the harness); what is never tolerated is a *successful*
// operation returning wrong data, which is checked inline.
func (h *Harness) step(ctx context.Context, i int) {
	c := h.clients[h.rng.Intn(len(h.clients))]
	name := fmt.Sprintf("f%02d", h.rng.Intn(h.opts.Files))
	switch p := h.rng.Intn(100); {
	case p < 35:
		h.doPut(ctx, c, name)
	case p < 60:
		h.doGet(ctx, c, name, i)
	case p < 68:
		_ = c.Delete(ctx, name)
	case p < 76:
		_, _ = c.Sync(ctx)
	case p < 84:
		h.doRange(ctx, c, name, i)
	case p < 90:
		_, _ = c.Stat(ctx, name)
	case p < 95:
		_, _ = c.List(ctx, "")
	case p < 98:
		h.doResolve(ctx, c)
	default:
		_, _ = c.GC(ctx)
	}
}

// doPut uploads fresh or edited content and, on acknowledgment, records
// the (file, version, bytes) triple in the durability oracle. Failed Puts
// are recorded too: their chunk shares are legitimate residue that the
// garbage check must account for.
func (h *Harness) doPut(ctx context.Context, c *core.Client, name string) {
	var data []byte
	if last, ok := h.lastAcked[name]; ok && h.rng.Intn(2) == 0 {
		data = append(append([]byte{}, last...), h.randBytes(1+h.rng.Intn(256))...)
	} else {
		data = h.randBytes(1 + h.rng.Intn(h.opts.MaxBytes))
	}
	var err error
	if h.opts.Streaming {
		// Feed the scanner through ragged fragments so the pipeline's fill
		// loop sees short reads mid-chunk, not one tidy buffer.
		err = c.PutReader(ctx, name, &raggedReader{data: data, rng: h.rng})
	} else {
		err = c.Put(ctx, name, data)
	}
	if err != nil {
		h.failedPuts = append(h.failedPuts, data)
		h.report.FailedPuts++
		return
	}
	vid := h.findVersion(c, name, data)
	if vid == "" {
		h.violate("read", "acked Put of %s not visible in the writer's own tree", name)
		return
	}
	h.acked = append(h.acked, AckedWrite{File: name, VersionID: vid, Client: c.ID(), Data: data})
	h.ackedByVID[vid] = data
	h.lastAcked[name] = data
	h.report.Acked++
	h.report.AckedVIDs = append(h.report.AckedVIDs, vid)
	if (h.opts.BreakPlacement || h.opts.BreakDurability) && !h.sabotaged {
		h.sabotaged = true
		h.sabotage(data)
	}
}

// raggedReader serves its data in PRNG-sized fragments (1..512 bytes) so a
// streamed Put exercises the scanner's partial-fill path. Reads happen on
// the workload goroutine inside PutReader, so sharing the harness PRNG is
// safe and keeps the run reproducible.
type raggedReader struct {
	data []byte
	rng  *rand.Rand
	off  int
}

func (r *raggedReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	want := 1 + r.rng.Intn(512)
	if want > len(p) {
		want = len(p)
	}
	n := copy(p[:want], r.data[r.off:])
	r.off += n
	return n, nil
}

// findVersion locates the version node serving the given content for the
// file. The head covers the common case; after conflicting writes the
// acked version may be a non-head leaf, so fall back to a full scan.
func (h *Harness) findVersion(c *core.Client, name string, data []byte) string {
	if head, _, err := c.Tree().Head(name); err == nil && head.Holds(data) {
		return head.VersionID()
	}
	best := ""
	for _, m := range c.Tree().All() {
		if m.File.Name != name || !m.Holds(data) {
			continue
		}
		if vid := m.VersionID(); vid > best {
			best = vid
		}
	}
	return best
}

// doGet reads a file and verifies the fundamental read guarantee: a
// successful Get must return exactly the bytes of some acknowledged write
// of that file — never a torn, corrupted, or phantom version.
func (h *Harness) doGet(ctx context.Context, c *core.Client, name string, i int) {
	var (
		got  []byte
		info core.FileInfo
		err  error
	)
	if h.opts.Streaming {
		var buf bytes.Buffer
		info, err = c.GetTo(ctx, name, &buf)
		got = buf.Bytes()
	} else {
		got, info, err = c.Get(ctx, name)
	}
	if err != nil {
		return
	}
	h.report.Reads++
	want, ok := h.ackedByVID[info.VersionID]
	if !ok && len(h.opts.Classes) > 0 {
		// A lifecycle demotion republishes acknowledged content under a
		// version ID the oracle has not seen yet (the migrator runs
		// concurrently with the workload). The read is legitimate iff the
		// bytes are exactly some acknowledged write of this file.
		for _, aw := range h.acked {
			if aw.File == name && bytes.Equal(got, aw.Data) {
				h.ackedByVID[info.VersionID] = aw.Data
				want, ok = aw.Data, true
				break
			}
		}
	}
	if !ok {
		h.violate("read", "op %d: Get(%s) served unacknowledged version %s", i, name, short(info.VersionID))
		return
	}
	if !bytes.Equal(got, want) {
		h.violate("read", "op %d: Get(%s) version %s returned %d bytes, want %d (content mismatch)",
			i, name, short(info.VersionID), len(got), len(want))
	}
}

// doRange reads a random slice and checks it against the acknowledged
// content of whichever version the client served.
func (h *Harness) doRange(ctx context.Context, c *core.Client, name string, i int) {
	last := h.lastAcked[name]
	if len(last) == 0 {
		return
	}
	off := h.rng.Intn(len(last))
	ln := 1 + h.rng.Intn(len(last)-off)
	got, info, err := c.GetRange(ctx, name, int64(off), int64(ln))
	if err != nil {
		return
	}
	h.report.Reads++
	want, ok := h.ackedByVID[info.VersionID]
	if !ok && len(h.opts.Classes) > 0 {
		// Same demoted-version allowance as doGet, matched on the slice.
		for _, aw := range h.acked {
			if aw.File != name || off >= len(aw.Data) {
				continue
			}
			end := off + ln
			if end > len(aw.Data) {
				end = len(aw.Data)
			}
			if bytes.Equal(got, aw.Data[off:end]) {
				want, ok = aw.Data, true
				break
			}
		}
	}
	if !ok {
		h.violate("read", "op %d: GetRange(%s) served unacknowledged version %s", i, name, short(info.VersionID))
		return
	}
	if off >= len(want) {
		return
	}
	end := off + ln
	if end > len(want) {
		end = len(want)
	}
	if !bytes.Equal(got, want[off:end]) {
		h.violate("read", "op %d: GetRange(%s)[%d:%d] content mismatch", i, name, off, end)
	}
}

// doResolve settles the first currently detected conflict, picking a
// random winner among the competing versions.
func (h *Harness) doResolve(ctx context.Context, c *core.Client) {
	for _, cf := range c.Tree().Conflicts() {
		winner := cf.Versions[h.rng.Intn(len(cf.Versions))]
		_ = c.Resolve(ctx, cf.Name, winner)
		return
	}
}

// sabotage performs the seeded-bug injection for the harness's self-test:
// it deliberately violates an invariant at the storage layer to prove the
// checker catches it.
func (h *Harness) sabotage(data []byte) {
	chunks := h.chunk.Split(data)
	if len(chunks) == 0 {
		return
	}
	id := metadata.HashData(chunks[0].Data)
	c := h.clients[0]
	if h.opts.BreakDurability {
		// Silently destroy two of the chunk's share objects wherever they
		// live. With n−t = 1 tolerated loss the chunk becomes unrecoverable.
		for _, idx := range []int{0, 1} {
			obj := c.ShareObjectName(id, idx, h.opts.T)
			for _, name := range h.names {
				h.backends[name].RemoveObject(obj)
			}
		}
		return
	}
	// BreakPlacement: copy share 0 onto a provider that already holds a
	// different share of the same chunk — the state a broken placement
	// guard would produce.
	obj0 := c.ShareObjectName(id, 0, h.opts.T)
	var share0 []byte
	for _, name := range h.names {
		if data, ok := h.backends[name].PeekObject(obj0); ok {
			share0 = data
			break
		}
	}
	if share0 == nil {
		return
	}
	for _, name := range h.names {
		b := h.backends[name]
		if _, holds0 := b.PeekObject(obj0); holds0 {
			continue
		}
		for idx := 1; idx < h.opts.N; idx++ {
			if _, ok := b.PeekObject(c.ShareObjectName(id, idx, h.opts.T)); ok {
				b.InjectObject(obj0, share0, h.now())
				return
			}
		}
	}
}
