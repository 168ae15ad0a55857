package main

import (
	"bytes"
	"fmt"

	"repro/cyrus"
)

// Per-round op counts. One run repeats whole rounds (fresh providers, fresh
// client, these fixed counts) until --seconds is used up and reports medians
// over rounds, so a round is sized to ~4 s on the 2-core sandbox. Object
// sizes are the ones ISSUE 13 names; op counts are its counts scaled down
// (factor in each comment) to fit the driver's per-run time cap.
const (
	largeObject   = 32 << 20
	largeOps      = 6 // ISSUE: 32 (x~1/5)
	smallObject   = 16 << 10
	smallOps      = 300 // ISSUE: 1000 (x~1/3)
	editVersions  = 5   // ISSUE: 32 (x~1/6)
	editsPerVer   = 4
	editBytes     = 4 << 10
	rangeReads    = 50 // ISSUE: 300 (x1/6)
	rangeBytes    = 1 << 20
	nsFiles       = 100 // ISSUE: 1000 (x1/10)
	nsDirs        = 20
	nsFileBytes   = 1 << 10
	nsMutations   = 300 // ISSUE: 300
	nsColdSyncs   = 30  // ISSUE: 30
	metaAllowance = 0.01
)

// phases are the three parts of one round. setup is untimed per op but its
// wall time (with provider spawn and client construction) is setup_s;
// write and read are the timed phases. An error return is a harness
// failure that aborts the run; a failed or wrong operation is recorded
// through round.op / round.check and counted, not returned.
type phases struct {
	setup, write, read func() error
}

var workloadImpl = map[string]func(r *round) phases{
	"large_stream":   largeStream,
	"small_burst":    smallBurst,
	"edit_resync":    editResync,
	"namespace_sync": namespaceSync,
}

// warmUp runs one Put+Get so connection set-up and lazy initialisation
// are paid in setup, not by the first timed op.
func warmUp(r *round, size int) error {
	buf := make([]byte, size)
	r.gen(func() { r.rng.fill(buf) })
	if err := r.client.Put(r.ctx, "warmup", buf); err != nil {
		return fmt.Errorf("warm-up put: %w", err)
	}
	got, _, err := r.client.Get(r.ctx, "warmup")
	if err != nil {
		return fmt.Errorf("warm-up get: %w", err)
	}
	if !bytes.Equal(got, buf) {
		return fmt.Errorf("warm-up get: wrong content")
	}
	r.setupBytes += int64(size)
	return nil
}

// largeStream: chunker, chunk hash, erasure/gf256, the pipeline window and
// resthttp body streaming do nearly all the work.
func largeStream(r *round) phases {
	buf := make([]byte, largeObject)
	want := make([]sum, largeOps)
	name := func(i int) string { return fmt.Sprintf("large/obj-%03d", i) }
	return phases{
		setup: func() error { return warmUp(r, largeObject) },
		write: func() error {
			for i := range want {
				r.gen(func() { r.rng.fill(buf) })
				want[i] = sumOf(buf)
				r.wrote(name(i), buf)
				r.op("PutReader", largeObject, func() error {
					return r.client.PutReader(r.ctx, name(i), bytes.NewReader(buf))
				})
			}
			return nil
		},
		read: func() error {
			for _, i := range r.order(largeOps) {
				r.reads(name(i), 0, largeObject, true)
				var w sumWriter
				r.op("GetTo", largeObject, func() error {
					_, err := r.client.GetTo(r.ctx, name(i), &w)
					return err
				})
				r.check(w.sum == want[i], "GetTo %s: got %d bytes crc %08x, want %d bytes crc %08x",
					name(i), w.n, w.crc, want[i].n, want[i].crc)
			}
			return nil
		},
	}
}

// smallBurst: one chunk per op, so per-op fixed cost dominates (best-effort
// Sync, metadata scatter, selector, admission, HTTP round trips).
func smallBurst(r *round) phases {
	buf := make([]byte, smallObject)
	want := make([]sum, smallOps)
	name := func(i int) string { return fmt.Sprintf("small/obj-%04d", i) }
	return phases{
		setup: func() error { return warmUp(r, smallObject) },
		write: func() error {
			for i := range want {
				r.gen(func() { r.rng.fill(buf) })
				want[i] = sumOf(buf)
				r.wrote(name(i), buf)
				r.op("Put", smallObject, func() error { return r.client.Put(r.ctx, name(i), buf) })
			}
			return nil
		},
		read: func() error {
			for _, i := range r.order(smallOps) {
				r.reads(name(i), 0, smallObject, true)
				var got []byte
				r.op("Get", smallObject, func() (err error) {
					got, _, err = r.client.Get(r.ctx, name(i))
					return err
				})
				r.check(sumOf(got) == want[i], "Get %s: wrong content (%d bytes)", name(i), len(got))
			}
			return nil
		},
	}
}

// editResync: every version is scanned and hashed in full but only the
// chunks an edit touched are encoded and uploaded; reads are partial
// gathers of one or two chunks.
//
// The document and the edit offsets are the same for every seed. A 32 MiB
// document is only ~8 content-defined chunks of 1-16 MiB, and which chunks
// exist and which an edit dirties set the cost of every op and the stored
// bytes; letting the seed redraw them moved read_ops_per_s by 40% and
// stored_bytes_per_user_byte by 14% between seeds, far beyond any bound.
// The seed draws what the client cannot tell apart: the edited bytes, and
// the read offsets (one per equal stratum of the document, so every seed
// spreads its reads over the chunks alike) and their order.
func editResync(r *round) phases {
	fixed := newRng(0xD0C)
	doc := make([]byte, largeObject)
	edit := make([]byte, editBytes)
	return phases{
		setup: func() error {
			if err := warmUp(r, smallObject); err != nil {
				return err
			}
			r.gen(func() { fixed.fill(doc) })
			r.wrote("doc", doc)
			if err := r.client.PutReader(r.ctx, "doc", bytes.NewReader(doc)); err != nil {
				return fmt.Errorf("put doc: %w", err)
			}
			r.setupBytes += largeObject
			return nil
		},
		write: func() error {
			for v := 0; v < editVersions; v++ {
				r.gen(func() {
					for e := 0; e < editsPerVer; e++ {
						r.rng.fill(edit)
						copy(doc[fixed.intn(largeObject-editBytes):], edit)
					}
				})
				r.wrote("doc", doc)
				r.op("PutReader", largeObject, func() error {
					return r.client.PutReader(r.ctx, "doc", bytes.NewReader(doc))
				})
			}
			return nil
		},
		read: func() error {
			const stratum = (largeObject - rangeBytes) / rangeReads
			for _, k := range r.order(rangeReads) {
				off := int64(k*stratum + r.rng.intn(stratum))
				r.reads("doc", off, rangeBytes, false)
				var got []byte
				r.op("GetRange", rangeBytes, func() (err error) {
					got, _, err = r.client.GetRange(r.ctx, "doc", off, rangeBytes)
					return err
				})
				r.check(bytes.Equal(got, doc[off:off+rangeBytes]), "GetRange doc@%d: wrong content (%d bytes)", off, len(got))
			}
			return nil
		},
	}
}

// namespaceSync: metadata plane only. The write publishes one record per
// op and moves no share; the read is a fresh client's cold Sync, which
// lists every provider and fetches and decodes every record.
func namespaceSync(r *round) phases {
	name := func(i int) string { return fmt.Sprintf("dir-%02d/file-%04d", i%nsDirs, i) }
	buf := make([]byte, nsFileBytes)
	return phases{
		setup: func() error {
			for i := 0; i < nsFiles; i++ {
				r.gen(func() { r.rng.fill(buf) })
				r.wrote(name(i), buf)
				if err := r.client.Put(r.ctx, name(i), buf); err != nil {
					return fmt.Errorf("put %s: %w", name(i), err)
				}
				r.setupBytes += nsFileBytes
			}
			return nil
		},
		write: func() error {
			target := name(0)
			for m := 0; m < nsMutations; m += 2 {
				live, err := r.client.StatLocal(target)
				if err != nil {
					return fmt.Errorf("stat %s: %w", target, err)
				}
				r.op("Delete", 0, func() error { return r.client.Delete(r.ctx, target) })
				st, err := r.client.StatLocal(target)
				r.check(err == nil && st.Deleted, "Delete %s: head is not a deletion marker", target)
				r.op("Restore", 0, func() error { return r.client.Restore(r.ctx, target, live.VersionID) })
				st, err = r.client.StatLocal(target)
				r.check(err == nil && !st.Deleted && st.Size == nsFileBytes, "Restore %s: head is not live", target)
			}
			return nil
		},
		read: func() error {
			want, err := r.client.ListLocal("")
			if err != nil {
				return err
			}
			for i := 0; i < nsColdSyncs; i++ {
				fresh, err := r.newClient(fmt.Sprintf("reader-%d", i))
				if err != nil {
					return err
				}
				var got []cyrus.FileInfo
				r.op("ColdSync", 0, func() (err error) {
					if _, err = fresh.Sync(r.ctx); err != nil {
						return err
					}
					got, err = fresh.ListLocal("")
					return err
				})
				r.readRecords += fresh.Tree().Len()
				r.check(sameListing(got, want), "cold Sync %d: %d live names, writer has %d (or a size/version differs)", i, len(got), len(want))
			}
			return nil
		},
	}
}

// sameListing compares two sorted listings by name, size and version.
func sameListing(got, want []cyrus.FileInfo) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Name != want[i].Name || got[i].Size != want[i].Size || got[i].VersionID != want[i].VersionID {
			return false
		}
	}
	return true
}
