package main

import (
	"context"
	"io"
	"sync"
	"time"

	"repro/internal/csp"
)

// span is one recorded interval: a client call ("op:Put"), a connector call
// beneath it ("store:upload"), or a layer replay ("replay:chunker.scan").
// Times are nanoseconds since the tracer's epoch. Trace is the op's index
// in the run, shared by the op span and its children.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	Round   int    `json:"round"`
	Phase   string `json:"phase"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	CSP     string `json:"csp,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Entries int    `json:"entries,omitempty"`
	Err     string `json:"err,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends. The benchmark drives one
// closed-loop caller, so "the current op" is a single value: every store
// call between beginOp and endOp is that op's child. A call that outlives
// its op (a cancelled hedge loser) still belongs to the op that started it:
// the parent is read when the call begins.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	curOp  int // span ID of the open op, 0 when none
	traces int
	round  int
	phase  string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) setPhase(round int, phase string) {
	t.mu.Lock()
	t.round, t.phase = round, phase
	t.mu.Unlock()
}

// current returns the open op's span ID and trace index (0, 0 when none).
func (t *tracer) current() (parent, trace int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.curOp == 0 {
		return 0, 0
	}
	return t.curOp, t.spans[t.curOp-1].Trace
}

// add appends a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Round, s.Phase = t.round, t.phase
	t.spans = append(t.spans, s)
}

func (t *tracer) beginOp(name string) {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	t.curOp = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: t.curOp, Trace: t.traces, Name: "op:" + name,
		Round: t.round, Phase: t.phase, Start: start})
}

func (t *tracer) endOp(err error) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[t.curOp-1]
	s.End = end
	if err != nil {
		s.Err = err.Error()
	}
	t.curOp = 0
}

// replaySpan records one layer replay; it runs between ops, so it has no
// parent.
func (t *tracer) replaySpan(layer string, start int64, bytes int64) {
	t.add(span{Name: "replay:" + layer, Start: start, End: t.now(), Bytes: bytes})
}

// tracedStore decorates a connector with one span per call. It implements
// csp.Store only; wrapStore adds each optional capability exactly when the
// wrapped store has it, so core takes the same code path traced or not.
type tracedStore struct {
	inner csp.Store
	t     *tracer
}

func (s *tracedStore) call(verb string, fn func() (bytes int64, entries int, err error)) {
	parent, trace := s.t.current()
	start := s.t.now()
	bytes, entries, err := fn()
	sp := span{Parent: parent, Trace: trace, Name: "store:" + verb, Start: start, End: s.t.now(),
		CSP: s.inner.Name(), Bytes: bytes, Entries: entries}
	if err != nil {
		sp.Err = err.Error()
	}
	s.t.add(sp)
}

func (s *tracedStore) Name() string { return s.inner.Name() }

func (s *tracedStore) Authenticate(ctx context.Context, creds csp.Credentials) (err error) {
	s.call("authenticate", func() (int64, int, error) {
		err = s.inner.Authenticate(ctx, creds)
		return 0, 0, err
	})
	return err
}

func (s *tracedStore) List(ctx context.Context, prefix string) (out []csp.ObjectInfo, err error) {
	s.call("list", func() (int64, int, error) {
		out, err = s.inner.List(ctx, prefix)
		return 0, len(out), err
	})
	return out, err
}

func (s *tracedStore) Upload(ctx context.Context, name string, data []byte) (err error) {
	s.call("upload", func() (int64, int, error) {
		err = s.inner.Upload(ctx, name, data)
		return int64(len(data)), 0, err
	})
	return err
}

func (s *tracedStore) Download(ctx context.Context, name string) (data []byte, err error) {
	s.call("download", func() (int64, int, error) {
		data, err = s.inner.Download(ctx, name)
		return int64(len(data)), 0, err
	})
	return data, err
}

func (s *tracedStore) Delete(ctx context.Context, name string) (err error) {
	s.call("delete", func() (int64, int, error) {
		err = s.inner.Delete(ctx, name)
		return 0, 0, err
	})
	return err
}

// The four optional capabilities, each a separate type so a wrapper has
// the method only when compose embeds it.
type (
	traceUp    struct{ s *tracedStore }
	traceDown  struct{ s *tracedStore }
	traceBatch struct{ s *tracedStore }
	traceRef   struct{ s *tracedStore }
)

func (u traceUp) UploadFrom(ctx context.Context, name string, r io.Reader) (n int64, err error) {
	u.s.call("upload", func() (int64, int, error) {
		n, err = u.s.inner.(csp.StreamUploader).UploadFrom(ctx, name, r)
		return n, 0, err
	})
	return n, err
}

func (d traceDown) DownloadTo(ctx context.Context, name string, w io.Writer) (n int64, err error) {
	d.s.call("download", func() (int64, int, error) {
		n, err = d.s.inner.(csp.StreamDownloader).DownloadTo(ctx, name, w)
		return n, 0, err
	})
	return n, err
}

func (b traceBatch) DownloadBatch(ctx context.Context, names []string) (out map[string][]byte, err error) {
	b.s.call("download_batch", func() (int64, int, error) {
		out, err = b.s.inner.(csp.BatchDownloader).DownloadBatch(ctx, names)
		var total int64
		for _, d := range out {
			total += int64(len(d))
		}
		return total, len(out), err
	})
	return out, err
}

func (r traceRef) PutRef(ctx context.Context, name, ref string, data []byte) (created bool, err error) {
	r.s.call("put_ref", func() (int64, int, error) {
		created, err = r.s.inner.(csp.RefStore).PutRef(ctx, name, ref, data)
		if !created {
			return 0, 0, err
		}
		return int64(len(data)), 0, err
	})
	return created, err
}

func (r traceRef) AddRef(ctx context.Context, name, ref string) (err error) {
	r.s.call("add_ref", func() (int64, int, error) {
		err = r.s.inner.(csp.RefStore).AddRef(ctx, name, ref)
		return 0, 0, err
	})
	return err
}

func (r traceRef) DelRef(ctx context.Context, name, ref string) (removed bool, err error) {
	r.s.call("del_ref", func() (int64, int, error) {
		removed, err = r.s.inner.(csp.RefStore).DelRef(ctx, name, ref)
		return 0, 0, err
	})
	return removed, err
}

func (r traceRef) Refs(ctx context.Context, name string) (refs []string, err error) {
	r.s.call("refs", func() (int64, int, error) {
		refs, err = r.s.inner.(csp.RefStore).Refs(ctx, name)
		return 0, len(refs), err
	})
	return refs, err
}

// wrapStore returns a traced store with exactly the optional capabilities
// of inner.
func wrapStore(inner csp.Store, t *tracer) csp.Store {
	s := &tracedStore{inner: inner, t: t}
	var (
		up    csp.StreamUploader
		down  csp.StreamDownloader
		batch csp.BatchDownloader
		ref   csp.RefStore
	)
	if _, ok := inner.(csp.StreamUploader); ok {
		up = traceUp{s}
	}
	if _, ok := inner.(csp.StreamDownloader); ok {
		down = traceDown{s}
	}
	if _, ok := inner.(csp.BatchDownloader); ok {
		batch = traceBatch{s}
	}
	if _, ok := inner.(csp.RefStore); ok {
		ref = traceRef{s}
	}
	return compose(s, up, down, batch, ref)
}

// compose returns a store with base's five calls plus exactly the non-nil
// capabilities. Go cannot add methods at run time, so each of the 16
// subsets is its own struct type.
func compose(base csp.Store, up csp.StreamUploader, down csp.StreamDownloader, batch csp.BatchDownloader, ref csp.RefStore) csp.Store {
	type (
		S = csp.Store
		U = csp.StreamUploader
		D = csp.StreamDownloader
		B = csp.BatchDownloader
		R = csp.RefStore
	)
	mask := 0
	if up != nil {
		mask |= 1
	}
	if down != nil {
		mask |= 2
	}
	if batch != nil {
		mask |= 4
	}
	if ref != nil {
		mask |= 8
	}
	switch mask {
	case 0:
		return base
	case 1:
		return struct {
			S
			U
		}{base, up}
	case 2:
		return struct {
			S
			D
		}{base, down}
	case 3:
		return struct {
			S
			U
			D
		}{base, up, down}
	case 4:
		return struct {
			S
			B
		}{base, batch}
	case 5:
		return struct {
			S
			U
			B
		}{base, up, batch}
	case 6:
		return struct {
			S
			D
			B
		}{base, down, batch}
	case 7:
		return struct {
			S
			U
			D
			B
		}{base, up, down, batch}
	case 8:
		return struct {
			S
			R
		}{base, ref}
	case 9:
		return struct {
			S
			U
			R
		}{base, up, ref}
	case 10:
		return struct {
			S
			D
			R
		}{base, down, ref}
	case 11:
		return struct {
			S
			U
			D
			R
		}{base, up, down, ref}
	case 12:
		return struct {
			S
			B
			R
		}{base, batch, ref}
	case 13:
		return struct {
			S
			U
			B
			R
		}{base, up, batch, ref}
	case 14:
		return struct {
			S
			D
			B
			R
		}{base, down, batch, ref}
	default:
		return struct {
			S
			U
			D
			B
			R
		}{base, up, down, batch, ref}
	}
}

// phaseStats is what the spans of one phase (all traced rounds pooled) say
// about the connector layer and about core's own time.
type phaseStats struct {
	ops         int
	calls       int
	listCalls   int
	listEntries int
	bytesUp     int64
	bytesDown   int64
	errors      int
	busyNs      int64 // sum of call durations
	wallNs      int64 // union of call intervals, per op, summed
	selfNs      int64 // op duration minus that union
	opNs        int64
	maxInflight int
}

// aggregate groups store spans under their op span for one phase.
func aggregate(spans []span, phase string) phaseStats {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var st phaseStats
	for _, op := range spans {
		if op.Parent != 0 || op.Phase != phase || len(op.Name) < 3 || op.Name[:3] != "op:" {
			continue
		}
		st.ops++
		st.opNs += op.End - op.Start
		ivs := make([]interval, 0, len(children[op.ID]))
		for _, c := range children[op.ID] {
			st.calls++
			st.busyNs += c.End - c.Start
			if c.Err != "" {
				st.errors++
			}
			switch c.Name {
			case "store:list":
				st.listCalls++
				st.listEntries += c.Entries
			case "store:upload", "store:put_ref":
				st.bytesUp += c.Bytes
			case "store:download", "store:download_batch":
				st.bytesDown += c.Bytes
			}
			ivs = append(ivs, c.interval())
		}
		self := selfTime(op.interval(), ivs)
		st.selfNs += self
		st.wallNs += op.End - op.Start - self
		if m := maxOverlap(ivs); m > st.maxInflight {
			st.maxInflight = m
		}
	}
	return st
}
