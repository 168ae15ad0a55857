package main

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/csp"
)

// fakeStore counts its own calls so the decorator's spans can be checked
// against them.
type fakeStore struct {
	calls map[string]int
	fail  bool
}

func (f *fakeStore) hit(verb string) error {
	f.calls[verb]++
	if f.fail {
		return errors.New("injected")
	}
	return nil
}

func (f *fakeStore) Name() string { return "fake" }
func (f *fakeStore) Authenticate(context.Context, csp.Credentials) error {
	return f.hit("authenticate")
}
func (f *fakeStore) List(context.Context, string) ([]csp.ObjectInfo, error) {
	return make([]csp.ObjectInfo, 3), f.hit("list")
}
func (f *fakeStore) Upload(context.Context, string, []byte) error { return f.hit("upload") }
func (f *fakeStore) Download(context.Context, string) ([]byte, error) {
	return make([]byte, 7), f.hit("download")
}
func (f *fakeStore) Delete(context.Context, string) error { return f.hit("delete") }

type fakeUp struct{ f *fakeStore }

func (u fakeUp) UploadFrom(_ context.Context, _ string, r io.Reader) (int64, error) {
	n, _ := io.Copy(io.Discard, r)
	return n, u.f.hit("upload")
}

type fakeDown struct{ f *fakeStore }

func (d fakeDown) DownloadTo(_ context.Context, _ string, w io.Writer) (int64, error) {
	n, _ := w.Write(make([]byte, 5))
	return int64(n), d.f.hit("download")
}

type fakeBatch struct{ f *fakeStore }

func (b fakeBatch) DownloadBatch(_ context.Context, names []string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, n := range names {
		out[n] = make([]byte, 2)
	}
	return out, b.f.hit("download_batch")
}

type fakeRef struct{ f *fakeStore }

func (r fakeRef) PutRef(context.Context, string, string, []byte) (bool, error) {
	return true, r.f.hit("put_ref")
}
func (r fakeRef) AddRef(context.Context, string, string) error { return r.f.hit("add_ref") }
func (r fakeRef) DelRef(context.Context, string, string) (bool, error) {
	return false, r.f.hit("del_ref")
}
func (r fakeRef) Refs(context.Context, string) ([]string, error) {
	return []string{"a"}, r.f.hit("refs")
}

// fakeWith builds a fake with exactly the capabilities in mask (bit 0
// StreamUploader, 1 StreamDownloader, 2 BatchDownloader, 3 RefStore).
func fakeWith(mask int) (*fakeStore, csp.Store) {
	f := &fakeStore{calls: make(map[string]int)}
	var (
		up    csp.StreamUploader
		down  csp.StreamDownloader
		batch csp.BatchDownloader
		ref   csp.RefStore
	)
	if mask&1 != 0 {
		up = fakeUp{f}
	}
	if mask&2 != 0 {
		down = fakeDown{f}
	}
	if mask&4 != 0 {
		batch = fakeBatch{f}
	}
	if mask&8 != 0 {
		ref = fakeRef{f}
	}
	return f, compose(f, up, down, batch, ref)
}

func capabilities(s csp.Store) int {
	mask := 0
	if _, ok := s.(csp.StreamUploader); ok {
		mask |= 1
	}
	if _, ok := s.(csp.StreamDownloader); ok {
		mask |= 2
	}
	if _, ok := s.(csp.BatchDownloader); ok {
		mask |= 4
	}
	if _, ok := s.(csp.RefStore); ok {
		mask |= 8
	}
	return mask
}

// The decorator must expose each optional capability iff the wrapped store
// has it, or a traced run would take a different code path through core.
func TestWrapStoreForwardsExactlyTheWrappedCapabilities(t *testing.T) {
	for mask := 0; mask < 16; mask++ {
		_, inner := fakeWith(mask)
		if got := capabilities(inner); got != mask {
			t.Fatalf("fake %04b has capabilities %04b", mask, got)
		}
		if got := capabilities(wrapStore(inner, newTracer())); got != mask {
			t.Errorf("wrapped %04b store exposes %04b", mask, got)
		}
	}
}

func TestTracedStoreCountsMatchTheStore(t *testing.T) {
	ctx := context.Background()
	f, inner := fakeWith(15)
	tr := newTracer()
	s := wrapStore(inner, tr)

	tr.setPhase(0, "write")
	tr.beginOp("Put")
	s.List(ctx, "")
	s.Upload(ctx, "a", make([]byte, 10))
	s.(csp.StreamUploader).UploadFrom(ctx, "b", io.LimitReader(zeroReader{}, 20))
	s.(csp.RefStore).PutRef(ctx, "c", "r", make([]byte, 4))
	s.(csp.RefStore).AddRef(ctx, "c", "r")
	tr.endOp(nil)
	tr.setPhase(0, "read")
	tr.beginOp("Get")
	s.List(ctx, "")
	s.Download(ctx, "a")
	s.(csp.StreamDownloader).DownloadTo(ctx, "b", io.Discard)
	s.(csp.BatchDownloader).DownloadBatch(ctx, []string{"x", "y"})
	s.(csp.RefStore).Refs(ctx, "c")
	s.(csp.RefStore).DelRef(ctx, "c", "r")
	s.Delete(ctx, "a")
	tr.endOp(nil)
	s.Authenticate(ctx, csp.Credentials{Token: "t"}) // outside any op: no parent

	perVerb := make(map[string]int)
	for _, sp := range tr.spans {
		if len(sp.Name) > 6 && sp.Name[:6] == "store:" {
			perVerb[sp.Name[6:]]++
		}
	}
	for verb, n := range f.calls {
		if perVerb[verb] != n {
			t.Errorf("%s: %d spans, store saw %d calls", verb, perVerb[verb], n)
		}
	}
	if len(perVerb) != len(f.calls) {
		t.Errorf("span verbs %v, store verbs %v", perVerb, f.calls)
	}

	w := aggregate(tr.spans, "write")
	if w.ops != 1 || w.calls != 5 || w.listCalls != 1 || w.listEntries != 3 || w.bytesUp != 34 || w.bytesDown != 0 || w.errors != 0 {
		t.Errorf("write stats %+v", w)
	}
	r := aggregate(tr.spans, "read")
	if r.ops != 1 || r.calls != 7 || r.listCalls != 1 || r.bytesDown != 7+5+4 || r.bytesUp != 0 {
		t.Errorf("read stats %+v", r)
	}
	if w.selfNs+w.wallNs != w.opNs || w.busyNs < w.wallNs {
		t.Errorf("write time split: self %d + wall %d != op %d, or busy %d < wall", w.selfNs, w.wallNs, w.opNs, w.busyNs)
	}
	last := tr.spans[len(tr.spans)-1]
	if last.Name != "store:authenticate" || last.Parent != 0 || last.Trace != 0 {
		t.Errorf("call outside an op got a parent: %+v", last)
	}
}

func TestTracedStoreRecordsErrors(t *testing.T) {
	f, inner := fakeWith(0)
	f.fail = true
	tr := newTracer()
	s := wrapStore(inner, tr)
	tr.setPhase(0, "write")
	tr.beginOp("Put")
	if err := s.Upload(context.Background(), "a", nil); err == nil {
		t.Fatal("decorator swallowed the store's error")
	}
	tr.endOp(errors.New("put failed"))
	if st := aggregate(tr.spans, "write"); st.errors != 1 {
		t.Errorf("errors = %d, want 1", st.errors)
	}
	if tr.spans[0].Err != "put failed" {
		t.Errorf("op span error %q", tr.spans[0].Err)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
