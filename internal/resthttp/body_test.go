package resthttp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/csp"
)

// allocated reports the heap bytes allocated process-wide while fn runs, so
// callers keep the test server's side of the exchange free of per-request
// buffers.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// rawProvider serves GET /v1/objects/<name> from respond and returns an
// authenticated connector to it.
func rawProvider(t *testing.T, respond http.HandlerFunc) *Store {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/auth" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		respond(w, r)
	}))
	t.Cleanup(ts.Close)
	s := NewStore("raw", ts.URL)
	if err := s.Authenticate(bg, csp.Credentials{Token: "secret"}); err != nil {
		t.Fatal(err)
	}
	return s
}

// hijackRespond writes head and body to the raw connection and hangs up,
// whatever the head promised.
func hijackRespond(t *testing.T, head string, body []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = io.WriteString(conn, head)
		_, _ = conn.Write(body)
	}
}

// TestDownloadReadsDeclaredLengthIntoOneBuffer: a share body whose length the
// response declares lands in one buffer of that size. Growing a buffer by
// ReadAll allocated ~5x the body and copied it ~4x (a quarter of the client's
// read-phase CPU on 32 MiB objects).
func TestDownloadReadsDeclaredLengthIntoOneBuffer(t *testing.T) {
	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	s := rawProvider(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		_, _ = w.Write(payload)
	})
	if _, err := s.Download(bg, "warm"); err != nil { // dial, bufio, header maps
		t.Fatal(err)
	}
	var got []byte
	var err error
	alloc := allocated(func() { got, err = s.Download(bg, "obj") })
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Download = %d bytes, %v", len(got), err)
	}
	// One buffer; the race detector's runtime allocates it twice.
	if limit := uint64(2*len(payload) + 256<<10); alloc > limit {
		t.Errorf("Download of a %d-byte body with Content-Length allocated %d bytes, want <= %d", len(payload), alloc, limit)
	}
	if cap(got) > len(payload)+64<<10 {
		t.Errorf("Download returned cap %d for a %d-byte body", cap(got), len(payload))
	}
}

// TestDownloadWithoutContentLength: a chunked response (no declared length,
// as a streaming provider sends) is still read whole.
func TestDownloadWithoutContentLength(t *testing.T) {
	payload := make([]byte, 3<<20+17)
	rand.New(rand.NewSource(2)).Read(payload)
	s := rawProvider(t, func(w http.ResponseWriter, _ *http.Request) {
		for rest := payload; len(rest) > 0; {
			n := min(len(rest), 100_000)
			_, _ = w.Write(rest[:n])
			w.(http.Flusher).Flush()
			rest = rest[n:]
		}
	})
	got, err := s.Download(bg, "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Download = %d bytes, %v; want %d bytes", len(got), err, len(payload))
	}
	// The real streaming server: directory-backed, so GET goes out chunked.
	d := dirProvider(t, "dircsp3", "secret")
	if err := d.Upload(bg, "obj", payload); err != nil {
		t.Fatal(err)
	}
	got, err = d.Download(bg, "obj")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("streamed Download = %d bytes, %v; want %d bytes", len(got), err, len(payload))
	}
}

// TestDownloadTruncatedBody: a body that ends before its declared length is
// an unavailable provider, never a short object — and a declared length over
// the object cap is not believed, so a lying provider cannot make the client
// reserve it.
func TestDownloadTruncatedBody(t *testing.T) {
	sent := bytes.Repeat([]byte("x"), 1000)
	for name, declared := range map[string]int64{
		"plausible":    1 << 20,
		"over-the-cap": maxObjectBytes + 1,
	} {
		head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", declared)
		s := rawProvider(t, hijackRespond(t, head, sent))
		var err error
		alloc := allocated(func() { _, err = s.Download(bg, "obj") })
		if !errors.Is(err, csp.ErrUnavailable) {
			t.Errorf("%s: Download of a truncated body: err = %v, want ErrUnavailable", name, err)
		}
		if alloc > 4<<20 {
			t.Errorf("%s: Download allocated %d bytes for a body declared %d long that carried %d", name, alloc, declared, len(sent))
		}
	}
}

// TestReadBodyDeclaredLengthIsOnlyAHint: whatever the declared length, the
// bytes returned are the bytes the body carried, up to one past the cap.
func TestReadBodyDeclaredLengthIsOnlyAHint(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 5000)
	for _, declared := range []int64{-1, 0, 1, int64(len(payload)) - 1, int64(len(payload)), int64(len(payload)) + 1, 10 * int64(len(payload)), maxObjectBytes + 1} {
		got, err := readBody(bytes.NewReader(payload), declared)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("declared %d: readBody = %d bytes, %v; want %d bytes", declared, len(got), err, len(payload))
		}
	}
	wantErr := errors.New("connection reset")
	got, err := readBody(io.MultiReader(strings.NewReader("partial"), failingReader{wantErr}), 100)
	if !errors.Is(err, wantErr) || string(got) != "partial" {
		t.Errorf("readBody over a failing body = %q, %v", got, err)
	}
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestServerPutBuffersDeclaredLengthOnceAndEnforcesTheCap: the in-memory
// provider's PUT reads a body of declared length into one buffer, and refuses
// a declared length over the cap with 413 before reading any of it.
func TestServerPutBuffersDeclaredLengthOnceAndEnforcesTheCap(t *testing.T) {
	b := cloudsim.NewBackend("httpcsp1", csp.NameKeyed, 0)
	srv, err := NewServer(b, "secret", false)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	put := func(body io.Reader, declared int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPut, "/v1/objects/obj", body)
		req.ContentLength = declared
		req.Header.Set("Authorization", "Bearer secret")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(3)).Read(payload)
	var rec *httptest.ResponseRecorder
	// The handler's buffer (twice under the race detector's runtime) plus
	// the backend's own copy of the object.
	alloc := allocated(func() { rec = put(bytes.NewReader(payload), int64(len(payload))) })
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d %s", rec.Code, rec.Body)
	}
	if limit := uint64(3*len(payload) + 256<<10); alloc > limit {
		t.Errorf("PUT of a %d-byte body with Content-Length allocated %d bytes, want <= %d", len(payload), alloc, limit)
	}
	if rec = put(bytes.NewReader(payload), -1); rec.Code != http.StatusCreated { // chunked upload
		t.Fatalf("PUT without Content-Length = %d %s", rec.Code, rec.Body)
	}
	if stored, ok := b.PeekObject("obj"); !ok || !bytes.Equal(stored, payload) {
		t.Fatalf("stored object is %d bytes (found %v), want the %d sent", len(stored), ok, len(payload))
	}

	body := &countingReader{r: neverEnding{}}
	alloc = allocated(func() { rec = put(body, maxObjectBytes+1) })
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT declared one byte over the cap = %d %s, want 413", rec.Code, rec.Body)
	}
	if body.n != 0 || alloc > 1<<20 {
		t.Errorf("PUT over the cap read %d bytes and allocated %d before refusing", body.n, alloc)
	}
}

type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) { return len(p), nil }

// TestSimulatedBackendServesDeclaredLength: an object of the in-memory
// backend goes out under its Content-Length, not chunked, though the
// simulated store can stream it — so a client's Download sizes its buffer
// once and a small body carries no chunk framing.
func TestSimulatedBackendServesDeclaredLength(t *testing.T) {
	s, _ := provider(t, "csp1", "secret", true)
	payload := bytes.Repeat([]byte("share"), 20_000)
	if err := s.Upload(bg, "obj", payload); err != nil {
		t.Fatal(err)
	}
	resp, err := s.do(bg, http.MethodGet, "/v1/objects/obj", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	if resp.ContentLength != int64(len(payload)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("GET of a %d-byte object: Content-Length %d, Transfer-Encoding %v", len(payload), resp.ContentLength, resp.TransferEncoding)
	}
}
