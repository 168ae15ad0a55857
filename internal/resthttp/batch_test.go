package resthttp

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/csp"
)

// requestCounter counts the requests a provider receives, by "METHOD path"
// (object names collapsed).
type requestCounter struct {
	mu    sync.Mutex
	calls map[string]int
}

func newRequestCounter() *requestCounter {
	return &requestCounter{calls: map[string]int{}}
}

// add counts one request.
func (c *requestCounter) add(r *http.Request) {
	key := r.Method + " " + r.URL.Path
	if strings.HasPrefix(r.URL.Path, "/v1/objects/") {
		key = r.Method + " /v1/objects/{name}"
	}
	c.mu.Lock()
	c.calls[key]++
	c.mu.Unlock()
}

// wrap counts every request h serves.
func (c *requestCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.add(r)
		h.ServeHTTP(w, r)
	})
}

// reset forgets what was counted so far (the Authenticate call).
func (c *requestCounter) reset() {
	c.mu.Lock()
	clear(c.calls)
	c.mu.Unlock()
}

// count returns the requests seen for one key, or in total for "".
func (c *requestCounter) count(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if key != "" {
		return c.calls[key]
	}
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

// storeCalls wraps a store and counts every call that reaches it.
type storeCalls struct {
	csp.Store
	n atomic.Int64
}

func (s *storeCalls) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	s.n.Add(1)
	return s.Store.List(ctx, prefix)
}

func (s *storeCalls) Download(ctx context.Context, name string) ([]byte, error) {
	s.n.Add(1)
	return s.Store.Download(ctx, name)
}

// TestDownloadBatchSplitsLongWantLists: 2.5 x the per-request cap of names
// round-trips in exactly three requests, absent names simply missing from the
// answer, over the memory backend (native batch) and the directory store
// (sequential fallback behind the socket) alike.
func TestDownloadBatchSplitsLongWantLists(t *testing.T) {
	dir, err := cloudsim.NewDirStore("dircsp", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dirSrv, err := NewStoreServer(dir, "secret")
	if err != nil {
		t.Fatal(err)
	}
	memSrv, err := NewServer(cloudsim.NewBackend("memcsp", csp.NameKeyed, 0), "secret", false)
	if err != nil {
		t.Fatal(err)
	}
	for label, srv := range map[string]*Server{"memory": memSrv, "dir": dirSrv} {
		t.Run(label, func(t *testing.T) {
			ct := newRequestCounter()
			ts := httptest.NewServer(ct.wrap(srv.Handler()))
			t.Cleanup(ts.Close)
			s := NewStore(label, ts.URL)
			if err := s.Authenticate(bg, csp.Credentials{Token: "secret"}); err != nil {
				t.Fatal(err)
			}
			total := maxBatchNames*5/2 + 1
			names := make([]string, total)
			want := map[string][]byte{}
			for i := range names {
				names[i] = fmt.Sprintf("obj/%05d <&>", i)
				if i%64 == 0 { // the rest stay absent
					want[names[i]] = []byte(fmt.Sprintf("payload %d", i))
					if err := s.Upload(bg, names[i], want[names[i]]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Upload(bg, "obj/empty", nil); err != nil {
				t.Fatal(err)
			}
			names[1], want["obj/empty"] = "obj/empty", []byte{}
			before := ct.count("")
			got, err := s.DownloadBatch(bg, names)
			if err != nil {
				t.Fatal(err)
			}
			if n := ct.count("") - before; n != 3 || ct.count("POST /v1/batch") != 3 {
				t.Errorf("%d names took %d requests (%d to /v1/batch), want 3", total, n, ct.count("POST /v1/batch"))
			}
			if len(got) != len(want) {
				t.Fatalf("batch returned %d objects, want %d", len(got), len(want))
			}
			for name, data := range want {
				if g, ok := got[name]; !ok || !bytes.Equal(g, data) {
					t.Errorf("%q = %q (present %v), want %q", name, g, ok, data)
				}
			}
			// Through the capability dispatch, and with a name asked twice.
			again, err := csp.DownloadBatch(bg, s, []string{names[0], names[0], "absent"})
			if err != nil || len(again) != 1 || !bytes.Equal(again[names[0]], want[names[0]]) {
				t.Errorf("repeat-name batch = %v, %v", again, err)
			}
		})
	}
}

// postBatch sends one raw batch request.
func postBatch(t *testing.T, url, token string, body []byte, declared int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = declared
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drainClose(resp.Body) })
	return resp
}

// TestBatchRequestRefusedBeforeTheStore: auth and method are checked like on
// every route, and a request over the name-count or the body-size cap is a
// 413 that never reaches the store.
func TestBatchRequestRefusedBeforeTheStore(t *testing.T) {
	dir, err := cloudsim.NewDirStore("dircsp", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &storeCalls{Store: dir}
	srv, err := NewStoreServer(store, "secret")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	tooMany, _ := json.Marshal(make([]string, maxBatchNames+1))
	atCap, _ := json.Marshal(make([]string, maxBatchNames))
	long, _ := json.Marshal([]string{strings.Repeat("n", maxBatchRequestBytes)})
	for _, tc := range []struct {
		label    string
		token    string
		body     []byte
		declared int64 // -1: chunked, so only the bytes read can tell
		want     int
	}{
		{"no token", "", []byte(`["a"]`), 5, http.StatusUnauthorized},
		{"wrong token", "other", []byte(`["a"]`), 5, http.StatusUnauthorized},
		{"too many names", "secret", tooMany, int64(len(tooMany)), http.StatusRequestEntityTooLarge},
		{"declared too long", "secret", long, int64(len(long)), http.StatusRequestEntityTooLarge},
		{"too long, undeclared", "secret", long, -1, http.StatusRequestEntityTooLarge},
		{"not a name array", "secret", []byte(`{"names":["a"]}`), 15, http.StatusBadRequest},
		{"names of the wrong type", "secret", []byte(`[1,2]`), 5, http.StatusBadRequest},
	} {
		if resp := postBatch(t, ts.URL, tc.token, tc.body, tc.declared); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.label, resp.StatusCode, tc.want)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/batch", nil)
	req.Header.Set("Authorization", "Bearer secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch = %d, want 405", resp.StatusCode)
	}
	if n := store.n.Load(); n != 0 {
		t.Errorf("refused requests made %d store calls", n)
	}
	// At the cap is served: one store call per name (the sequential fallback).
	if resp := postBatch(t, ts.URL, "secret", atCap, int64(len(atCap))); resp.StatusCode != http.StatusOK || resp.ContentLength != 0 {
		t.Errorf("request of exactly %d absent names: status %d, length %d", maxBatchNames, resp.StatusCode, resp.ContentLength)
	}
	if n := store.n.Load(); n != maxBatchNames {
		t.Errorf("a %d-name batch made %d store calls", maxBatchNames, n)
	}
}

// fatBatchStore answers any batch with objects that sum past the response
// cap (every name maps to the same megabyte, so the test stays small).
type fatBatchStore struct{ csp.Store }

func (fatBatchStore) DownloadBatch(_ context.Context, names []string) (map[string][]byte, error) {
	mb := make([]byte, 1<<20)
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		out[name] = mb
	}
	return out, nil
}

// TestBatchResponseOverTheCapIsRefused: the server answers 413 rather than
// build a response past the byte cap, and the connector reports that as a
// definite, non-indicting answer — the provider is up and serves the same
// objects one by one — not as an outage.
func TestBatchResponseOverTheCapIsRefused(t *testing.T) {
	dir, err := cloudsim.NewDirStore("dircsp", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewStoreServer(fatBatchStore{dir}, "secret")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	s := NewStore("fat", ts.URL)
	if err := s.Authenticate(bg, csp.Credentials{Token: "secret"}); err != nil {
		t.Fatal(err)
	}
	names := make([]string, maxBatchResponseBytes>>20+1)
	for i := range names {
		names[i] = fmt.Sprint("obj-", i)
	}
	if _, err := s.DownloadBatch(bg, names); !errors.Is(err, csp.ErrNotFound) || errors.Is(err, csp.ErrUnavailable) {
		t.Fatalf("over-cap batch err = %v, want a refusal wrapping csp.ErrNotFound", err)
	}
	if got, err := s.DownloadBatch(bg, names[:3]); err != nil || len(got) != 3 {
		t.Fatalf("small batch after the refusal = %d objects, %v", len(got), err)
	}
}

// TestDownloadBatchChecksTheAnswer: whatever a provider puts in a batch
// response, the connector returns only objects it asked for, once each, or
// fails the call as a provider fault.
func TestDownloadBatchChecksTheAnswer(t *testing.T) {
	frames := func(pairs ...string) []byte {
		var b []byte
		for i := 0; i < len(pairs); i += 2 {
			b = appendBatchFrame(b, pairs[i], []byte(pairs[i+1]))
		}
		return b
	}
	good := frames("a", "alpha", "b", "beta")
	for _, tc := range []struct {
		label   string
		respond http.HandlerFunc
		want    error // nil: the call succeeds with a and b
	}{
		{"exact answer", func(w http.ResponseWriter, _ *http.Request) { writeSized(w, "application/octet-stream", good) }, nil},
		{"chunked answer", func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(good[:3])
			w.(http.Flusher).Flush()
			_, _ = w.Write(good[3:])
		}, nil},
		{"unrequested object", func(w http.ResponseWriter, _ *http.Request) {
			writeSized(w, "application/octet-stream", frames("a", "alpha", "x", "extra"))
		}, csp.ErrUnavailable},
		{"object sent twice", func(w http.ResponseWriter, _ *http.Request) {
			writeSized(w, "application/octet-stream", frames("a", "alpha", "a", "again"))
		}, csp.ErrUnavailable},
		{"body cut mid-frame, length honest", func(w http.ResponseWriter, _ *http.Request) {
			writeSized(w, "application/octet-stream", good[:len(good)-2])
		}, csp.ErrUnavailable},
		{"connection cut mid-frame", hijackRespond(t,
			fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(good)), good[:len(good)-2]),
			csp.ErrUnavailable},
		{"503", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "down", http.StatusServiceUnavailable)
		}, csp.ErrUnavailable},
		{"no such route", http.NotFound, csp.ErrNotFound},
	} {
		s := rawProvider(t, tc.respond)
		got, err := s.DownloadBatch(bg, []string{"a", "b", "c"})
		switch {
		case tc.want != nil:
			if !errors.Is(err, tc.want) || got != nil {
				t.Errorf("%s: got %v, %v; want an error wrapping %v", tc.label, got, err, tc.want)
			}
		case err != nil || len(got) != 2 || string(got["a"]) != "alpha" || string(got["b"]) != "beta":
			t.Errorf("%s: got %q, %v", tc.label, got, err)
		}
	}
}

// TestDecodeBatchFrames pins the frame grammar at its edges: a declared
// length is trusted only as far as the bytes that are there.
func TestDecodeBatchFrames(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for _, tc := range []struct {
		label string
		data  []byte
		ok    bool
	}{
		{"empty body", nil, true},
		{"empty name, empty object", []byte{0, 0}, true},
		{"one frame", appendBatchFrame(nil, "n", []byte("body")), true},
		{"name length with no name", []byte{1}, false},
		{"name but no body length", []byte{1, 'n'}, false},
		{"body one byte short", []byte{1, 'n', 2, 'x'}, false},
		{"padded length", []byte{0x81, 0x00, 'n', 0}, false},
		{"length overflowing 64 bits", append(bytes.Repeat([]byte{0xff}, 10), 0x7f), false},
		{"name length of 4 EiB", append(huge, 'n'), false},
		{"body length of 4 EiB", append(append([]byte{1, 'n'}, huge...), 'x'), false},
	} {
		var err error
		alloc := allocated(func() {
			err = decodeBatchFrames(tc.data, func(_, _ []byte) error { return nil })
		})
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.label, err, tc.ok)
		}
		if alloc > 64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d", tc.label, len(tc.data), alloc)
		}
	}
}

// FuzzBatchFrames: the frame decoder never panics, never hands out more
// bytes than the body holds (it has nothing else to size an allocation from:
// TestDecodeBatchFrames measures that), and accepts exactly what the encoder
// emits — re-encoding the frames of an accepted body gives back that body.
// Seeds: testdata/fuzz/FuzzBatchFrames.
func FuzzBatchFrames(f *testing.F) {
	f.Add(appendBatchFrame(appendBatchFrame(nil, "a", []byte("alpha")), "", nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var again []byte
		handed := 0
		err := decodeBatchFrames(data, func(name, body []byte) error {
			handed += len(name) + len(body)
			again = appendBatchFrame(again, string(name), body)
			return nil
		})
		if handed > len(data) {
			t.Fatalf("frames of a %d-byte body carry %d bytes", len(data), handed)
		}
		if err == nil && !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which the encoder writes as %x", data, again)
		}
	})
}
