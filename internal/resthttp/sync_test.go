package resthttp

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/csp"
)

// syncCloud is four in-process providers on real sockets. Each sits behind a
// switchable fault on its /v1/batch route, so a test can break one provider's
// batch answers without touching the rest of its protocol, and counts the
// requests each device sends it.
type syncCloud struct {
	t     *testing.T
	urls  []string
	fault []atomic.Value // per provider: "" | "503" | "truncate" | "404"

	mu     sync.Mutex
	counts map[string][]*requestCounter // per device, per provider
}

func newSyncCloud(t *testing.T, server func(name string) *Server) *syncCloud {
	c := &syncCloud{t: t, fault: make([]atomic.Value, 4), counts: map[string][]*requestCounter{}}
	for i := range c.fault {
		i := i
		c.fault[i].Store("")
		h := server(fmt.Sprintf("csp%d", i+1)).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// A device authenticates as "<device>:secret": its requests
			// count under its own name — a request a previous device's
			// race loser sends late lands in that device's counts — and
			// the provider sees the real token.
			device, token, _ := strings.Cut(strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer "), ":")
			c.counters(device)[i].add(r)
			r.Header.Set("Authorization", "Bearer "+token)
			fault := c.fault[i].Load().(string)
			if r.URL.Path != "/v1/batch" || fault == "" {
				h.ServeHTTP(w, r)
				return
			}
			drainClose(r.Body)
			switch fault {
			case "503":
				http.Error(w, "batch backend down", http.StatusServiceUnavailable)
			case "404":
				http.NotFound(w, r)
			case "truncate":
				// A full-length promise, then a frame that stops short.
				frame := appendBatchFrame(nil, "cyrus-meta-x", make([]byte, 300))
				hijackRespond(t, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(frame)), frame[:100])(w, r)
			}
		}))
		t.Cleanup(ts.Close)
		c.urls = append(c.urls, ts.URL)
	}
	return c
}

// counters returns a device's request counters, one per provider.
func (c *syncCloud) counters(device string) []*requestCounter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counts[device] == nil {
		for range c.fault {
			c.counts[device] = append(c.counts[device], newRequestCounter())
		}
	}
	return c.counts[device]
}

// client connects a fresh device: four new connectors, and a core client
// over them that knows nothing yet. It returns the requests the device's
// connectors send, as each provider counts them.
func (c *syncCloud) client(id string) (*core.Client, []*requestCounter) {
	c.t.Helper()
	var stores []csp.Store
	counts := c.counters(id)
	for i, url := range c.urls {
		s := NewStore(fmt.Sprintf("csp%d", i+1), url)
		if err := s.Authenticate(bg, csp.Credentials{Token: id + ":secret"}); err != nil {
			c.t.Fatal(err)
		}
		counts[i].reset()
		stores = append(stores, s)
	}
	client, err := core.New(core.Config{
		ClientID: id, Key: "wire-key", T: 2, N: 3,
		Chunking: chunker.Config{AverageSize: 4096, MinSize: 1024, MaxSize: 16384},
	}, stores)
	if err != nil {
		c.t.Fatal(err)
	}
	return client, counts
}

// TestColdSyncOverSocketsIsOProviders: a new device's first Sync of a
// namespace of K records costs O(providers) HTTP requests — a listing per
// provider plus at most a batch per provider — not the listing plus two GETs
// per record it cost while only the simulator had a batch call. A provider
// whose batch route fails (503, or a body cut mid-frame) is tried and then
// left alone for the rest of the operation, its records read through the
// per-record gather from the others; one that has no such route (404) is
// read one object at a time. Every record is absorbed in every case.
func TestColdSyncOverSocketsIsOProviders(t *testing.T) {
	const records = 60
	backends := map[string]func(t *testing.T) func(name string) *Server{
		"memory": func(t *testing.T) func(string) *Server {
			return func(name string) *Server {
				srv, err := NewServer(cloudsim.NewBackend(name, csp.NameKeyed, 0), "secret", false)
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
		},
		"dir": func(t *testing.T) func(string) *Server {
			return func(name string) *Server {
				d, err := cloudsim.NewDirStore(name, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewStoreServer(d, "secret")
				if err != nil {
					t.Fatal(err)
				}
				return srv
			}
		},
	}
	for label, server := range backends {
		t.Run(label, func(t *testing.T) {
			cloud := newSyncCloud(t, server(t))
			writer, _ := cloud.client("writer")
			for i := 0; i < records; i++ {
				if err := writer.Put(bg, fmt.Sprintf("dir/file-%02d", i), []byte(fmt.Sprint("contents of file ", i))); err != nil {
					t.Fatal(err)
				}
			}

			// coldSync runs a fresh device's first Sync and returns what
			// each connector sent.
			coldSync := func(id string) []*requestCounter {
				t.Helper()
				reader, counts := cloud.client(id)
				if _, err := reader.Sync(bg); err != nil {
					t.Fatalf("%s: cold Sync: %v", id, err)
				}
				if got := len(reader.Tree().Names()); got != records {
					t.Fatalf("%s: cold Sync absorbed %d names, want %d", id, got, records)
				}
				return counts
			}

			counts := coldSync("clean")
			total, batched := 0, -1
			for i, ct := range counts {
				total += ct.count("")
				if ct.count("POST /v1/batch") > 0 {
					batched = i
				}
			}
			if m := len(counts); total > 2*m {
				t.Errorf("cold Sync of %d records sent %d requests over %d providers, want <= %d", records, total, m, 2*m)
			}
			if batched < 0 {
				t.Fatal("cold Sync sent no batch request")
			}

			for _, fault := range []string{"503", "truncate", "404"} {
				cloud.fault[batched].Store(fault)
				ct := coldSync("device-" + fault)[batched]
				tries, gets := ct.count("POST /v1/batch"), ct.count("GET /v1/objects/{name}")
				switch fault {
				case "404":
					// A definite answer: asked once, then read one by one.
					if tries != 1 || gets == 0 {
						t.Errorf("provider without the route: %d batch tries, %d object GETs; want 1 and some", tries, gets)
					}
				default:
					// A provider fault: retried within the attempt budget,
					// then in the operation's failed set — never re-probed.
					if tries < 1 || tries > 2 || gets != 0 {
						t.Errorf("provider answering batches with %s: %d batch tries, %d object GETs; want 1-2 and 0", fault, tries, gets)
					}
				}
			}
			cloud.fault[batched].Store("")
		})
	}
}
