package resthttp

import (
	"bytes"
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/transfer"
)

// connCounter counts the connections a test server accepts.
type connCounter struct{ opened atomic.Int32 }

func (c *connCounter) watch(ts *httptest.Server) {
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			c.opened.Add(1)
		}
	}
}

// countedProvider serves h behind the auth endpoint and returns an
// authenticated connector to it, the server, and the count of connections
// the server accepted.
func countedProvider(t *testing.T, h http.Handler) (*Store, *httptest.Server, *connCounter) {
	t.Helper()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/auth" {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		h.ServeHTTP(w, r)
	}))
	cc := &connCounter{}
	cc.watch(ts)
	ts.Start()
	t.Cleanup(ts.Close)
	s := NewStore("conn", ts.URL)
	if err := s.Authenticate(bg, csp.Credentials{Token: "secret"}); err != nil {
		t.Fatal(err)
	}
	return s, ts, cc
}

// backendHandler is a real provider over an in-memory backend.
func backendHandler(t *testing.T) http.Handler {
	t.Helper()
	srv, err := NewServer(cloudsim.NewBackend("conncsp", csp.NameKeyed, 0), "secret", false)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// TestConnStaleKeepAlive: a provider that drops its idle connections costs
// the next call a new dial, not an error — for every verb, bodies included.
func TestConnStaleKeepAlive(t *testing.T) {
	s, ts, cc := countedProvider(t, backendHandler(t))
	calls := []struct {
		label string
		call  func() error
	}{
		{"upload", func() error { return s.Upload(bg, "obj", []byte("payload")) }},
		{"download", func() error {
			got, err := s.Download(bg, "obj")
			if err == nil && string(got) != "payload" {
				err = fmt.Errorf("got %q", got)
			}
			return err
		}},
		{"list", func() error {
			infos, err := s.List(bg, "")
			if err == nil && len(infos) != 1 {
				err = fmt.Errorf("listed %d objects", len(infos))
			}
			return err
		}},
		{"batch", func() error {
			got, err := s.DownloadBatch(bg, []string{"obj"})
			if err == nil && string(got["obj"]) != "payload" {
				err = fmt.Errorf("got %q", got)
			}
			return err
		}},
		{"delete", func() error { return s.Delete(bg, "obj") }},
	}
	for i, c := range calls {
		ts.CloseClientConnections()
		if err := c.call(); err != nil {
			t.Fatalf("%s after the provider dropped the idle connection: %v", c.label, err)
		}
		if got, want := cc.opened.Load(), int32(i+2); got != want {
			t.Errorf("%s: %d connections opened, want %d", c.label, got, want)
		}
	}
}

// stallAfter serves a 1 MiB object: when sendHalf it sends the head and half
// the body, otherwise nothing; then it stalls until the client goes away.
func stallAfter(sendHalf bool, reached chan<- struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/objects/stall" {
			writeSized(w, "application/octet-stream", []byte("fine"))
			return
		}
		w.Header().Set("Content-Length", fmt.Sprint(1<<20))
		if sendHalf {
			_, _ = w.Write(make([]byte, 1<<19))
			w.(http.Flusher).Flush()
		}
		reached <- struct{}{}
		<-r.Context().Done()
	}
}

// cancelOnWrite cancels its call's context on the first bytes it receives.
type cancelOnWrite struct{ cancel context.CancelFunc }

func (c cancelOnWrite) Write(p []byte) (int, error) {
	c.cancel()
	return len(p), nil
}

// TestConnCancel: a call whose context ends — mid-body or while waiting for
// the response head — returns an error at once, and its connection is closed,
// not pooled: the next call opens a new one.
func TestConnCancel(t *testing.T) {
	wantErr := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) && !errors.Is(err, csp.ErrUnavailable) {
			t.Errorf("%s: err = %v, want context.Canceled or csp.ErrUnavailable", label, err)
		}
	}
	t.Run("mid-body", func(t *testing.T) {
		reached := make(chan struct{}, 1)
		s, _, cc := countedProvider(t, stallAfter(true, reached))
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		n, err := s.DownloadTo(ctx, "stall", cancelOnWrite{cancel})
		wantErr("DownloadTo", err)
		if n <= 0 || n >= 1<<20 {
			t.Errorf("DownloadTo copied %d bytes before the cancel, want part of the body", n)
		}
		<-reached
		if _, err := s.Download(bg, "next"); err != nil {
			t.Fatal(err)
		}
		if got := cc.opened.Load(); got != 2 {
			t.Errorf("%d connections opened, want 2: the cancelled one was pooled", got)
		}
	})
	t.Run("head", func(t *testing.T) {
		reached := make(chan struct{}, 1)
		s, _, cc := countedProvider(t, stallAfter(false, reached))
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		go func() {
			select {
			case <-reached:
			case <-ctx.Done():
			}
			cancel()
		}()
		_, err := s.Download(ctx, "stall")
		wantErr("Download", err)
		if _, err := s.Download(bg, "next"); err != nil {
			t.Fatal(err)
		}
		if got := cc.opened.Load(); got != 2 {
			t.Errorf("%d connections opened, want 2: the cancelled one was pooled", got)
		}
	})
}

// TestConnCancelledCallIsNotAProviderFault: a call its own context ended —
// before it dialled, or while reading the body — returns the context's error
// and not csp.ErrUnavailable, so the transfer engine does not count it
// against the provider (a hedge or race loser is cancelled this way every
// time its gather resolves).
func TestConnCancelledCallIsNotAProviderFault(t *testing.T) {
	check := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) || errors.Is(err, csp.ErrUnavailable) || transfer.ProviderFault(err) {
			t.Errorf("%s: err = %v, want context.Canceled and no provider fault", label, err)
		}
	}
	t.Run("before-dial", func(t *testing.T) {
		s := NewStore("conn", "http://127.0.0.1:1")
		s.token = "secret"
		ctx, cancel := context.WithCancel(bg)
		cancel()
		_, err := s.Download(ctx, "x")
		check("Download", err)
	})
	t.Run("mid-body", func(t *testing.T) {
		reached := make(chan struct{}, 1)
		s, _, _ := countedProvider(t, stallAfter(true, reached))
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		go func() {
			<-reached
			cancel()
		}()
		_, err := s.Download(ctx, "stall")
		check("Download", err)

		ctx, cancel = context.WithCancel(bg)
		defer cancel()
		_, err = s.DownloadTo(ctx, "stall", cancelOnWrite{cancel})
		check("DownloadTo", err)
		<-reached
	})
}

// TestConnNotReusedAfterBadEnding: a connection whose response ended badly —
// a body cut short, bytes past the declared length, or "Connection: close" —
// is never reused. The provider keeps each such connection open and reports
// any request that arrives on it.
func TestConnNotReusedAfterBadEnding(t *testing.T) {
	var reused atomic.Bool
	var mu sync.Mutex
	var held []net.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	respond := map[string]string{
		"truncated": "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"overlong":  "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloEXTRA",
		"close":     "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
	}
	s, _, cc := countedProvider(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/v1/objects/")
		raw, ok := respond[name]
		if !ok {
			writeSized(w, "application/octet-stream", []byte("fine"))
			return
		}
		nc, rw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		held = append(held, nc)
		mu.Unlock()
		_, _ = io.WriteString(nc, raw)
		if name == "truncated" {
			_ = nc.(*net.TCPConn).CloseWrite() // the body ends here
		}
		go func() {
			if _, err := rw.ReadByte(); err == nil {
				reused.Store(true)
			}
			nc.Close()
		}()
	}))
	for i, name := range []string{"truncated", "overlong", "close"} {
		got, err := s.Download(bg, name)
		switch name {
		case "truncated":
			if !errors.Is(err, csp.ErrUnavailable) {
				t.Errorf("truncated body: %q, %v; want ErrUnavailable", got, err)
			}
		default:
			if err != nil || string(got) != "hello" {
				t.Errorf("%s: %q, %v", name, got, err)
			}
		}
		if got, err := s.Download(bg, "fine"); err != nil || string(got) != "fine" {
			t.Fatalf("call after %s: %q, %v", name, got, err)
		}
		if reused.Load() {
			t.Fatalf("the connection that answered %s carried another request", name)
		}
		// Each bad ending rode the connection the call before it left in
		// the pool, and costs the call after it a new one.
		if got, want := cc.opened.Load(), int32(i+2); got != want {
			t.Errorf("after %s: %d connections opened, want %d", name, got, want)
		}
	}
}

// TestConnPoolBoundedByConcurrency: 16 goroutines making mixed calls through
// one Store never hold more connections than there are calls at once, and
// every call sees its own data.
func TestConnPoolBoundedByConcurrency(t *testing.T) {
	const workers, calls = 16, 200
	s, _, cc := countedProvider(t, backendHandler(t))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := fmt.Sprintf("w%02d/", w)
			for i := 0; i < calls; i++ {
				name := fmt.Sprintf("%s%d", prefix, i%4)
				data := bytes.Repeat([]byte{byte(w), byte(i)}, 100+i)
				var err error
				switch i % 5 {
				case 0, 1:
					err = s.Upload(bg, name, data)
				case 2:
					var got []byte
					if got, err = s.Download(bg, prefix+"0"); err == nil && len(got) == 0 {
						err = errors.New("empty object")
					}
				case 3:
					var infos []csp.ObjectInfo
					if infos, err = s.List(bg, prefix); err == nil && len(infos) == 0 {
						err = errors.New("empty listing")
					}
				case 4:
					var got map[string][]byte
					if got, err = s.DownloadBatch(bg, []string{prefix + "0", prefix + "1"}); err == nil && len(got) != 2 {
						err = fmt.Errorf("batch of 2 returned %d", len(got))
					}
				}
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := cc.opened.Load(); got > workers {
		t.Errorf("%d connections opened for %d concurrent callers", got, workers)
	}
}

// TestConnBaseURLPath: a base URL with a path prefixes every request path,
// escaped names included, and the request carries the protocol's headers.
func TestConnBaseURLPath(t *testing.T) {
	h := backendHandler(t)
	mux := http.NewServeMux()
	mux.Handle("/cyrus/", http.StripPrefix("/cyrus", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.ContentLength != 7 {
			t.Errorf("PUT declared %d bytes, want 7", r.ContentLength)
		}
		if r.Header.Get("Authorization") != "Bearer secret" || r.Host == "" {
			t.Errorf("request headers: Host %q, %v", r.Host, r.Header)
		}
		h.ServeHTTP(w, r)
	})))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	s := NewStore("prefixed", ts.URL+"/cyrus/")
	if err := s.Authenticate(bg, csp.Credentials{Token: "secret"}); err != nil {
		t.Fatal(err)
	}
	name := "dir/a b%c?d"
	if err := s.Upload(bg, name, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Download(bg, name); err != nil || string(got) != "payload" {
		t.Fatalf("Download = %q, %v", got, err)
	}
	for _, bad := range []string{"ftp://host", "http://", "host:80", "http://h/p?q=1"} {
		if err := NewStore("bad", bad).Authenticate(bg, csp.Credentials{Token: "t"}); !errors.Is(err, csp.ErrUnavailable) {
			t.Errorf("base URL %q: err = %v, want ErrUnavailable", bad, err)
		}
	}
	if err := s.Authenticate(bg, csp.Credentials{Token: "a\r\nX-Injected: 1"}); !errors.Is(err, csp.ErrUnauthorized) {
		t.Errorf("token with CRLF: err = %v, want ErrUnauthorized", err)
	}
}

// TestConnHTTPS: an https:// provider is dialled through TLS, its
// certificate checked against the URL's host.
func TestConnHTTPS(t *testing.T) {
	ts := httptest.NewTLSServer(backendHandler(t))
	t.Cleanup(ts.Close)
	if err := NewStore("tls", ts.URL).Authenticate(bg, csp.Credentials{Token: "secret"}); !errors.Is(err, csp.ErrUnavailable) {
		t.Fatalf("untrusted certificate: err = %v, want ErrUnavailable", err)
	}
	s := NewStore("tls", ts.URL)
	roots := x509.NewCertPool()
	roots.AddCert(ts.Certificate())
	s.ep.tls.RootCAs = roots
	if err := s.Authenticate(bg, csp.Credentials{Token: "secret"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Upload(bg, "obj", []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Download(bg, "obj"); err != nil || string(got) != "sealed" {
		t.Fatalf("Download = %q, %v", got, err)
	}
}
