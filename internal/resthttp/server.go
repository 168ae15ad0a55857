// Package resthttp puts CYRUS's five-call provider interface on the wire:
// a JSON/REST protocol of the shape commercial CSPs expose (paper Table 2
// — "JSON, REST, OAuth 2.0"), with a Server that any blob backend can
// serve and a Store connector implementing csp.Store over HTTP.
//
// Protocol (all requests carry "Authorization: Bearer <token>"):
//
//	GET    /v1/auth                     -> 204 (validates the token)
//	GET    /v1/objects?prefix=P         -> 200 JSON [{name,size,modified}]
//	GET    /v1/objects/<escaped-name>   -> 200 body
//	PUT    /v1/objects/<escaped-name>   -> 201
//	DELETE /v1/objects/<escaped-name>   -> 204
//	POST   /v1/batch  ["name",...]      -> 200 frames of the objects held
//
// The listing schema is closed: every entry carries exactly the members
// name (string), size (integer) and modified (RFC 3339 string), in any
// order, and nothing else; both ends handle it with a codec written for that
// shape (listing.go), and the connector refuses any other document.
//
// A batch answers many small objects — metadata shares — in one round trip.
// The request is a JSON array of at most 1024 names in at most 1 MiB; the
// response is application/octet-stream with an exact Content-Length, one
// frame per object the provider holds, in request order, absent objects
// simply omitted:
//
//	uvarint len(name) | name | uvarint len(body) | body
//
// and at most 64 MiB in all. A request or a response past a cap is refused
// with 413 (the request before the store is touched); the connector splits
// longer want-lists into several requests and rejects an answer that names
// an object it did not ask for, names one twice, or ends mid-frame.
//
// Error mapping: 401 unauthorized, 404 not found, 413 too large, 503
// unavailable, 507 over capacity. The test/admin endpoints POST
// /admin/available and POST /admin/fail drive the backend's fault injection
// for integration tests and demos.
package resthttp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/obs"
)

// maxObjectBytes bounds a single uploaded object (shares are chunk-sized;
// 1 GiB leaves room for unchunked demo files).
const maxObjectBytes = 1 << 30

// readBody reads an object body into memory, capped at maxObjectBytes.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	return readCapped(body, declared, maxObjectBytes)
}

// readCapped reads a message body into memory; one longer than limit fails
// with errTooLarge once limit+1 bytes were read. declared is the message's
// Content-Length (-1 when unknown). A plausible one sizes the buffer up
// front, so the body is written once into memory that is never regrown; it
// is a hint only — a body that ends short fails with the transport's own
// error, and one that runs long is still read to the cap.
func readCapped(body io.Reader, declared, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 && declared <= limit {
		// ReadFrom wants bytes.MinRead spare bytes before the read that
		// returns io.EOF, or it regrows the buffer to make them.
		buf.Grow(int(declared) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(&cappedReader{r: body, left: limit + 1})
	return buf.Bytes(), err
}

// writeSized sends a response body held in memory, declaring its length so
// the receiving readCapped sizes its buffer once.
func writeSized(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a failed write means the client went away
}

// Server serves one provider. Create with NewServer and mount its Handler.
type Server struct {
	backend *cloudsim.Backend // nil when serving a non-simulated store
	store   csp.Store         // authenticated pass-through to the provider
	token   string
	admin   bool
	obs     *obs.Observer // nil = observability endpoints disabled
}

// NewServer wraps a backend. token is the bearer token clients must
// present; admin enables the fault-injection endpoints.
func NewServer(backend *cloudsim.Backend, token string, admin bool) (*Server, error) {
	if token == "" {
		return nil, errors.New("resthttp: empty token")
	}
	s := cloudsim.NewSimStore(backend)
	if err := s.Authenticate(context.Background(), csp.Credentials{Token: token}); err != nil {
		return nil, err
	}
	return &Server{backend: backend, store: s, token: token, admin: admin}, nil
}

// NewStoreServer serves an arbitrary csp.Store — e.g. a directory-backed
// DirStore for a durable single-machine provider. Stores implementing the
// streaming capabilities (csp.StreamUploader / csp.StreamDownloader) get
// object bodies piped end to end without whole-object buffering. The
// fault-injection admin endpoints need a simulated backend and are not
// available.
func NewStoreServer(store csp.Store, token string) (*Server, error) {
	if token == "" {
		return nil, errors.New("resthttp: empty token")
	}
	if err := store.Authenticate(context.Background(), csp.Credentials{Token: token}); err != nil {
		return nil, err
	}
	return &Server{store: store, token: token}, nil
}

// SetObserver attaches an observability layer: /metrics (Prometheus text),
// /healthz (scoreboard JSON), /debug/spans, /debug/flightrecorder (flight
// recorder dumps, event ring, open spans, and load telemetry; POST forces
// a dump), and net/http/pprof under /debug/pprof/, plus per-request HTTP
// metrics. These endpoints are served
// without bearer auth — they expose operational state, never object data,
// and scrapers don't carry tokens. The pprof cmdline endpoint is
// deliberately NOT registered: it would return the process argv, which can
// carry the bearer token (cyruscsp -token). Call before Handler.
func (s *Server) SetObserver(o *obs.Observer) { s.obs = o }

// Handler returns the http.Handler serving the protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/auth", s.handleAuth)
	mux.HandleFunc("/v1/objects", s.handleList)
	mux.HandleFunc("/v1/objects/", s.handleObject)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	if s.admin {
		mux.HandleFunc("/admin/available", s.handleAvailable)
		mux.HandleFunc("/admin/fail", s.handleFail)
	}
	if s.obs == nil {
		return mux
	}
	mux.Handle("/metrics", s.obs.MetricsHandler())
	mux.Handle("/healthz", s.obs.HealthzHandler())
	mux.Handle("/debug/spans", s.obs.SpansHandler())
	mux.Handle("/debug/flightrecorder", s.obs.FlightHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	// No pprof.Cmdline: argv may contain the bearer token, and these
	// endpoints are unauthenticated. Index serves it a 404.
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// instrument wraps the mux with HTTP request metrics: a counter by method,
// route, and status class, and a latency histogram by route. Routes are the
// mux patterns (object names collapse into one label value), so label
// cardinality stays bounded.
func (s *Server) instrument(next http.Handler) http.Handler {
	reg := s.obs.Registry()
	reqs := reg.Counter(obs.MetricHTTPRequests, "HTTP requests by method, route, and status code.", "method", "route", "code")
	durs := reg.Histogram(obs.MetricHTTPDuration, "HTTP request latency by route.", nil, "route")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		route := routeLabel(r.URL.Path)
		reqs.With(r.Method, route, strconv.Itoa(sw.code)).Inc()
		durs.With(route).Observe(time.Since(start).Seconds())
	})
}

// routeLabel collapses request paths onto their mux pattern. Only the
// known patterns appear as label values; everything else — including every
// unmatched 404 path an unauthenticated client can invent — maps to the
// single value "other", so label cardinality stays bounded.
func routeLabel(path string) string {
	switch path {
	case "/v1/auth", "/v1/objects", "/v1/batch", "/metrics", "/healthz", "/debug/spans",
		"/debug/flightrecorder", "/admin/available", "/admin/fail":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/v1/objects/"):
		return "/v1/objects/{name}"
	case strings.HasPrefix(path, "/debug/pprof/"):
		return "/debug/pprof/"
	default:
		return "other"
	}
}

// errTooLarge ends the read of a body that runs past its cap.
var errTooLarge = errors.New("resthttp: body exceeds size limit")

// cappedReader is a LimitReader that fails instead of truncating: it
// returns errTooLarge instead of io.EOF once the cap is consumed, so a
// too-large body fails the upload rather than committing a truncated
// object.
type cappedReader struct {
	r    io.Reader
	left int64
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, errTooLarge
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

// countingWriter tracks whether any response bytes were written, to decide
// if an error status can still be sent.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// statusWriter records the status code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// authorized validates the bearer token.
func (s *Server) authorized(r *http.Request) bool {
	h := r.Header.Get("Authorization")
	return strings.HasPrefix(h, "Bearer ") && h[len("Bearer "):] == s.token
}

// writeErr maps backend errors to status codes.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, csp.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, csp.ErrOverCapacity):
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
	case errors.Is(err, csp.ErrUnavailable):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, csp.ErrUnauthorized):
		http.Error(w, err.Error(), http.StatusUnauthorized)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleAuth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorized(r) {
		http.Error(w, "bad token", http.StatusUnauthorized)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorized(r) {
		http.Error(w, "bad token", http.StatusUnauthorized)
		return
	}
	infos, err := s.store.List(r.Context(), r.URL.Query().Get("prefix"))
	if err != nil {
		writeErr(w, err)
		return
	}
	doc, err := appendListing(make([]byte, 0, 128*len(infos)+3), infos)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeSized(w, "application/json", doc)
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(r) {
		http.Error(w, "bad token", http.StatusUnauthorized)
		return
	}
	name, err := url.PathUnescape(strings.TrimPrefix(r.URL.EscapedPath(), "/v1/objects/"))
	if err != nil || name == "" {
		http.Error(w, "bad object name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		// A simulated backend's object is already in memory: it goes out in
		// one write under its Content-Length, which a client's Download sizes
		// its buffer by. Only other stores stream.
		if sd, ok := s.store.(csp.StreamDownloader); ok && s.backend == nil {
			// Stream the body: the store pipes object bytes straight to the
			// response (chunked transfer; length is unknown up front). An
			// error after the first byte can only abort the connection.
			w.Header().Set("Content-Type", "application/octet-stream")
			cw := &countingWriter{w: w}
			if _, err := sd.DownloadTo(r.Context(), name, cw); err != nil {
				if cw.n == 0 {
					writeErr(w, err)
				}
				return
			}
			return
		}
		data, err := s.store.Download(r.Context(), name)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeSized(w, "application/octet-stream", data)
	case http.MethodPut:
		if r.ContentLength > maxObjectBytes {
			// Refused on the declared length alone: nothing is read, let
			// alone buffered, for an upload that cannot be accepted.
			http.Error(w, "object too large", http.StatusRequestEntityTooLarge)
			return
		}
		if su, ok := s.store.(csp.StreamUploader); ok {
			// Stream the body into the store; the byte-limit guard errors
			// (rather than silently truncating) past the cap, which aborts
			// the store's atomic write — no torn or clipped object lands.
			_, err := su.UploadFrom(r.Context(), name, &cappedReader{r: r.Body, left: maxObjectBytes + 1})
			switch {
			case errors.Is(err, errTooLarge):
				http.Error(w, "object too large", http.StatusRequestEntityTooLarge)
				return
			case err != nil:
				writeErr(w, err)
				return
			}
			w.WriteHeader(http.StatusCreated)
			return
		}
		data, err := readBody(r.Body, r.ContentLength)
		switch {
		case errors.Is(err, errTooLarge):
			http.Error(w, "object too large", http.StatusRequestEntityTooLarge)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.store.Upload(r.Context(), name, data); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if err := s.store.Delete(r.Context(), name); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleAvailable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !s.authorized(r) {
		http.Error(w, "nope", http.StatusForbidden)
		return
	}
	up := r.URL.Query().Get("up") != "false"
	s.backend.SetAvailable(up)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || !s.authorized(r) {
		http.Error(w, "nope", http.StatusForbidden)
		return
	}
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n < 0 {
		http.Error(w, "bad n", http.StatusBadRequest)
		return
	}
	s.backend.FailNext(n)
	w.WriteHeader(http.StatusNoContent)
}

var _ fmt.Stringer = csp.NameKeyed // keep csp linked for the doc reference
