package resthttp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"repro/internal/csp"
)

// Store is a csp.Store talking the resthttp protocol — the connector role
// of the paper's Figure 10 ("cloud connectors for popular commercial
// CSPs"), for providers that serve this protocol (cmd/cyruscsp, or any
// compatible implementation). It speaks HTTP/1.1 itself over a pool of
// kept-alive connections (conn.go).
type Store struct {
	name    string
	baseURL string
	ep      endpoint
	epErr   error // a base URL the Store cannot dial, reported by every call

	mu    sync.Mutex
	token string
	idle  []*conn // kept-alive connections, most recently used last
}

// NewStore builds a connector for the provider at baseURL (e.g.
// "http://localhost:8081" or "https://csp.example/cyrus").
func NewStore(name, baseURL string) *Store {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	ep, err := parseEndpoint(baseURL)
	return &Store{name: name, baseURL: baseURL, ep: ep, epErr: err}
}

// Name implements csp.Store.
func (s *Store) Name() string { return s.name }

func (s *Store) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	s.mu.Lock()
	token := s.token
	s.mu.Unlock()
	if token == "" {
		return nil, fmt.Errorf("%w: %s", csp.ErrUnauthorized, s.name)
	}
	return s.roundTrip(ctx, method, path, token, body)
}

// maxDrainBytes bounds what drainClose reads past the bytes a call used:
// beyond it, dropping the connection is cheaper than reading on.
const maxDrainBytes = 256 << 10

// drainClose reads what is left of a response body, then closes it. A
// connection goes back to the keep-alive pool only once its response was
// read to EOF; closing with anything unread — even the terminal chunk behind
// a JSON document — discards the socket, and the next call dials a new one.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
	body.Close()
}

// mapStatus converts an HTTP status to the csp error taxonomy.
func (s *Store) mapStatus(resp *http.Response) error {
	defer drainClose(resp.Body)
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	text := fmt.Sprintf("%s: http %d: %s", s.name, resp.StatusCode, bytes.TrimSpace(msg))
	switch resp.StatusCode {
	case http.StatusUnauthorized, http.StatusForbidden:
		return fmt.Errorf("%w: %s", csp.ErrUnauthorized, text)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", csp.ErrNotFound, text)
	case http.StatusInsufficientStorage:
		return fmt.Errorf("%w: %s", csp.ErrOverCapacity, text)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s", csp.ErrUnavailable, text)
	default:
		return fmt.Errorf("%w: %s", csp.ErrUnavailable, text)
	}
}

// Authenticate implements csp.Store: it validates the token against the
// provider's auth endpoint and caches it for subsequent calls.
func (s *Store) Authenticate(ctx context.Context, creds csp.Credentials) error {
	if creds.Token == "" {
		return fmt.Errorf("%w: empty token for %s", csp.ErrUnauthorized, s.name)
	}
	if !validToken(creds.Token) {
		return fmt.Errorf("%w: token for %s holds control characters", csp.ErrUnauthorized, s.name)
	}
	resp, err := s.roundTrip(ctx, http.MethodGet, "/v1/auth", creds.Token, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return s.mapStatus(resp)
	}
	drainClose(resp.Body)
	s.mu.Lock()
	s.token = creds.Token
	s.mu.Unlock()
	return nil
}

// List implements csp.Store.
func (s *Store) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	resp, err := s.do(ctx, http.MethodGet, "/v1/objects?prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, s.mapStatus(resp)
	}
	defer drainClose(resp.Body)
	doc, err := readBody(resp.Body, resp.ContentLength)
	var infos []csp.ObjectInfo
	if err == nil {
		infos, err = decodeListing(doc)
	}
	if err != nil {
		return nil, s.unavailable(ctx, fmt.Errorf("bad listing: %v", err))
	}
	return infos, nil
}

// Upload implements csp.Store.
func (s *Store) Upload(ctx context.Context, name string, data []byte) error {
	resp, err := s.do(ctx, http.MethodPut, "/v1/objects/"+url.PathEscape(name), data)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return s.mapStatus(resp)
	}
	drainClose(resp.Body)
	return nil
}

// Download implements csp.Store.
func (s *Store) Download(ctx context.Context, name string) ([]byte, error) {
	resp, err := s.do(ctx, http.MethodGet, "/v1/objects/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, s.mapStatus(resp)
	}
	defer drainClose(resp.Body)
	data, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, s.unavailable(ctx, err)
	}
	return data, nil
}

// DownloadTo implements csp.StreamDownloader: the response body is copied
// straight to w.
func (s *Store) DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error) {
	resp, err := s.do(ctx, http.MethodGet, "/v1/objects/"+url.PathEscape(name), nil)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, s.mapStatus(resp)
	}
	defer drainClose(resp.Body)
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		return n, s.unavailable(ctx, err)
	}
	return n, nil
}

// Delete implements csp.Store.
func (s *Store) Delete(ctx context.Context, name string) error {
	resp, err := s.do(ctx, http.MethodDelete, "/v1/objects/"+url.PathEscape(name), nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return s.mapStatus(resp)
	}
	drainClose(resp.Body)
	return nil
}

var (
	_ csp.Store            = (*Store)(nil)
	_ csp.StreamDownloader = (*Store)(nil)
)
