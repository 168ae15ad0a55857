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
// compatible implementation).
type Store struct {
	name    string
	baseURL string
	client  *http.Client

	mu    sync.Mutex
	token string
}

// NewStore builds a connector for the provider at baseURL (e.g.
// "http://localhost:8081"). httpClient may be nil for http.DefaultClient.
func NewStore(name, baseURL string, httpClient *http.Client) *Store {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Store{name: name, baseURL: baseURL, client: httpClient}
}

// Name implements csp.Store.
func (s *Store) Name() string { return s.name }

func (s *Store) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	s.mu.Lock()
	token := s.token
	s.mu.Unlock()
	if token == "" {
		return nil, fmt.Errorf("%w: %s", csp.ErrUnauthorized, s.name)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.baseURL+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, s.name, err)
	}
	return resp, nil
}

// maxDrainBytes bounds what drainClose reads past the bytes a call used:
// beyond it, dropping the connection is cheaper than reading on.
const maxDrainBytes = 256 << 10

// drainClose reads what is left of a response body, then closes it.
// net/http returns a connection to the keep-alive pool only once its
// response was read to EOF; closing with anything unread — even the
// terminal chunk behind a JSON document — discards the socket, and the next
// call dials a new one.
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.baseURL+"/v1/auth", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+creds.Token)
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, s.name, err)
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
		return nil, fmt.Errorf("%w: %s: bad listing: %v", csp.ErrUnavailable, s.name, err)
	}
	return infos, nil
}

// Upload implements csp.Store.
func (s *Store) Upload(ctx context.Context, name string, data []byte) error {
	resp, err := s.do(ctx, http.MethodPut, "/v1/objects/"+url.PathEscape(name), bytes.NewReader(data))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return s.mapStatus(resp)
	}
	drainClose(resp.Body)
	return nil
}

// UploadFrom implements csp.StreamUploader: the request body is drawn from
// r (chunked transfer encoding), so neither the connector nor the server
// buffers the whole object.
func (s *Store) UploadFrom(ctx context.Context, name string, r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	resp, err := s.do(ctx, http.MethodPut, "/v1/objects/"+url.PathEscape(name), cr)
	if err != nil {
		return cr.n, err
	}
	if resp.StatusCode != http.StatusCreated {
		return cr.n, s.mapStatus(resp)
	}
	drainClose(resp.Body)
	return cr.n, nil
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
		return nil, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, s.name, err)
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
		return n, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, s.name, err)
	}
	return n, nil
}

// countingReader reports how many bytes a streamed upload consumed.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
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
	_ csp.StreamUploader   = (*Store)(nil)
	_ csp.StreamDownloader = (*Store)(nil)
)
