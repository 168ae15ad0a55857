package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/csp"
	"repro/internal/netsim"
)

// Transport models the network cost of provider operations. A nil
// Transport means instant operations (pure-functional tests).
type Transport interface {
	// RoundTrip charges one control round trip to the provider.
	RoundTrip(cspName string) error
	// Move charges a data transfer of the given size and direction.
	Move(cspName string, dir netsim.Direction, bytes int64) error
}

// NodeTransport charges operations against a netsim node's links — the
// transport used in all latency experiments.
type NodeTransport struct {
	Net  *netsim.Network
	Node string
}

// RoundTrip implements Transport.
func (t NodeTransport) RoundTrip(cspName string) error {
	return t.Net.RoundTrip(t.Node, cspName)
}

// Move implements Transport.
func (t NodeTransport) Move(cspName string, dir netsim.Direction, bytes int64) error {
	return t.Net.Transfer(t.Node, cspName, dir, bytes)
}

// SimStore is one client's view of a simulated provider: shared Backend
// state plus the client's own Transport and session. It implements
// csp.Store.
type SimStore struct {
	backend   *Backend
	transport Transport
	clock     func() time.Time

	mu            sync.Mutex
	authenticated bool
}

// Option configures a SimStore.
type Option func(*SimStore)

// WithTransport charges the store's operations to a transport.
func WithTransport(t Transport) Option {
	return func(s *SimStore) { s.transport = t }
}

// WithClock sets the time source for object modification stamps (virtual
// time under netsim).
func WithClock(now func() time.Time) Option {
	return func(s *SimStore) { s.clock = now }
}

// NewSimStore wraps a backend for one client.
func NewSimStore(b *Backend, opts ...Option) *SimStore {
	s := &SimStore{backend: b, clock: time.Now}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Backend exposes the shared state (for tests and fault injection).
func (s *SimStore) Backend() *Backend { return s.backend }

// Name implements csp.Store.
func (s *SimStore) Name() string { return s.backend.name }

// Authenticate implements csp.Store. The simulation accepts any non-empty
// token, modeling the paper's use of each provider's existing auth.
func (s *SimStore) Authenticate(ctx context.Context, creds csp.Credentials) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if creds.Token == "" {
		return fmt.Errorf("%w: empty token for %s", csp.ErrUnauthorized, s.backend.name)
	}
	if err := s.charge(0, netsim.Up, true); err != nil {
		return err
	}
	s.mu.Lock()
	s.authenticated = true
	s.mu.Unlock()
	return nil
}

func (s *SimStore) session(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	ok := s.authenticated
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", csp.ErrUnauthorized, s.backend.name)
	}
	return nil
}

// charge applies transport costs: one RTT per request plus the payload.
func (s *SimStore) charge(bytes int64, dir netsim.Direction, rttOnly bool) error {
	if s.transport == nil {
		return nil
	}
	if err := s.transport.RoundTrip(s.backend.name); err != nil {
		return err
	}
	if rttOnly || bytes == 0 {
		return nil
	}
	return s.transport.Move(s.backend.name, dir, bytes)
}

// List implements csp.Store.
func (s *SimStore) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	if err := s.charge(0, netsim.Down, true); err != nil {
		return nil, err
	}
	return s.backend.list(prefix)
}

// Upload implements csp.Store.
func (s *SimStore) Upload(ctx context.Context, name string, data []byte) error {
	if err := s.session(ctx); err != nil {
		return err
	}
	// Admission first (capacity/availability), then the transfer cost:
	// a rejected upload costs only the control round trip.
	if err := s.backend.upload(name, data, s.clock()); err != nil {
		_ = s.charge(0, netsim.Up, true)
		return err
	}
	return s.charge(int64(len(data)), netsim.Up, false)
}

// Download implements csp.Store.
func (s *SimStore) Download(ctx context.Context, name string) ([]byte, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	data, err := s.backend.download(name)
	if err != nil {
		_ = s.charge(0, netsim.Down, true)
		return nil, err
	}
	if err := s.charge(int64(len(data)), netsim.Down, false); err != nil {
		return nil, err
	}
	return data, nil
}

// DownloadTo implements csp.StreamDownloader: Download's costs, with the
// stored bytes written straight to w instead of copied into a new slice.
func (s *SimStore) DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error) {
	if err := s.session(ctx); err != nil {
		return 0, err
	}
	data, err := s.backend.view(name)
	if err != nil {
		_ = s.charge(0, netsim.Down, true)
		return 0, err
	}
	if err := s.charge(int64(len(data)), netsim.Down, false); err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// DownloadBatch implements csp.BatchDownloader: many objects for one
// control round trip plus the summed payload transfer. Missing objects are
// omitted from the result; availability failures abort the whole batch
// (the provider, not an object, is unreachable).
func (s *SimStore) DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(names))
	var total int64
	for _, name := range names {
		data, err := s.backend.download(name)
		if err != nil {
			if errors.Is(err, csp.ErrNotFound) {
				continue
			}
			_ = s.charge(0, netsim.Down, true)
			return nil, err
		}
		out[name] = data
		total += int64(len(data))
	}
	if err := s.charge(total, netsim.Down, false); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete implements csp.Store.
func (s *SimStore) Delete(ctx context.Context, name string) error {
	if err := s.session(ctx); err != nil {
		return err
	}
	if err := s.charge(0, netsim.Up, true); err != nil {
		return err
	}
	return s.backend.delete(name)
}

// PutRef implements csp.RefStore. A dedup hit (object already present)
// costs only the control round trip; only a created object pays the
// payload transfer.
func (s *SimStore) PutRef(ctx context.Context, name, ref string, data []byte) (bool, error) {
	if err := s.session(ctx); err != nil {
		return false, err
	}
	created, err := s.backend.putRef(name, ref, data, s.clock())
	if err != nil || !created {
		cerr := s.charge(0, netsim.Up, true)
		if err == nil {
			err = cerr
		}
		return created, err
	}
	return true, s.charge(int64(len(data)), netsim.Up, false)
}

// AddRef implements csp.RefStore: the batched existence probe of the dedup
// upload path — one RTT, no payload.
func (s *SimStore) AddRef(ctx context.Context, name, ref string) error {
	if err := s.session(ctx); err != nil {
		return err
	}
	if err := s.charge(0, netsim.Up, true); err != nil {
		return err
	}
	return s.backend.addRef(name, ref)
}

// DelRef implements csp.RefStore.
func (s *SimStore) DelRef(ctx context.Context, name, ref string) (bool, error) {
	if err := s.session(ctx); err != nil {
		return false, err
	}
	if err := s.charge(0, netsim.Up, true); err != nil {
		return false, err
	}
	return s.backend.delRef(name, ref)
}

// Refs implements csp.RefStore.
func (s *SimStore) Refs(ctx context.Context, name string) ([]string, error) {
	if err := s.session(ctx); err != nil {
		return nil, err
	}
	if err := s.charge(0, netsim.Down, true); err != nil {
		return nil, err
	}
	return s.backend.refList(name)
}

var (
	_ csp.Store            = (*SimStore)(nil)
	_ csp.RefStore         = (*SimStore)(nil)
	_ csp.BatchDownloader  = (*SimStore)(nil)
	_ csp.StreamDownloader = (*SimStore)(nil)
)
