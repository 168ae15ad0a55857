// Package csp defines CYRUS's minimal cloud-storage-provider abstraction.
//
// CYRUS is CSP-agnostic by construction: it uses only the five basic calls
// available from essentially every provider (and even plain FTP servers) —
// authenticate, list, upload, download, delete (paper §3.1). Everything
// provider-specific (object identity semantics, locking behavior, capacity)
// lives behind this interface, in internal/cloudsim for the simulated and
// directory-backed providers.
package csp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Error taxonomy. Connectors map provider responses onto these so the core
// can react uniformly (retry, mark failed, lazy-migrate).
var (
	ErrNotFound     = errors.New("csp: object not found")
	ErrUnavailable  = errors.New("csp: provider unavailable")
	ErrUnauthorized = errors.New("csp: not authenticated")
	ErrOverCapacity = errors.New("csp: provider capacity exceeded")
	ErrExists       = errors.New("csp: object already exists")
)

// Credentials for Authenticate. CYRUS utilizes each provider's existing
// authentication mechanism; the simulated providers accept any non-empty
// token.
type Credentials struct {
	Token string
}

// ObjectInfo describes one stored object, as returned by List.
type ObjectInfo struct {
	Name     string
	Size     int64
	Modified time.Time
}

// Store is the five-call CSP interface.
//
// Implementations must be safe for concurrent use. Upload semantics follow
// the weakest common denominator: uploading an existing name either
// overwrites (name-keyed providers, e.g. Dropbox) or creates a duplicate
// object under the same name (id-keyed providers, e.g. Google Drive) —
// CYRUS's share naming makes both safe because a share name uniquely
// determines its content (paper §5.1).
type Store interface {
	// Name returns the provider identifier (unique within a CYRUS cloud).
	Name() string
	// Authenticate establishes a session. All other calls fail with
	// ErrUnauthorized before a successful Authenticate.
	Authenticate(ctx context.Context, creds Credentials) error
	// List returns objects whose names begin with prefix, sorted by name.
	List(ctx context.Context, prefix string) ([]ObjectInfo, error)
	// Upload stores data under name.
	Upload(ctx context.Context, name string, data []byte) error
	// Download retrieves the object. If several objects share the name
	// (id-keyed providers), the most recently uploaded wins.
	Download(ctx context.Context, name string) ([]byte, error)
	// Delete removes the object (all duplicates of the name).
	Delete(ctx context.Context, name string) error
}

// StreamUploader is an optional Store capability: Upload with the body
// drawn incrementally from r, so neither side must buffer the whole
// object. Implementations must be atomic — when r returns an error the
// partial object must never become visible to List or Download.
type StreamUploader interface {
	UploadFrom(ctx context.Context, name string, r io.Reader) (int64, error)
}

// StreamDownloader is an optional Store capability: Download with the
// object bytes written incrementally to w. On error, a prefix of the
// object may already have been written.
type StreamDownloader interface {
	DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error)
}

// DownloadTo writes the named object to w, through the store's
// StreamDownloader when present and one Download and one Write otherwise.
// It returns the bytes written; on error a prefix may already have been.
func DownloadTo(ctx context.Context, s Store, name string, w io.Writer) (int64, error) {
	if sd, ok := s.(StreamDownloader); ok {
		return sd.DownloadTo(ctx, name, w)
	}
	data, err := s.Download(ctx, name)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// BatchDownloader is an optional Store capability: fetch many objects in
// one provider round trip. Missing objects are simply absent from the
// result map — a batch with some unknown names is not an error. Real
// providers expose equivalents (S3 multi-object GET pipelining, Dropbox
// batch endpoints); the simulation charges one round-trip latency for the
// whole batch, which is what makes directory-scale metadata fetches
// O(CSPs) instead of O(files).
type BatchDownloader interface {
	DownloadBatch(ctx context.Context, names []string) (map[string][]byte, error)
}

// DownloadBatch fetches the named objects, using the store's
// BatchDownloader fast path when present and falling back to sequential
// Downloads otherwise. Missing objects are omitted from the result; any
// other per-object error aborts the batch.
func DownloadBatch(ctx context.Context, s Store, names []string) (map[string][]byte, error) {
	if bd, ok := s.(BatchDownloader); ok {
		return bd.DownloadBatch(ctx, names)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		data, err := s.Download(ctx, name)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return nil, err
		}
		out[name] = data
	}
	return out, nil
}

// RefStore is an optional Store capability for content-addressed dedup:
// server-side reference tokens on objects, with atomic
// create-if-absent-and-reference and delete-on-last-release semantics.
// Real providers expose equivalents (S3 conditional PUT + tagging, GCS
// generation preconditions); the simulation implements it directly.
//
// Tokens are opaque strings scoped by the caller (CYRUS uses one token per
// user per object). All four calls are atomic with respect to each other
// and to the base Store calls. Providers without RefStore still work in
// dedup mode — clients fall back to plain Upload and garbage collection is
// conservative there (it never removes an object it cannot refcount).
type RefStore interface {
	// PutRef stores data under name if no object exists there, and
	// registers ref on the object either way. Returns created=false when
	// the object already existed (the dedup hit: no payload stored).
	PutRef(ctx context.Context, name, ref string, data []byte) (created bool, err error)
	// AddRef registers ref on an existing object; ErrNotFound if absent.
	// It doubles as the existence probe: success means the object is held
	// and now referenced, so no upload is needed.
	AddRef(ctx context.Context, name, ref string) error
	// DelRef removes ref from the object and deletes the object when its
	// last token drains. Returns removed=true when the object was deleted.
	// Removing a token that is not registered is a no-op, so releases are
	// idempotent; ErrNotFound if the object does not exist.
	DelRef(ctx context.Context, name, ref string) (removed bool, err error)
	// Refs returns the object's registered tokens, sorted; ErrNotFound if
	// the object does not exist.
	Refs(ctx context.Context, name string) ([]string, error)
}

// AuthKind is a provider's authentication mechanism (Table 2).
type AuthKind string

// Authentication mechanisms observed across commercial CSPs.
const (
	AuthOAuth2    AuthKind = "OAuth 2.0"
	AuthOAuth1    AuthKind = "OAuth 1.0"
	AuthOAuth     AuthKind = "OAuth"
	AuthOAuthLike AuthKind = "OAuth-like"
	AuthAWSSig    AuthKind = "AWS Signature"
	AuthPassword  AuthKind = "ID/Password"
	AuthAPIKey    AuthKind = "API Key"
	AuthKeystone  AuthKind = "OpenStack Keystone V3"
	AuthDigest    AuthKind = "HTTP Digest"
	AuthTwoStep   AuthKind = "Two-step authentication"
	AuthSAML2     AuthKind = "SAML 2.0"
	AuthCustom    AuthKind = "Custom"
)

// ObjectIdentity describes how a provider keys stored objects, the central
// heterogeneity CYRUS must absorb (paper §3.1).
type ObjectIdentity int

// Object identity models.
const (
	// NameKeyed providers (Dropbox) use the file name as the identifier:
	// re-uploading a name overwrites.
	NameKeyed ObjectIdentity = iota
	// IDKeyed providers (Google Drive) assign separate file IDs:
	// re-uploading a name creates a duplicate.
	IDKeyed
)

func (o ObjectIdentity) String() string {
	if o == NameKeyed {
		return "name-keyed"
	}
	return "id-keyed"
}

// Profile is one row of the paper's Table 2 plus the behavioral parameters
// the simulation needs.
type Profile struct {
	Name       string
	Format     string // XML / JSON / XML,JSON
	Protocol   string // REST / SOAP / SOAP,REST
	Auth       AuthKind
	RTT        time.Duration // measured from Korea (Table 2)
	Throughput float64       // Mbps, derived from RTT (Table 2)
	Platform   string        // hosting platform, "" = own infrastructure
	Identity   ObjectIdentity
	Locking    bool // whether lock files behave atomically (footnote 10)
}

// ThroughputBps returns the profile's throughput in bytes per second.
func (p Profile) ThroughputBps() float64 { return p.Throughput * 1e6 / 8 }

// TCP throughput model constants used by Table 2: throughput is estimated
// from the measured RTT assuming a 65,535-byte window and a 0.1% packet
// loss rate (the table caption), with 1 KiB segments.
const (
	TCPWindowBytes  = 65535
	TCPLossRate     = 0.001
	TCPSegmentBytes = 1024
)

// EstimateThroughputMbps reproduces Table 2's throughput column: the TCP
// throughput is the minimum of the window bound (window/RTT) and the
// Mathis loss bound (MSS/RTT · sqrt(3/(2·loss))), in Mbps. At Table 2's
// RTTs the loss bound is the binding constraint, matching the published
// numbers to within rounding.
func EstimateThroughputMbps(rtt time.Duration) float64 {
	if rtt <= 0 {
		return 0
	}
	windowBps := TCPWindowBytes / rtt.Seconds()
	mathisBps := TCPSegmentBytes * math.Sqrt(3/(2*TCPLossRate)) / rtt.Seconds()
	bytesPerSec := math.Min(windowBps, mathisBps)
	return bytesPerSec * 8 / 1e6
}

// registry is Table 2 of the paper verbatim: the 20 commercial providers
// with their formats, protocols, auth schemes, and Korea-measured RTTs.
// Platform annotations mirror the asterisked rows (Amazon-hosted CSPs).
var registry = []Profile{
	{Name: "amazon-s3", Format: "XML", Protocol: "SOAP/REST", Auth: AuthAWSSig, RTT: 235 * time.Millisecond, Throughput: 1.349, Platform: "amazon", Identity: NameKeyed},
	{Name: "box", Format: "JSON", Protocol: "REST", Auth: AuthOAuth2, RTT: 149 * time.Millisecond, Throughput: 2.128, Identity: IDKeyed, Locking: true},
	{Name: "dropbox", Format: "JSON", Protocol: "REST", Auth: AuthOAuth2, RTT: 137 * time.Millisecond, Throughput: 2.314, Identity: NameKeyed, Locking: true},
	{Name: "onedrive", Format: "JSON", Protocol: "REST", Auth: AuthOAuth2, RTT: 142 * time.Millisecond, Throughput: 2.233, Identity: IDKeyed},
	{Name: "google-drive", Format: "JSON", Protocol: "REST", Auth: AuthOAuth2, RTT: 71 * time.Millisecond, Throughput: 4.465, Identity: IDKeyed},
	{Name: "sugarsync", Format: "XML", Protocol: "REST", Auth: AuthOAuthLike, RTT: 146 * time.Millisecond, Throughput: 2.171, Identity: IDKeyed},
	{Name: "cloudmine", Format: "JSON", Protocol: "REST", Auth: AuthPassword, RTT: 215 * time.Millisecond, Throughput: 1.474, Identity: NameKeyed},
	{Name: "rackspace", Format: "XML/JSON", Protocol: "REST", Auth: AuthAPIKey, RTT: 186 * time.Millisecond, Throughput: 1.704, Identity: NameKeyed},
	{Name: "copy", Format: "JSON", Protocol: "REST", Auth: AuthOAuth, RTT: 192 * time.Millisecond, Throughput: 1.651, Identity: NameKeyed},
	{Name: "sharefile", Format: "JSON", Protocol: "REST", Auth: AuthOAuth2, RTT: 215 * time.Millisecond, Throughput: 1.474, Identity: IDKeyed},
	{Name: "4shared", Format: "XML", Protocol: "SOAP", Auth: AuthOAuth1, RTT: 186 * time.Millisecond, Throughput: 1.704, Identity: IDKeyed},
	{Name: "digitalbucket", Format: "XML", Protocol: "REST", Auth: AuthPassword, RTT: 217 * time.Millisecond, Throughput: 1.461, Platform: "amazon", Identity: NameKeyed},
	{Name: "bitcasa", Format: "JSON", Protocol: "REST", Auth: AuthOAuth2, RTT: 139 * time.Millisecond, Throughput: 2.281, Platform: "amazon", Identity: IDKeyed},
	{Name: "egnyte", Format: "JSON", Protocol: "REST", Auth: AuthOAuth2, RTT: 153 * time.Millisecond, Throughput: 2.072, Identity: NameKeyed},
	{Name: "mediafire", Format: "XML/JSON", Protocol: "REST", Auth: AuthOAuthLike, RTT: 192 * time.Millisecond, Throughput: 1.651, Identity: IDKeyed},
	{Name: "hp-cloud", Format: "XML/JSON", Protocol: "REST", Auth: AuthKeystone, RTT: 210 * time.Millisecond, Throughput: 1.509, Identity: NameKeyed},
	{Name: "cloudapp", Format: "JSON", Protocol: "REST", Auth: AuthDigest, RTT: 205 * time.Millisecond, Throughput: 1.546, Platform: "amazon", Identity: IDKeyed},
	{Name: "safecreative", Format: "XML/JSON", Protocol: "REST", Auth: AuthTwoStep, RTT: 295 * time.Millisecond, Throughput: 1.075, Platform: "amazon", Identity: IDKeyed},
	{Name: "filesanywhere", Format: "XML", Protocol: "SOAP", Auth: AuthCustom, RTT: 202 * time.Millisecond, Throughput: 1.569, Identity: NameKeyed},
	{Name: "centurylink", Format: "XML/JSON", Protocol: "SOAP/REST", Auth: AuthSAML2, RTT: 293 * time.Millisecond, Throughput: 1.082, Identity: NameKeyed},
}

// Registry returns a copy of the Table-2 provider registry.
func Registry() []Profile {
	out := make([]Profile, len(registry))
	copy(out, registry)
	return out
}

// LookupProfile returns the registry entry for a provider name.
func LookupProfile(name string) (Profile, error) {
	for _, p := range registry {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("csp: no profile for %q", name)
}

// PlatformMap returns provider -> platform for providers hosted on shared
// infrastructure, the ground truth behind topology inference.
func PlatformMap() map[string]string {
	m := make(map[string]string)
	for _, p := range registry {
		if p.Platform != "" {
			m[p.Name] = p.Platform
		}
	}
	return m
}
