package cloudsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/csp"
)

// DirStore is a provider backed by a local directory: each object is a
// file. It gives cmd/cyrusctl and integration tests a durable provider
// with real I/O while remaining fully offline. Object names are encoded to
// stay filesystem-safe.
type DirStore struct {
	name string
	root string

	mu            sync.Mutex
	authenticated bool
}

// NewDirStore creates (if necessary) and opens a directory-backed provider.
func NewDirStore(name, root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("cloudsim: create %s root: %w", name, err)
	}
	return &DirStore{name: name, root: root}, nil
}

// Name implements csp.Store.
func (d *DirStore) Name() string { return d.name }

// Authenticate implements csp.Store.
func (d *DirStore) Authenticate(ctx context.Context, creds csp.Credentials) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if creds.Token == "" {
		return fmt.Errorf("%w: empty token for %s", csp.ErrUnauthorized, d.name)
	}
	d.mu.Lock()
	d.authenticated = true
	d.mu.Unlock()
	return nil
}

func (d *DirStore) session(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	ok := d.authenticated
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", csp.ErrUnauthorized, d.name)
	}
	return nil
}

// filePrefix marks encoded object files; anything else in the root (temp
// files, stray dirs) is ignored by List.
const filePrefix = "f-"

// nameEscaper and nameUnescaper are built once: List decodes every directory
// entry, and a Replacer is safe for concurrent use.
var (
	nameEscaper   = strings.NewReplacer("%", "%25", "/", "%2F", "\\", "%5C")
	nameUnescaper = strings.NewReplacer("%2F", "/", "%5C", "\\", "%25", "%")
)

// encodeName makes an object name filesystem-safe: "%" is escaped first so
// decoding is unambiguous, path separators cannot escape the root, and the
// "f-" prefix rules out "." / ".." and temp-file collisions.
func encodeName(name string) string {
	return filePrefix + nameEscaper.Replace(name)
}

// decodeName reverses encodeName; ok is false for files List should skip.
func decodeName(enc string) (string, bool) {
	if !strings.HasPrefix(enc, filePrefix) {
		return "", false
	}
	return nameUnescaper.Replace(enc[len(filePrefix):]), true
}

// List implements csp.Store.
func (d *DirStore) List(ctx context.Context, prefix string) ([]csp.ObjectInfo, error) {
	if err := d.session(ctx); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	var out []csp.ObjectInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, ok := decodeName(e.Name())
		if !ok || !strings.HasPrefix(name, prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a delete
		}
		out = append(out, csp.ObjectInfo{Name: name, Size: info.Size(), Modified: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Upload implements csp.Store (name-keyed semantics: overwrite). The write
// goes through a temp file + rename so concurrent readers never observe a
// torn object.
func (d *DirStore) Upload(ctx context.Context, name string, data []byte) error {
	_, err := d.UploadFrom(ctx, name, bytes.NewReader(data))
	return err
}

// UploadFrom implements csp.StreamUploader: the object body is copied
// incrementally from r into a temp file and published with one atomic
// rename. A reader error (including a crashed or aborted upload) removes
// the temp file, so a torn object is never visible to List or Download —
// temp files carry no "f-" prefix and are invisible to List even if the
// process dies between write and rename.
func (d *DirStore) UploadFrom(ctx context.Context, name string, r io.Reader) (int64, error) {
	if err := d.session(ctx); err != nil {
		return 0, err
	}
	dst := filepath.Join(d.root, encodeName(name))
	tmp, err := os.CreateTemp(d.root, ".upload-*")
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	tmpName := tmp.Name()
	n, err := io.Copy(tmp, r)
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		// Propagate the copy error as-is (a reader abort must stay
		// branchable by the caller; a local write fault is already wrapped
		// by the os layer).
		return n, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return n, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return n, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return n, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	return n, nil
}

// Download implements csp.Store.
func (d *DirStore) Download(ctx context.Context, name string) ([]byte, error) {
	if err := d.session(ctx); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(d.root, encodeName(name)))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, d.name, name)
		}
		return nil, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	return data, nil
}

// DownloadTo implements csp.StreamDownloader: object bytes are copied to w
// without buffering the whole object. Renames are atomic, so an open file
// keeps serving the version it opened even if overwritten concurrently.
func (d *DirStore) DownloadTo(ctx context.Context, name string, w io.Writer) (int64, error) {
	if err := d.session(ctx); err != nil {
		return 0, err
	}
	f, err := os.Open(filepath.Join(d.root, encodeName(name)))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, d.name, name)
		}
		return 0, fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	defer f.Close()
	n, err := io.Copy(w, f)
	if err != nil {
		return n, err
	}
	return n, nil
}

// Delete implements csp.Store.
func (d *DirStore) Delete(ctx context.Context, name string) error {
	if err := d.session(ctx); err != nil {
		return err
	}
	err := os.Remove(filepath.Join(d.root, encodeName(name)))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s has no %q", csp.ErrNotFound, d.name, name)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, d.name, err)
	}
	return nil
}

var (
	_ csp.Store            = (*DirStore)(nil)
	_ csp.StreamUploader   = (*DirStore)(nil)
	_ csp.StreamDownloader = (*DirStore)(nil)
)
