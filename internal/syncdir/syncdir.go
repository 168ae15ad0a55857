// Package syncdir implements CYRUS's synchronization service (paper §5.4):
// a local directory is kept in sync with the CYRUS cloud the way the
// prototype's "CYRUS folder" was.
//
// Local changes are detected by scanning the directory and comparing
// last-modified times and content hashes against a persisted index;
// remote changes are detected through the metadata tree (each upload
// creates a new metadata record, so listing the metadata prefix reveals
// everything). Conflicts never block a sync: the losing concurrent
// version is materialized next to the winner as
// "<name>.conflict-<clientID>-<version8>", mirroring how commercial sync
// clients surface them, and the conflict is resolved in the tree in favor
// of the winner.
package syncdir

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metadata"
)

// IndexName is the state file kept inside the synced directory.
const IndexName = ".cyrus-index.json"

// conflictInfix marks materialized conflict copies; such files are never
// uploaded.
const conflictInfix = ".conflict-"

// entry is the persisted per-file state from the last successful sync.
type entry struct {
	Hash      string    `json:"hash"`    // content SHA-1 at last sync
	Modified  time.Time `json:"mtime"`   // local mtime at last sync
	Size      int64     `json:"size"`    // local size at last sync
	VersionID string    `json:"version"` // cloud version this reflects
}

// index is the persisted sync state.
type index struct {
	Files map[string]*entry `json:"files"`
}

// Action describes one operation a sync performed, for reporting.
type Action struct {
	Op   string // "upload", "download", "delete-local", "delete-remote", "conflict-copy"
	Name string
}

// Syncer keeps one directory in sync with one CYRUS client.
type Syncer struct {
	client *core.Client
	root   string
	idx    index
}

// New creates a syncer over an existing directory.
func New(client *core.Client, root string) (*Syncer, error) {
	info, err := os.Stat(root)
	if err != nil {
		return nil, fmt.Errorf("syncdir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("syncdir: %s is not a directory", root)
	}
	s := &Syncer{client: client, root: root, idx: index{Files: map[string]*entry{}}}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Syncer) indexPath() string { return filepath.Join(s.root, IndexName) }

func (s *Syncer) loadIndex() error {
	raw, err := os.ReadFile(s.indexPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("syncdir: read index: %w", err)
	}
	if err := json.Unmarshal(raw, &s.idx); err != nil {
		return fmt.Errorf("syncdir: parse index: %w", err)
	}
	if s.idx.Files == nil {
		s.idx.Files = map[string]*entry{}
	}
	return nil
}

func (s *Syncer) saveIndex() error {
	raw, err := json.MarshalIndent(&s.idx, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.indexPath(), raw, 0o644)
}

// skip reports paths the scanner ignores: the index itself, conflict
// copies, hidden files, and directories.
func skip(rel string) bool {
	base := filepath.Base(rel)
	return base == IndexName || strings.Contains(base, conflictInfix) || strings.HasPrefix(base, ".")
}

// localFile is one scanned file.
type localFile struct {
	rel  string
	size int64
	mod  time.Time
}

// scan lists the sync-relevant files under the root.
func (s *Syncer) scan() ([]localFile, error) {
	var out []localFile
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != s.root && strings.HasPrefix(filepath.Base(path), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if skip(rel) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, localFile{rel: rel, size: info.Size(), mod: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("syncdir: scan: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rel < out[j].rel })
	return out, nil
}

// Sync performs one full bidirectional pass and returns the actions taken.
//
// Order of operations (each step tolerates the others' races by relying on
// the tree's conflict handling):
//  1. push local changes (new or modified files, judged by mtime+hash
//     against the index);
//  2. push local deletions (indexed files that vanished locally);
//  3. pull remote changes (head version differs from the index) and
//     remote deletions;
//  4. materialize conflicts as sibling copies and resolve them.
func (s *Syncer) Sync(ctx context.Context) ([]Action, error) {
	var actions []Action

	// One metadata sync serves the whole pass: the batched fetch inside
	// core.Sync resolves every new record in O(providers) round trips, and
	// all remote state below is read from the refreshed local replica
	// (StatLocal/ListLocal/...), not re-synced per file. The sync is
	// best-effort, like the per-operation syncs it replaces: a pass over a
	// stale replica is still correct, just less fresh.
	if _, err := s.client.Sync(ctx); err != nil {
		// Proceed on the local replica; the client already surfaced the
		// failure through its event bus.
		_ = err
	}

	locals, err := s.scan()
	if err != nil {
		return nil, err
	}
	present := map[string]bool{}

	// 1. Push local creations and edits. Hashing and uploading both stream
	// the file, so sync memory stays bounded by the pipeline window even
	// for huge files.
	for _, lf := range locals {
		present[lf.rel] = true
		known := s.idx.Files[lf.rel]
		if known != nil && known.Size == lf.size && known.Modified.Equal(lf.mod) {
			continue // unchanged by cheap check
		}
		path := filepath.Join(s.root, filepath.FromSlash(lf.rel))
		hash, err := hashFile(path)
		if err != nil {
			return actions, err
		}
		if known != nil && known.Hash == hash {
			// Touched but identical: refresh the index only.
			known.Modified = lf.mod
			known.Size = lf.size
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return actions, err
		}
		err = s.client.PutReader(ctx, lf.rel, f)
		f.Close()
		if err != nil {
			return actions, fmt.Errorf("syncdir: upload %s: %w", lf.rel, err)
		}
		st, err := s.client.StatLocal(lf.rel)
		if err != nil {
			return actions, err
		}
		s.idx.Files[lf.rel] = &entry{Hash: hash, Modified: lf.mod, Size: lf.size, VersionID: st.VersionID}
		actions = append(actions, Action{Op: "upload", Name: lf.rel})
	}

	// 2. Push local deletions.
	for rel := range s.idx.Files {
		if present[rel] {
			continue
		}
		if err := s.client.DeleteLocal(ctx, rel); err != nil && !errors.Is(err, core.ErrNoSuchFile) {
			return actions, fmt.Errorf("syncdir: delete %s: %w", rel, err)
		}
		delete(s.idx.Files, rel)
		actions = append(actions, Action{Op: "delete-remote", Name: rel})
	}

	// 3. Pull remote changes and deletions.
	remote, err := s.client.ListLocal("")
	if err != nil {
		return actions, err
	}
	remoteNames := map[string]bool{}
	for _, fi := range remote {
		remoteNames[fi.Name] = true
		known := s.idx.Files[fi.Name]
		if known != nil && known.VersionID == fi.VersionID {
			continue // up to date
		}
		// The listing already pinned the head version, so fetch exactly it
		// (GetVersionTo does not re-sync; a concurrent newer upload is
		// picked up by the next pass, as before).
		hash, info, err := s.downloadLocal(fi.Name, func(w io.Writer) (core.FileInfo, error) {
			return s.client.GetVersionTo(ctx, fi.Name, fi.VersionID, w)
		})
		if err != nil {
			return actions, fmt.Errorf("syncdir: download %s: %w", fi.Name, err)
		}
		st, err := os.Stat(filepath.Join(s.root, filepath.FromSlash(fi.Name)))
		if err != nil {
			return actions, err
		}
		s.idx.Files[fi.Name] = &entry{
			Hash: hash, Modified: st.ModTime(), Size: info.Size,
			VersionID: info.VersionID,
		}
		actions = append(actions, Action{Op: "download", Name: fi.Name})
	}
	// Remote deletions: indexed, present in neither the remote listing nor
	// freshly uploaded in step 1.
	for rel, known := range s.idx.Files {
		if remoteNames[rel] {
			continue
		}
		st, err := s.client.StatLocal(rel)
		if err == nil && st.Deleted && st.VersionID != known.VersionID {
			if err := os.Remove(filepath.Join(s.root, filepath.FromSlash(rel))); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return actions, err
			}
			delete(s.idx.Files, rel)
			actions = append(actions, Action{Op: "delete-local", Name: rel})
		}
	}

	// 4. Materialize and resolve conflicts.
	for _, cf := range s.client.ConflictsLocal() {
		winner, err := s.client.StatLocal(cf.Name)
		if err != nil {
			continue
		}
		for _, v := range cf.Versions {
			if v.VersionID == winner.VersionID || v.Deleted {
				continue
			}
			copyName := conflictCopyName(cf.Name, s.loserClient(v.VersionID), v.VersionID)
			versionID := v.VersionID
			var fetchErr error
			if _, _, err := s.downloadLocal(copyName, func(w io.Writer) (core.FileInfo, error) {
				info, ferr := s.client.GetVersionTo(ctx, cf.Name, versionID, w)
				fetchErr = ferr
				return info, ferr
			}); err != nil {
				if fetchErr != nil {
					continue // the losing version may be unreachable; skip its copy
				}
				return actions, err
			}
			actions = append(actions, Action{Op: "conflict-copy", Name: copyName})
		}
		if err := s.client.Resolve(ctx, cf.Name, winner.VersionID); err != nil {
			return actions, fmt.Errorf("syncdir: resolve %s: %w", cf.Name, err)
		}
	}

	if err := s.saveIndex(); err != nil {
		return actions, err
	}
	return actions, nil
}

// Watch runs Sync in a loop every interval until the context is cancelled,
// the "regularly checking last-modified times and file hash values" service
// mode of §5.4. onPass, if non-nil, receives each pass's actions (including
// empty passes); a pass error is reported and the loop continues — a flaky
// provider must not kill the sync service.
func (s *Syncer) Watch(ctx context.Context, interval time.Duration, onPass func([]Action, error)) error {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		actions, err := s.Sync(ctx)
		if onPass != nil {
			onPass(actions, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// loserClient returns the client id recorded in a version, for the
// conflict-copy name.
func (s *Syncer) loserClient(versionID string) string {
	m, err := s.client.Tree().Get(versionID)
	if err != nil {
		return "unknown"
	}
	return m.File.ClientID
}

func conflictCopyName(name, clientID, versionID string) string {
	ext := filepath.Ext(name)
	stem := strings.TrimSuffix(name, ext)
	v := versionID
	if len(v) > 8 {
		v = v[:8]
	}
	return fmt.Sprintf("%s%s%s-%s%s", stem, conflictInfix, clientID, v, ext)
}

// downloadLocal streams a remote version into place under the root via
// fetch, writing through a sibling temp file and renaming on success — an
// interrupted download never leaves a torn file, and memory stays bounded
// by the client's pipeline window. It returns the content hash of the
// written bytes (computed while streaming: the index records SHA-1 of the
// local file, which a v2 record's file ID is not) and the fetched version's
// info.
func (s *Syncer) downloadLocal(rel string, fetch func(io.Writer) (core.FileInfo, error)) (string, core.FileInfo, error) {
	dst := filepath.Join(s.root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return "", core.FileInfo{}, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".cyrus-partial-*")
	if err != nil {
		return "", core.FileInfo{}, err
	}
	tmpName := tmp.Name()
	h := metadata.NewHash()
	info, err := fetch(io.MultiWriter(tmp, h))
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", core.FileInfo{}, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", core.FileInfo{}, err
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return "", core.FileInfo{}, err
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return "", core.FileInfo{}, err
	}
	return metadata.HashSum(h), info, nil
}

// hashFile computes a local file's content hash without buffering it.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := metadata.NewHash()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return metadata.HashSum(h), nil
}
