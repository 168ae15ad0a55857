package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metadata"
)

// fileInfo converts a metadata record into the user-facing form.
func fileInfo(m *metadata.FileMeta, conflicted bool) FileInfo {
	return FileInfo{
		Name:       m.File.Name,
		Size:       m.File.Size,
		Modified:   m.File.Modified,
		VersionID:  m.VersionID(),
		Deleted:    m.File.Deleted,
		Conflicted: conflicted,
	}
}

// newDeletionMarker builds the metadata node that supersedes a version with
// a tombstone. Deletion keeps the metadata (and the chunk shares) in place;
// only the marker is added (paper §5.4: "marks its metadata as deleted, but
// does not actually delete the metadata file").
func newDeletionMarker(prev *metadata.FileMeta, clientID string, now time.Time) *metadata.FileMeta {
	return &metadata.FileMeta{File: metadata.FileMap{
		ID:       prev.File.ID,
		PrevID:   prev.VersionID(),
		ClientID: clientID,
		Name:     prev.File.Name,
		Deleted:  true,
		Modified: now,
	}, IDForm: prev.IDForm}
}

// Delete marks a file deleted — delete(s, f). Chunk shares are left alone:
// other files may reference the same chunks, and previous versions stay
// recoverable.
func (c *Client) Delete(ctx context.Context, name string) error {
	return c.deleteHead(ctx, name, syncAlways)
}

// DeleteLocal is Delete without the preceding best-effort sync, for callers
// that just synced and are resolving a whole directory's worth of files
// (syncdir's batch pass). The deletion marker still uploads normally.
func (c *Client) DeleteLocal(ctx context.Context, name string) error {
	return c.deleteHead(ctx, name, noSync)
}

func (c *Client) deleteHead(ctx context.Context, name string, gate syncGate) (err error) {
	ctx, sp := c.obs.StartOp(ctx, "delete")
	defer func() { sp.End(err) }()
	head, _, err := c.resolve(ctx, name, "", gate)
	if err != nil {
		return err
	}
	if head.File.Deleted {
		return nil // already deleted
	}
	return c.supersede(ctx, head)
}

// List returns the files under a directory prefix — [(f, r), ...] =
// list(s, d). Deleted files are omitted; conflicted files are flagged.
func (c *Client) List(ctx context.Context, dir string) ([]FileInfo, error) {
	c.syncBestEffort(ctx, "")
	return c.ListLocal(dir)
}

// ListLocal is List against the local replica only — no sync round trips.
// Callers that just ran Sync (directory-scale resolution) use it to walk
// the namespace without re-listing every provider per file.
func (c *Client) ListLocal(dir string) ([]FileInfo, error) {
	if dir != "" && !strings.HasSuffix(dir, "/") {
		dir += "/"
	}
	var out []FileInfo
	for _, name := range c.tree.Names() {
		if !strings.HasPrefix(name, dir) {
			continue
		}
		head, conflicted, err := c.tree.Head(name)
		if err != nil || head.File.Deleted {
			continue
		}
		out = append(out, fileInfo(head, conflicted))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stat returns the head version info of a file without downloading data.
// Deleted files are reported with Deleted set rather than an error, so
// callers can distinguish "never existed" from "deleted". While the name
// carries a fresh mark (Config.MetaCacheEntries) Stat costs no round trip.
func (c *Client) Stat(ctx context.Context, name string) (FileInfo, error) {
	return c.stat(ctx, name, syncUnlessFresh)
}

// StatLocal is Stat against the local replica only — no sync round trips.
func (c *Client) StatLocal(name string) (FileInfo, error) {
	return c.stat(context.TODO(), name, noSync)
}

func (c *Client) stat(ctx context.Context, name string, gate syncGate) (FileInfo, error) {
	head, conflicted, err := c.resolve(ctx, name, "", gate)
	if err != nil {
		return FileInfo{}, err
	}
	return fileInfo(head, conflicted), nil
}

// ConflictsLocal is Conflicts against the local replica only — no sync
// round trips (sync.go holds the syncing variant).
func (c *Client) ConflictsLocal() []ConflictInfo {
	return c.conflictsLocal()
}

// History returns the version chain of a file, newest first (paper §5.4:
// "clients can recover previous versions of files by traversing the
// metadata tree up from the current file version").
func (c *Client) History(ctx context.Context, name string) ([]FileInfo, error) {
	if _, _, err := c.resolve(ctx, name, "", syncUnlessFresh); err != nil {
		return nil, err
	}
	chain, err := c.tree.History(name)
	if err != nil {
		return nil, err
	}
	out := make([]FileInfo, 0, len(chain))
	for _, m := range chain {
		out = append(out, fileInfo(m, false))
	}
	return out, nil
}

// Restore makes an old version (or a deleted file's last live version)
// current again by appending a new version node that references the old
// content. No chunk data moves: the restored version reuses the stored
// shares.
func (c *Client) Restore(ctx context.Context, name, versionID string) error {
	// The head sync has listed every version of the name, so the named one
	// needs no round trip of its own.
	head, _, err := c.resolve(ctx, name, "", syncAlways)
	if err != nil {
		return err
	}
	old, _, err := c.resolve(ctx, name, versionID, noSync)
	if err != nil {
		return err
	}
	if old.File.Deleted {
		return fmt.Errorf("%w: cannot restore a deletion marker", ErrFileDeleted)
	}
	if head.VersionID() == versionID {
		return nil // already current
	}
	restored := &metadata.FileMeta{
		File: metadata.FileMap{
			ID:       old.File.ID,
			PrevID:   head.VersionID(),
			ClientID: c.cfg.ClientID,
			Name:     name,
			Modified: c.rt.Now(),
			Size:     old.File.Size,
		},
		Chunks: append([]metadata.ChunkRef(nil), old.Chunks...),
		Shares: append([]metadata.ShareLoc(nil), old.Shares...),
		IDForm: old.IDForm,
	}
	op := c.engine.Begin(ctx)
	defer op.Finish()
	return c.publish(op, restored)
}
