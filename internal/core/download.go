package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Get downloads the current version of a file — get(s, f), Algorithm 3.
// The returned FileInfo reports whether the file is in a conflicted state
// (competing concurrent versions exist); the returned bytes are the
// deterministic winning head.
func (c *Client) Get(ctx context.Context, name string) (_ []byte, _ FileInfo, err error) {
	ctx, sp := c.obs.StartOp(ctx, "get")
	defer func() { sp.End(err) }()
	// Algorithm 3 line 2, short-circuited by a warm cache hit (zero
	// metadata round trips; see headForRead).
	head, conflicted, err := c.headForRead(ctx, name)
	if err != nil {
		return nil, FileInfo{}, err
	}
	info := fileInfo(head, conflicted)
	if head.File.Deleted {
		return nil, info, fmt.Errorf("%w: %q", ErrFileDeleted, name)
	}
	data, err := c.fetchVersion(ctx, head)
	if err != nil {
		return nil, info, err
	}
	return data, info, nil
}

// GetVersion downloads a specific version of a file — get(s, f, v).
func (c *Client) GetVersion(ctx context.Context, name, versionID string) (_ []byte, _ FileInfo, err error) {
	ctx, sp := c.obs.StartOp(ctx, "get")
	defer func() { sp.End(err) }()
	m, err := c.tree.Get(versionID)
	if err != nil {
		return nil, FileInfo{}, err
	}
	if m.File.Name != name {
		return nil, FileInfo{}, fmt.Errorf("cyrus: version %s belongs to %q, not %q", versionID, m.File.Name, name)
	}
	info := fileInfo(m, false)
	if m.File.Deleted {
		return nil, info, fmt.Errorf("%w: version %s", ErrFileDeleted, versionID)
	}
	data, err := c.fetchVersion(ctx, m)
	if err != nil {
		return nil, info, err
	}
	return data, info, nil
}

// fetchVersion is the batch wrapper over the streaming fetchTo: it
// collects the whole version into one buffer (accounted as resident for
// its duration) and returns it. All gather/verify/migrate logic lives in
// fetchTo (stream.go).
func (c *Client) fetchVersion(ctx context.Context, m *metadata.FileMeta) ([]byte, error) {
	if len(m.Chunks) == 0 {
		return []byte{}, nil
	}
	c.acctAdd(m.File.Size)
	defer c.acctSub(m.File.Size)
	buf := bytes.NewBuffer(make([]byte, 0, m.File.Size))
	if err := c.fetchTo(ctx, m, 0, m.File.Size, buf, true); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gatherChunk reads one chunk through the data path's verified k-of-n
// gather (gatherBlob): a lane per source the optimizer picked, every other
// stored, readable location as the shared fallback pool.
func (c *Client) gatherChunk(op *transfer.Op, file string, ref metadata.ChunkRef, locations map[int]string, sources []string) (_ []byte, err error) {
	chunkStart := c.rt.Now()
	ctx, chunkSpan := c.obs.Trace(op.Context(), "chunk.gather")
	defer func() { chunkSpan.End(err) }()
	b, err := c.chunkBlob(file, ref)
	if err != nil {
		return nil, err
	}
	primary := make([]metadata.ShareLoc, len(sources))
	var fallback []metadata.ShareLoc
	for idx, cspName := range locations {
		if k := slices.Index(sources, cspName); k >= 0 {
			primary[k] = metadata.ShareLoc{Index: idx, CSP: cspName}
		} else if c.readable(cspName) {
			fallback = append(fallback, metadata.ShareLoc{Index: idx, CSP: cspName})
		}
	}
	slices.SortFunc(fallback, func(x, y metadata.ShareLoc) int { return strings.Compare(x.CSP, y.CSP) })
	data, err := c.gatherBlob(op, ctx, b, primary, fallback)
	if err != nil {
		return nil, err
	}
	c.events.emit(Event{Type: EvChunkComplete, File: file, ChunkID: ref.ID, Duration: c.rt.Now().Sub(chunkStart)})
	return data, nil
}
