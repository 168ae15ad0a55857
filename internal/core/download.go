package core

import (
	"context"
	"slices"
	"strings"

	"repro/internal/metadata"
	"repro/internal/transfer"
)

// Get downloads the current version of a file — get(s, f), Algorithm 3.
// The returned FileInfo reports whether the file is in a conflicted state
// (competing concurrent versions exist); the returned bytes are the
// deterministic winning head. It is the batch form of GetTo: the whole file
// is collected into one buffer, accounted as resident for the fetch.
func (c *Client) Get(ctx context.Context, name string) ([]byte, FileInfo, error) {
	return c.read(ctx, "get", name, "", 0, 0, nil, true)
}

// GetVersion downloads a specific version of a file — get(s, f, v).
func (c *Client) GetVersion(ctx context.Context, name, versionID string) ([]byte, FileInfo, error) {
	return c.read(ctx, "get", name, versionID, 0, 0, nil, true)
}

// gatherChunk reads one chunk through the data path's verified k-of-n
// gather (gatherBlob): a lane per source the optimizer picked, every other
// stored, readable location as the shared fallback pool. buf, when not nil,
// is the pooled buffer behind data: the caller releases it
// (erasure.PutDataBuf) after its last read of data.
func (c *Client) gatherChunk(op *transfer.Op, file string, ref metadata.ChunkRef, locations map[int]string, sources []string) (data []byte, buf *[]byte, err error) {
	chunkStart := c.rt.Now()
	ctx, chunkSpan := c.obs.Trace(op.Context(), "chunk.gather")
	defer func() { chunkSpan.End(err) }()
	b, err := c.chunkBlob(file, ref)
	if err != nil {
		return nil, nil, err
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
	data, buf, err = c.gatherBlob(op, ctx, b, primary, fallback)
	if err != nil {
		return nil, nil, err
	}
	c.events.emit(Event{Type: EvChunkComplete, File: file, ChunkID: ref.ID, Duration: c.rt.Now().Sub(chunkStart)})
	return data, buf, nil
}
