package core

import (
	"bytes"
	"context"
)

// Test-only accessors: state the package's tests inspect but no caller
// outside it needs.

// metaCacheLen returns the number of names carrying a fresh mark (0 when
// Config.MetaCacheEntries is 0).
func (c *Client) metaCacheLen() int {
	if c.fresh == nil {
		return 0
	}
	c.fresh.mu.Lock()
	defer c.fresh.mu.Unlock()
	return c.fresh.ll.Len()
}

// resetBufferPeak rearms the high-water mark of the accounted data-plane
// bytes, for per-phase measurements.
func (c *Client) resetBufferPeak() {
	c.bufPeak.Store(c.bufCur.Load())
}

// getVersion reads one version of a file into memory through GetVersionTo.
func getVersion(ctx context.Context, c *Client, name, versionID string) ([]byte, FileInfo, error) {
	var buf bytes.Buffer
	info, err := c.GetVersionTo(ctx, name, versionID, &buf)
	return buf.Bytes(), info, err
}
