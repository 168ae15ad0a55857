package core

import "repro/internal/reliability"

// Test-only accessors: state the package's tests inspect but no caller
// outside it needs.

// Estimator exposes the CSP failure estimator.
func (c *Client) Estimator() *reliability.Estimator { return c.est }

// MetaCacheLen returns the number of names carrying a fresh mark (0 when
// Config.MetaCacheEntries is 0).
func (c *Client) MetaCacheLen() int {
	if c.fresh == nil {
		return 0
	}
	c.fresh.mu.Lock()
	defer c.fresh.mu.Unlock()
	return c.fresh.ll.Len()
}
