package transfer

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// semaphore enforces the global and per-CSP in-flight caps. Waiters block
// on a fresh Runtime group (never a channel), so waiting parks correctly
// under both real goroutines and netsim virtual time. Slots are handed
// off releaser-to-waiter in FIFO order per admissibility: release scans
// the queue and admits every waiter the freed capacity now allows.
//
// It is also the engine's only load sensor: the hedge and race gates read
// load, and the in-flight and queue-depth gauges it sets under mu carry
// the same values for the observer to record.
type semaphore struct {
	rt  vclock.Runtime
	obs *obs.Observer

	mu         sync.Mutex
	globalCap  int
	globalUsed int
	perCap     int
	used       map[string]int
	peak       map[string]int
	waiters    []semWaiter
}

type semWaiter struct {
	csp string
	g   vclock.Group
}

func newSemaphore(rt vclock.Runtime, o *obs.Observer, globalCap, perCap int) *semaphore {
	return &semaphore{
		rt:        rt,
		obs:       o,
		globalCap: globalCap,
		perCap:    perCap,
		used:      make(map[string]int),
		peak:      make(map[string]int),
	}
}

// admitLocked reserves a slot if both caps allow. Caller holds mu.
func (s *semaphore) admitLocked(cspName string) bool {
	if s.globalUsed >= s.globalCap || s.used[cspName] >= s.perCap {
		return false
	}
	s.globalUsed++
	s.used[cspName]++
	if s.used[cspName] > s.peak[cspName] {
		s.peak[cspName] = s.used[cspName]
		s.obs.TransferInFlightPeak(cspName, s.peak[cspName])
	}
	s.obs.TransferInFlight(cspName, s.used[cspName])
	return true
}

// acquire blocks until a slot for cspName is available.
func (s *semaphore) acquire(cspName string) {
	s.mu.Lock()
	if s.admitLocked(cspName) {
		s.mu.Unlock()
		return
	}
	g := s.rt.NewGroup()
	g.Add(1)
	s.waiters = append(s.waiters, semWaiter{csp: cspName, g: g})
	s.obs.TransferQueueDepth(len(s.waiters))
	s.mu.Unlock()
	g.Wait()
}

// release frees a slot and wakes every waiter the new capacity admits.
func (s *semaphore) release(cspName string) {
	s.mu.Lock()
	s.globalUsed--
	s.used[cspName]--
	s.obs.TransferInFlight(cspName, s.used[cspName])
	for i := 0; i < len(s.waiters); {
		w := s.waiters[i]
		if !s.admitLocked(w.csp) {
			i++
			continue
		}
		s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
		w.g.Done()
	}
	s.obs.TransferQueueDepth(len(s.waiters))
	s.mu.Unlock()
}

// load returns one provider's attempts in flight and the attempts parked
// waiting for a slot on any provider (the admission queue is global).
func (s *semaphore) load(cspName string) (inFlight, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used[cspName], len(s.waiters)
}

// peakInFlight returns the high-water in-flight count for one provider.
func (s *semaphore) peakInFlight(cspName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak[cspName]
}
