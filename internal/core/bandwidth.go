package core

import (
	"sync"
	"time"
)

// linkModel is the client's per-CSP link model — the paper's "each client
// maintains local bandwidth statistics to all CSPs" (footnote 7), extended
// with what this client's own hedge gate reads: a request-latency EWMA and
// the success count that arms it. Every estimate is fed by recordResult
// alone, so two clients never share one, whatever observer they report to.
// Down state and the failure prior live in reliability.Estimator.
type linkModel struct {
	mu    sync.Mutex
	links map[string]*link
	seeds map[string]float64
}

// link is one provider's estimates. Zero rates and latency mean nothing
// has been observed yet.
type link struct {
	downBps float64 // what the selector consumes
	upBps   float64
	latency float64 // seconds, EWMA over successful contacts
	samples int64   // successful contacts, the hedge gate's arming count
}

// defaultSeedBps is used for CSPs with no configured seed and no
// observations yet: 1 MB/s, a deliberately modest guess.
const defaultSeedBps = 1 << 20

// ewmaWeight is the weight of a new observation.
const ewmaWeight = 0.3

func newLinkModel(seeds map[string]float64) *linkModel {
	m := &linkModel{links: make(map[string]*link), seeds: make(map[string]float64)}
	for k, v := range seeds {
		if v > 0 {
			m.seeds[k] = v
		}
	}
	return m
}

// fold folds one new sample into an EWMA whose zero value means empty.
func fold(cur, sample float64) float64 {
	if cur == 0 {
		return sample
	}
	return (1-ewmaWeight)*cur + ewmaWeight*sample
}

// estimateLocked returns the downlink estimate: observed, else seeded,
// else defaultSeedBps.
func (m *linkModel) estimateLocked(name string) float64 {
	if l, ok := m.links[name]; ok && l.downBps > 0 {
		return l.downBps
	}
	if v, ok := m.seeds[name]; ok {
		return v
	}
	return defaultSeedBps
}

// estimate returns the current downlink bytes/second estimate for a CSP.
func (m *linkModel) estimate(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.estimateLocked(name)
}

// latency returns a CSP's request-latency EWMA (0 when none was observed)
// and the number of successful contacts behind it.
func (m *linkModel) latency(name string) (time.Duration, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.links[name]
	if !ok {
		return 0, 0
	}
	return time.Duration(l.latency * float64(time.Second)), l.samples
}

// success folds one successful contact in: it counts, its latency joins
// the EWMA, and a download's or upload's rate joins that direction's
// estimate. Contacts that took no measurable time (instant simulated
// stores) are counted but change no estimate. It returns the link's state
// after the update, with the downlink as estimate reports it.
func (m *linkModel) success(name, op string, bytes int64, elapsed time.Duration) link {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.links[name]
	if !ok {
		l = &link{}
		m.links[name] = l
	}
	l.samples++
	if elapsed > 0 {
		l.latency = fold(l.latency, elapsed.Seconds())
		if bytes > 0 {
			rate := float64(bytes) / elapsed.Seconds()
			switch op {
			case opDownload:
				l.downBps = fold(l.downBps, rate)
			case opUpload:
				l.upBps = fold(l.upBps, rate)
			}
		}
	}
	out := *l
	out.downBps = m.estimateLocked(name)
	return out
}
