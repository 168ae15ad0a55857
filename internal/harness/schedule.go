package harness

import (
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/metadata"
)

// Action is one kind of scripted fault.
type Action int

const (
	// Crash makes a provider unavailable (hard outage) until Restart.
	Crash Action = iota
	// Restart brings a crashed provider back with its durable state intact.
	Restart
	// FailNext makes the provider's next Count operations fail (transient
	// faults; Count defaults to 1).
	FailNext
	// BlindSync makes the next operation at every provider fail — a
	// metadata listing issued right after is guaranteed to see nothing,
	// which is how concurrent-divergence scenarios force stale trees and
	// therefore genuine version conflicts.
	BlindSync
	// SetCapacity caps the provider's durable bytes at Bytes (0 removes
	// the cap). Shrinking below current use does not delete data; it makes
	// subsequent uploads fail.
	SetCapacity
	// CorruptMeta flips one byte in Count random metadata-share objects on
	// the provider. The harness logs each corrupted object so the
	// invariant checks can tell injected rot from genuine violations.
	CorruptMeta
	// CorruptShares does the same to Count random chunk-share objects.
	CorruptShares
	// SlowLink scales every client's link to the provider (or to all
	// providers when CSP is empty) to Factor of the default bandwidth.
	// Virtual mode only.
	SlowLink
	// RestoreLink resets the affected links to the default configuration.
	RestoreLink
	// RemoveCSP has client #Client gracefully retire the provider from the
	// active set (publishing a new CSP status list).
	RemoveCSP
	// ReinstateCSP has client #Client re-add the provider.
	ReinstateCSP
	// Checkpoint quiesces the system mid-run and checks every invariant.
	Checkpoint
	// Demote fires an asynchronous scan-and-drain of client #Client's
	// lifecycle migrator: every idle object whose class carries a
	// DemoteAfter/DemoteTo rule is re-encoded into the colder class while
	// the workload keeps running. Requires class-configured Options.
	Demote
)

// Step is one scheduled fault: Act is applied just before op index At.
type Step struct {
	At     int
	Act    Action
	CSP    string
	Count  int
	Bytes  int64
	Factor float64
	Client int
}

// Schedule is a scripted fault sequence.
type Schedule []Step

// applySchedule applies every pending step scheduled at op index i and
// returns the new cursor into the sorted step list.
func (h *Harness) applySchedule(ctx context.Context, i, next int) int {
	for next < len(h.pending) && h.pending[next].At <= i {
		h.applyStep(ctx, h.pending[next])
		next++
	}
	return next
}

func (h *Harness) applyStep(ctx context.Context, s Step) {
	b := h.backends[s.CSP]
	switch s.Act {
	case Crash:
		b.SetAvailable(false)
	case Restart:
		b.SetAvailable(true)
	case FailNext:
		b.FailNext(max(1, s.Count))
	case BlindSync:
		for _, name := range h.names {
			h.backends[name].FailNext(1)
		}
	case SetCapacity:
		b.SetCapacity(s.Bytes)
	case CorruptMeta:
		h.corruptObjects(s.CSP, max(1, s.Count), isMetaShare)
	case CorruptShares:
		h.corruptObjects(s.CSP, max(1, s.Count), isChunkShare)
	case SlowLink:
		h.scaleLinks(s.CSP, s.Factor)
	case RestoreLink:
		h.scaleLinks(s.CSP, 1)
	case RemoveCSP:
		_ = h.clients[s.Client].RemoveCSP(ctx, s.CSP)
	case ReinstateCSP:
		_ = h.clients[s.Client].ReinstateCSP(ctx, s.CSP)
	case Checkpoint:
		h.checkpoint(ctx)
	case Demote:
		h.runLifecycle(ctx, s.Client)
	}
}

func isMetaShare(obj string) bool {
	_, _, _, ok := core.ParseMetaShareObjectName(obj)
	return ok
}

func isChunkShare(obj string) bool {
	return strings.HasPrefix(obj, core.SharePrefix) || core.IsCASShareObjectName(obj)
}

func isCSPList(obj string) bool {
	return strings.HasPrefix(obj, metadata.MetaPrefix+"csplist.")
}

// corruptObjects flips one byte in count objects matching the filter,
// chosen deterministically from the run's PRNG, and logs them so the
// checker can excuse the resulting byte mismatches.
func (h *Harness) corruptObjects(cspName string, count int, match func(string) bool) {
	b := h.backends[cspName]
	var candidates []string
	for _, name := range b.ObjectNames("") {
		if match(name) {
			candidates = append(candidates, name)
		}
	}
	if len(candidates) == 0 {
		return
	}
	for _, pi := range h.rng.Perm(len(candidates)) {
		if count == 0 {
			break
		}
		count--
		obj := candidates[pi]
		off := h.rng.Intn(1 << 16)
		b.MutateObject(obj, func(data []byte) []byte {
			if len(data) == 0 {
				return nil
			}
			data[off%len(data)] ^= 0x5a
			return data
		})
		h.corrupted[cspName+"/"+obj] = true
	}
}

// scaleLinks sets every client's link to the named provider (or all
// providers when cspName is empty) to factor × the default bandwidth.
func (h *Harness) scaleLinks(cspName string, factor float64) {
	if h.net == nil || factor <= 0 {
		return
	}
	for i := range h.clients {
		node := h.clients[i].ID()
		for _, name := range h.names {
			if cspName != "" && name != cspName {
				continue
			}
			cfg := defaultLink
			cfg.UpBps *= factor
			cfg.DownBps *= factor
			h.net.SetLink(node, name, cfg)
		}
	}
}
