package selector

// Restricted filters each chunk's candidate sources down to a per-chunk
// allowed set — the storage-class CSP subset the chunk was written under —
// before delegating to an inner selector (Optimized by default). The
// restriction is a preference, not a straitjacket: when fewer than T
// allowed sources still hold shares (class providers degraded, shares
// migrated out of the subset), that chunk keeps its full source list, so a
// class constraint can never turn a readable chunk into ErrInfeasible.
type Restricted struct {
	// Allowed maps chunk ID -> the CSPs its class permits. Chunks absent
	// from the map (or mapped to an empty set) are unrestricted.
	Allowed map[string]map[string]bool
	// Inner performs the actual selection over the filtered instance.
	// Default Optimized.
	Inner Selector
}

// Name implements Selector.
func (s Restricted) Name() string {
	inner := s.Inner
	if inner == nil {
		inner = Optimized{}
	}
	return "restricted+" + inner.Name()
}

// Select implements Selector.
func (s Restricted) Select(in Instance) (*Assignment, error) {
	inner := s.Inner
	if inner == nil {
		inner = Optimized{}
	}
	if len(s.Allowed) == 0 {
		return inner.Select(in)
	}
	filtered := in
	filtered.Chunks = make([]Chunk, len(in.Chunks))
	for i, ch := range in.Chunks {
		filtered.Chunks[i] = ch
		allow := s.Allowed[ch.ID]
		if len(allow) == 0 {
			continue
		}
		kept := make([]string, 0, len(ch.StoredOn))
		for _, c := range ch.StoredOn {
			if allow[c] {
				kept = append(kept, c)
			}
		}
		if len(kept) >= in.T {
			filtered.Chunks[i].StoredOn = kept
		}
	}
	return inner.Select(filtered)
}
