package chunker

import (
	"bytes"
	"fmt"
	"testing"
)

// refSplit is the reference the resumable cut rules are held to: the
// whole-buffer boundary loops as first written (one pass per chunk, hash
// started at the chunk's earliest legal boundary, nothing resumed), kept
// here so a change to rabin.cut, gear.cut or the Scanner that moves a
// boundary fails against code it did not touch.
func refSplit(cfg Config, data []byte) []Chunk {
	var out []Chunk
	var off int64
	for len(data) > 0 {
		n := refCut(cfg, data)
		out = append(out, Chunk{Offset: off, Data: data[:n]})
		data = data[n:]
		off += int64(n)
	}
	return out
}

func refCut(cfg Config, data []byte) int {
	if len(data) <= cfg.MinSize {
		return len(data)
	}
	maxLen := min(len(data), cfg.MaxSize)
	if cfg.Algorithm == Rabin {
		r := newRabin(cfg)
		var h uint64
		for i := cfg.MinSize - cfg.Window; i < cfg.MinSize; i++ {
			h = r.roll(h, 0, data[i])
		}
		for i := cfg.MinSize; i < maxLen; i++ {
			h = r.roll(h, data[i-cfg.Window], data[i])
			if h&uint64(cfg.AverageSize-1) == cfg.K&uint64(cfg.AverageSize-1) {
				return i + 1
			}
		}
		return maxLen
	}
	bits := log2int(cfg.AverageSize)
	small, large := spreadMask(bits+2), spreadMask(bits-2)
	var h uint64
	for i := cfg.MinSize; i < maxLen; i++ {
		h = (h << 1) + gearTable[data[i]]
		mask := small
		if i >= cfg.AverageSize {
			mask = large
		}
		if h&mask == 0 {
			return i + 1
		}
	}
	return maxLen
}

// TestSplitMatchesReference: Split (the Scanner in ScanBytes mode) cuts
// where the reference does, for both algorithms, at the property-suite and
// ring-growth configurations, on random, constant and periodic inputs.
func TestSplitMatchesReference(t *testing.T) {
	configs := map[string]Config{}
	for name, cfg := range algoConfigs() {
		configs["small-"+name] = cfg
	}
	for name, cfg := range growConfigs() {
		configs["grow-"+name] = cfg
	}
	for name, cfg := range configs {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string][]byte{
			"random":   randomBytes(51, 20*cfg.MaxSize+777),
			"zeros":    make([]byte, 3*cfg.MaxSize+1),
			"periodic": bytes.Repeat(randomBytes(52, 97), 5*cfg.MaxSize/97),
			"tail":     randomBytes(53, cfg.MinSize),
		}
		for iname, data := range inputs {
			t.Run(fmt.Sprintf("%s/%s", name, iname), func(t *testing.T) {
				requireSameChunks(t, refSplit(c.Config(), data), c.Split(data))
			})
		}
	}
}
