package erasure

import (
	"bytes"
	"slices"
	"testing"
)

// Mutations FuzzDecodeShares applies to an honest share set, one per
// three-byte op (kind, a, b) of its script.
const (
	mutTruncate  = iota // share a cut to b bytes, header included
	mutExtend           // b bytes appended to share a
	mutDuplicate        // a copy of share a appended, same index
	mutSetT             // header t of share a set to b (0 included)
	mutReindex          // share a moved to index b, field and header alike
	mutFlip             // byte b of share a flipped
	mutDrop             // share a removed
	mutFlood            // b more copies of share a under indices 0..b-1: past MaxN
	numMuts
)

// maxCorrectingShares bounds the share sets handed to DecodeCorrecting: its
// subset search is exponential in the number of distinct shares, which a
// caller bounds by the providers it fetched from.
const maxCorrectingShares = 12

// FuzzDecodeShares feeds the three decoders adversarial share sets: an honest
// encoding of data at a fuzzed (t, n), then a fuzzed script of truncations,
// oversized bodies, duplicate and out-of-range indices, mixed and zero t
// headers, flipped bytes, and floods of more shares than MaxN. No decoder may
// panic, and whatever a decoder accepts must re-encode to the shares it
// accepted: Decode and DecodeInto keep the last share of each index, and
// DecodeCorrecting every share it does not report corrupt.
func FuzzDecodeShares(f *testing.F) {
	f.Add([]byte("hello, shares"), uint16(1), []byte(nil))
	f.Add(bytes.Repeat([]byte{7}, 300), uint16(2|3<<3), []byte{mutTruncate, 1, 5, mutExtend, 0, 9})
	f.Add([]byte("duplicate"), uint16(2|2<<3), []byte{mutDuplicate, 0, 0, mutFlip, 3, 20})
	f.Add([]byte("mixed t"), uint16(1|4<<3), []byte{mutSetT, 2, 3, mutSetT, 0, 0})
	f.Add([]byte("flood"), uint16(0|1<<3), []byte{mutFlood, 0, 200, mutReindex, 1, 130})
	coder := NewCoder("fuzz-key")
	f.Fuzz(func(t *testing.T, data []byte, params uint16, script []byte) {
		if len(data) > 4<<10 {
			data = data[:4<<10]
		}
		tt := 1 + int(params&7)
		n := tt + int(params>>3&7)
		honest, err := coder.Encode(data, tt, n)
		if err != nil {
			t.Fatalf("Encode(t=%d, n=%d): %v", tt, n, err)
		}
		shares := make([]Share, len(honest))
		for i, s := range honest {
			shares[i] = Share{Index: s.Index, Data: bytes.Clone(s.Data)}
		}
		ReleaseShares(honest)
		for ; len(script) >= 3; script = script[3:] {
			shares = mutate(shares, script[0]%numMuts, int(script[1]), int(script[2]))
		}

		decodeN := max(n, MaxN*(int(params>>6)&1)) // the shares' own n, or MaxN
		if out, err := coder.Decode(shares, decodeN); err == nil {
			requireReencodes(t, coder, "Decode", out, lastOfEachIndex(shares), decodeN)
		}
		dst := make([]byte, 3, 64)
		if out, err := coder.DecodeInto(dst, shares, decodeN); err == nil {
			if !bytes.Equal(out[:3], dst[:3]) {
				t.Fatal("DecodeInto overwrote the bytes already in dst")
			}
			requireReencodes(t, coder, "DecodeInto", out[3:], lastOfEachIndex(shares), decodeN)
		}
		if len(lastOfEachIndex(shares)) > maxCorrectingShares {
			return
		}
		if out, corrupt, err := coder.DecodeCorrecting(shares, decodeN); err == nil {
			var kept []Share
			for _, s := range lastOfEachIndex(shares) {
				if !slices.Contains(corrupt, s.Index) {
					kept = append(kept, s)
				}
			}
			requireReencodes(t, coder, "DecodeCorrecting", out, kept, decodeN)
		}
	})
}

// mutate applies one script op to the share set.
func mutate(shares []Share, kind byte, a, b int) []Share {
	if len(shares) == 0 {
		return shares
	}
	i := a % len(shares)
	s := &shares[i]
	switch kind {
	case mutTruncate:
		s.Data = s.Data[:min(b, len(s.Data))]
	case mutExtend:
		s.Data = append(s.Data, make([]byte, b)...)
	case mutDuplicate:
		shares = append(shares, Share{Index: s.Index, Data: bytes.Clone(s.Data)})
	case mutSetT:
		if len(s.Data) > 1 {
			s.Data[1] = byte(b)
		}
	case mutReindex:
		s.Index = b
		if len(s.Data) > 2 {
			s.Data[2] = byte(b)
		}
	case mutFlip:
		if len(s.Data) > 0 {
			s.Data[b%len(s.Data)] ^= 0x5A
		}
	case mutDrop:
		shares = append(shares[:i], shares[i+1:]...)
	case mutFlood:
		for k := 0; k < b; k++ {
			c := bytes.Clone(shares[i].Data)
			if len(c) > 2 {
				c[2] = byte(k)
			}
			shares = append(shares, Share{Index: k, Data: c})
		}
	}
	return shares
}

// lastOfEachIndex returns, per share index, the last share carrying it: the
// ones Decode keeps.
func lastOfEachIndex(shares []Share) []Share {
	var out []Share
	for i, s := range shares {
		if !slices.ContainsFunc(shares[i+1:], func(o Share) bool { return o.Index == s.Index }) {
			out = append(out, s)
		}
	}
	return out
}

// requireReencodes fails unless encoding out at the accepted shares' t
// reproduces every accepted share byte for byte.
func requireReencodes(t *testing.T, coder *Coder, decoder string, out []byte, accepted []Share, n int) {
	t.Helper()
	if len(accepted) == 0 {
		t.Fatalf("%s accepted a decoding with no share behind it", decoder)
	}
	tt := int(accepted[0].Data[1])
	again, err := coder.Encode(out, tt, n)
	if err != nil {
		t.Fatalf("%s accepted t=%d n=%d, which does not encode: %v", decoder, tt, n, err)
	}
	defer ReleaseShares(again)
	for _, s := range accepted {
		if !bytes.Equal(again[s.Index].Data, s.Data) {
			t.Fatalf("%s accepted share %d, which its decoding does not re-encode to", decoder, s.Index)
		}
	}
}
