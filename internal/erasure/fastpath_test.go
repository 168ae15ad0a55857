package erasure

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
)

// Golden shares captured from the encoder as it existed before the compute
// fast path landed (key "compat-key-v1", the payload below). The format and
// the dispersal derivation must never drift: new decoders must round-trip
// old shares, and the new encoder must reproduce them byte for byte.
var goldenKey = "compat-key-v1"

var goldenData = []byte("CYRUS pre-PR4 golden chunk payload: 0123456789abcdefghijklmnopqrstuvwxyz")

var goldenShares = map[[2]int][]string{
	{2, 4}: {
		"0102000000000000000048c5816831b09d2f73293f1fffc7544da7fabfe00919dd887732f3e6541b84cf2e7e3636ce",
		"0102010000000000000048b94c6b8332aed23fb4135678f152fade32a6486fce3adeef1bd4700cf25da78869f04177",
		"0102020000000000000048bc3c8419fe17f46c3eec299864914cf76e23b800d476e749c8dd0cef649d12a23676b21b",
		"0102030000000000000048df854e09d2e17133c3cb35f7d1181fd7947b3af1ff612af7ac3a31a1f03560a3ed0f11cb",
	},
	{3, 6}: {
		"0103000000000000000048079d242570afc9b838f08de18a87a661618ceb2fa85a88e6",
		"010301000000000000004862cb7d753557dae873886aca05d94db6fddd0ff7da1ad6fb",
		"0103020000000000000048635a4580030087e86a01f5f18853eda1097088c786de2757",
		"01030300000000000000483e20d125da982ca4d9953bbd62054f4d5e4f4342265a1f88",
		"0103040000000000000048ec00f0c31d6f874a902e4dc5638ab84f59c7b347dcdb9e4c",
		"0103050000000000000048adc544456e66be24f0ca585570fee6aa538cd29d7ed14cc9",
	},
}

// TestGoldenSharesStillDecode proves shares produced before this PR still
// round-trip: same format version, same dispersal matrices, same bytes.
func TestGoldenSharesStillDecode(t *testing.T) {
	coder := NewCoder(goldenKey)
	for tn, hexes := range goldenShares {
		tt, n := tn[0], tn[1]
		shares := make([]Share, len(hexes))
		for i, h := range hexes {
			data, err := hex.DecodeString(h)
			if err != nil {
				t.Fatal(err)
			}
			shares[i] = Share{Index: i, Data: data}
		}
		// Decode from the first t shares, from the last t shares, and from
		// the full set (exercising surplus verification).
		for _, set := range [][]Share{shares[:tt], shares[len(shares)-tt:], shares} {
			got, err := coder.Decode(set, n)
			if err != nil {
				t.Fatalf("(t=%d,n=%d) decode %d golden shares: %v", tt, n, len(set), err)
			}
			if !bytes.Equal(got, goldenData) {
				t.Fatalf("(t=%d,n=%d) golden decode mismatch", tt, n)
			}
		}
	}
}

// TestEncodeReproducesGoldenShares proves the rewritten encoder is
// bit-identical to the pre-PR one (encoding is deterministic in the key).
func TestEncodeReproducesGoldenShares(t *testing.T) {
	coder := NewCoder(goldenKey)
	for tn, hexes := range goldenShares {
		tt, n := tn[0], tn[1]
		shares, err := coder.Encode(goldenData, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shares) != len(hexes) {
			t.Fatalf("(t=%d,n=%d) got %d shares, want %d", tt, n, len(shares), len(hexes))
		}
		for i, h := range hexes {
			if got := hex.EncodeToString(shares[i].Data); got != h {
				t.Fatalf("(t=%d,n=%d) share %d drifted:\n got %s\nwant %s", tt, n, i, got, h)
			}
		}
		ReleaseShares(shares)
	}
}

// TestEncodeToZeroAlloc is the allocation-regression guard for the pooled
// encode path: with a warm pool and a reused destination slice, EncodeTo +
// ReleaseShares allocates nothing.
func TestEncodeToZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	coder := NewCoder("alloc-key")
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(data)
	const tt, n = 3, 6

	dst := make([]Share, 0, n)
	// Warm: dispersal cache, scratch pool, and n pooled share buffers.
	for i := 0; i < 3; i++ {
		out, err := coder.EncodeTo(dst[:0], data, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
		ReleaseShares(dst)
	}
	runtime.GC() // empty pools refill once below; avoid mid-measure GC noise
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		dst, err = coder.EncodeTo(dst[:0], data, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseShares(dst)
	})
	// The first post-GC run may refill the emptied pools; the steady state
	// over 100 runs must still round to zero.
	if allocs != 0 {
		t.Fatalf("steady-state EncodeTo allocates %.2f times per call, want 0", allocs)
	}
}

// TestDecodeIntoZeroAlloc is the decode-side allocation guard: warm inverse
// cache + an output buffer with room for the t whole stripes = no
// allocations, including the surplus verification path; Decode, which owns
// no buffer, allocates its result and nothing else.
func TestDecodeIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	coder := NewCoder("alloc-key")
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(2)).Read(data)
	const tt, n = 3, 6

	enc, err := coder.Encode(data, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	// Caller-constructed shares, as a download path would build them.
	shares := make([]Share, len(enc))
	for i, s := range enc {
		shares[i] = Share{Index: s.Index, Data: append([]byte(nil), s.Data...)}
	}
	ReleaseShares(enc)

	for _, set := range map[string][]Share{"exact": shares[:tt], "surplus": shares} {
		set := set
		out := make([]byte, 0, len(data)+tt-1)
		for i := 0; i < 3; i++ { // warm inverse cache and scratch
			if out, err = coder.DecodeInto(out[:0], set, n); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		allocs := testing.AllocsPerRun(100, func() {
			out, err = coder.DecodeInto(out[:0], set, n)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state DecodeInto (%d shares) allocates %.2f times per call, want 0", len(set), allocs)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("DecodeInto round-trip mismatch")
		}

		allocs = testing.AllocsPerRun(100, func() {
			out, err = coder.Decode(set, n)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("steady-state Decode (%d shares) allocates %.2f times per call, want 1: the result", len(set), allocs)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("Decode round-trip mismatch")
		}
	}
}

// TestDecodeIntoAppends pins what DecodeInto does to the buffer it is
// handed: bytes already in dst survive in front of the chunk, whether the
// chunk is reconstructed in dst's spare capacity or dst has to grow — which
// it does when the capacity holds the chunk but not the padding of its last
// stripe (dataLen % t != 0).
func TestDecodeIntoAppends(t *testing.T) {
	coder := NewCoder("append-key")
	const tt, n = 3, 5
	data := make([]byte, 1000) // 1000 % 3 == 1: the stripes take 1002 bytes
	rand.New(rand.NewSource(4)).Read(data)
	shares, err := coder.Encode(data, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseShares(shares)
	prefix := []byte("bytes already in dst")

	for _, tc := range []struct {
		name   string
		prefix []byte
		spare  int
		grows  bool
	}{
		{"room for the stripes", nil, len(data) + tt - 1, false},
		{"room for the chunk only", nil, len(data), true},
		{"prefix, room for the stripes", prefix, len(data) + tt - 1, false},
		{"prefix, room for the chunk only", prefix, len(data), true},
		{"prefix, no room", prefix, 0, true},
	} {
		dst := make([]byte, len(tc.prefix), len(tc.prefix)+tc.spare)
		copy(dst, tc.prefix)
		out, err := coder.DecodeInto(dst, shares[1:1+tt], n)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(out[:len(tc.prefix)], tc.prefix) || !bytes.Equal(out[len(tc.prefix):], data) {
			t.Fatalf("%s: got %d bytes, want the %d-byte prefix followed by the %d-byte chunk", tc.name, len(out), len(tc.prefix), len(data))
		}
		if grew := &out[:1][0] != &dst[:1][0]; grew != tc.grows {
			t.Fatalf("%s: dst reallocated = %v, want %v", tc.name, grew, tc.grows)
		}
	}
}

// TestReleaseContract pins Share.Release semantics: idempotent, safe on
// caller-constructed shares, and recycled buffers do not corrupt shares
// still alive.
func TestReleaseContract(t *testing.T) {
	coder := NewCoder("release-key")
	data := []byte("some chunk bytes for the release contract test")
	shares, err := coder.Encode(data, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Keep copies, release half, encode again (reusing the freed buffers),
	// and check the retained shares still decode.
	kept := []Share{
		{Index: shares[0].Index, Data: append([]byte(nil), shares[0].Data...)},
		{Index: shares[1].Index, Data: append([]byte(nil), shares[1].Data...)},
	}
	shares[2].Release()
	shares[2].Release() // idempotent
	shares[3].Release()

	other, err := coder.Encode([]byte("different payload to scribble over pooled buffers"), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseShares(other)

	got, err := coder.Decode(kept, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retained share copies no longer decode after pool reuse")
	}

	ext := Share{Index: 0, Data: []byte{1, 2, 3}}
	ext.Release() // caller-constructed: no-op, must not panic
	if ext.Data == nil {
		t.Fatal("Release of caller-constructed share cleared Data")
	}
}

// TestPooledRoundTripSizes sweeps odd sizes through the pooled encode/decode
// pair, catching stripe-boundary bugs the fused kernels could introduce.
func TestPooledRoundTripSizes(t *testing.T) {
	coder := NewCoder("sweep-key")
	rng := rand.New(rand.NewSource(3))
	params := [][2]int{{1, 1}, {1, 3}, {2, 4}, {3, 6}, {4, 8}, {5, 7}}
	sizes := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 100, 255, 4096, 10000}
	var dst []Share
	var out []byte
	for _, p := range params {
		tt, n := p[0], p[1]
		for _, size := range sizes {
			data := make([]byte, size)
			rng.Read(data)
			var err error
			dst, err = coder.EncodeTo(dst[:0], data, tt, n)
			if err != nil {
				t.Fatalf("(t=%d,n=%d,size=%d) encode: %v", tt, n, size, err)
			}
			out, err = coder.DecodeInto(out[:0], dst, n)
			if err != nil {
				t.Fatalf("(t=%d,n=%d,size=%d) decode: %v", tt, n, size, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("(t=%d,n=%d,size=%d) round-trip mismatch", tt, n, size)
			}
			ReleaseShares(dst)
		}
	}
}
