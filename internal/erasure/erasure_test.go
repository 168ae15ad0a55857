package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEncode(t *testing.T, c *Coder, data []byte, tt, n int) []Share {
	t.Helper()
	shares, err := c.Encode(data, tt, n)
	if err != nil {
		t.Fatalf("Encode(t=%d, n=%d): %v", tt, n, err)
	}
	return shares
}

func TestRoundTripAllSubsets(t *testing.T) {
	t.Parallel()
	c := NewCoder("user-key")
	data := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	const tt, n = 3, 5
	shares := mustEncode(t, c, data, tt, n)

	// Every 3-subset of the 5 shares must decode to the original.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for d := b + 1; d < n; d++ {
				got, err := c.Decode([]Share{shares[a], shares[b], shares[d]}, n)
				if err != nil {
					t.Fatalf("Decode{%d,%d,%d}: %v", a, b, d, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("Decode{%d,%d,%d} mismatch", a, b, d)
				}
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	t.Parallel()
	c := NewCoder("property-key")
	rng := rand.New(rand.NewSource(1))
	f := func(raw []byte) bool {
		tt := 1 + rng.Intn(6)
		n := tt + rng.Intn(5)
		shares, err := c.Encode(raw, tt, n)
		if err != nil {
			return false
		}
		// Decode from a random subset of size >= tt.
		k := tt + rng.Intn(n-tt+1)
		perm := rng.Perm(n)[:k]
		subset := make([]Share, 0, k)
		for _, i := range perm {
			subset = append(subset, shares[i])
		}
		got, err := c.Decode(subset, n)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	for _, size := range []int{0, 1, 2, 3, 7} {
		data := bytes.Repeat([]byte{0xAB}, size)
		shares := mustEncode(t, c, data, 3, 4)
		got, err := c.Decode(shares[:3], 4)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip mismatch: got %d bytes", size, len(got))
		}
	}
}

func TestNonSystematic(t *testing.T) {
	t.Parallel()
	// No share payload may contain a long run of the original plaintext.
	c := NewCoder("k")
	data := bytes.Repeat([]byte("SECRETDATA"), 100)
	shares := mustEncode(t, c, data, 2, 3)
	for _, s := range shares {
		if bytes.Contains(s.Data, []byte("SECRETDATA")) {
			t.Fatalf("share %d leaks plaintext", s.Index)
		}
	}
}

func TestFewerThanTSharesInsufficient(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := []byte("top secret payload")
	shares := mustEncode(t, c, data, 3, 5)
	_, err := c.Decode(shares[:2], 5)
	if !errors.Is(err, ErrNotEnough) {
		t.Fatalf("Decode with t-1 shares: err = %v, want ErrNotEnough", err)
	}
	// Duplicate shares do not count as distinct.
	_, err = c.Decode([]Share{shares[0], shares[0], shares[0]}, 5)
	if !errors.Is(err, ErrNotEnough) {
		t.Fatalf("Decode with duplicated share: err = %v, want ErrNotEnough", err)
	}
}

func TestWrongKeyCannotDecode(t *testing.T) {
	t.Parallel()
	enc := NewCoder("alice")
	dec := NewCoder("mallory")
	data := bytes.Repeat([]byte("confidential "), 50)
	shares := mustEncode(t, enc, data, 2, 4)
	got, err := dec.Decode(shares[:2], 4)
	if err == nil && bytes.Equal(got, data) {
		t.Fatal("decoding with the wrong key recovered the plaintext")
	}
}

func TestSurplusShareDetectsCorruption(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 40)
	shares := mustEncode(t, c, data, 2, 4)
	shares[1].Data[shareHeaderLen+3] ^= 0xFF
	_, err := c.Decode(shares, 4) // 4 shares: 2 used, 2 verify
	if !errors.Is(err, ErrCorruptShare) {
		t.Fatalf("corrupted decode err = %v, want ErrCorruptShare", err)
	}
	// With exactly t clean shares the data still decodes.
	got, err := c.Decode([]Share{shares[0], shares[2]}, 4)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean subset failed: %v", err)
	}
}

func TestHeaderValidation(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := []byte("payload")
	shares := mustEncode(t, c, data, 2, 3)

	short := Share{Index: 0, Data: shares[0].Data[:5]}
	if _, err := c.Decode([]Share{short, shares[1]}, 3); !errors.Is(err, ErrBadShareHeader) {
		t.Fatalf("short share err = %v, want ErrBadShareHeader", err)
	}

	badVersion := Share{Index: 0, Data: append([]byte(nil), shares[0].Data...)}
	badVersion.Data[0] = 9
	if _, err := c.Decode([]Share{badVersion, shares[1]}, 3); !errors.Is(err, ErrBadShareHeader) {
		t.Fatalf("bad version err = %v, want ErrBadShareHeader", err)
	}

	zeroT := Share{Index: 0, Data: append([]byte(nil), shares[0].Data...)}
	zeroT.Data[1] = 0 // used to divide by it
	if _, err := c.Decode([]Share{zeroT, shares[1]}, 3); !errors.Is(err, ErrBadShareHeader) {
		t.Fatalf("t=0 header err = %v, want ErrBadShareHeader", err)
	}

	mismatched := Share{Index: 2, Data: append([]byte(nil), shares[0].Data...)}
	if _, err := c.Decode([]Share{mismatched, shares[1]}, 3); !errors.Is(err, ErrBadShareHeader) {
		t.Fatalf("index mismatch err = %v, want ErrBadShareHeader", err)
	}

	outOfRange := Share{Index: 7, Data: append([]byte(nil), shares[0].Data...)}
	outOfRange.Data[2] = 7
	if _, err := c.Decode([]Share{outOfRange, shares[1]}, 3); !errors.Is(err, ErrBadShareHeader) {
		t.Fatalf("out-of-range index err = %v, want ErrBadShareHeader", err)
	}
}

func TestMixedParameterSharesRejected(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	a := mustEncode(t, c, []byte("aaaa"), 2, 3)
	b := mustEncode(t, c, []byte("bbbbbbbb"), 3, 4)
	if _, err := c.Decode([]Share{a[0], b[1]}, 4); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("mixed shares err = %v, want ErrShapeMismatch", err)
	}
}

func TestBadParams(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	cases := []struct{ t, n int }{
		{0, 3},   // t below MinT
		{4, 3},   // n < t
		{2, 300}, // n above MaxN
	}
	for _, tc := range cases {
		if _, err := c.Encode([]byte("x"), tc.t, tc.n); !errors.Is(err, ErrBadParams) {
			t.Errorf("Encode(t=%d, n=%d) err = %v, want ErrBadParams", tc.t, tc.n, err)
		}
	}
}

func TestShareSizeIndependentOfN(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := make([]byte, 1000)
	for n := 3; n <= 8; n++ {
		shares := mustEncode(t, c, data, 3, n)
		want := ShareSize(1000, 3)
		for _, s := range shares {
			if s.Size() != want {
				t.Fatalf("n=%d share size %d, want %d", n, s.Size(), want)
			}
		}
	}
}

func TestShareSizeFormula(t *testing.T) {
	t.Parallel()
	cases := []struct {
		dataLen int64
		t       int
		want    int64
	}{
		{0, 2, shareHeaderLen},
		{1, 2, 1 + shareHeaderLen},
		{10, 2, 5 + shareHeaderLen},
		{11, 2, 6 + shareHeaderLen},
		{100 << 20, 4, (100<<20)/4 + shareHeaderLen},
	}
	for _, tc := range cases {
		if got := ShareSize(tc.dataLen, tc.t); got != tc.want {
			t.Errorf("ShareSize(%d, %d) = %d, want %d", tc.dataLen, tc.t, got, tc.want)
		}
	}
}

func TestDeterministicEncoding(t *testing.T) {
	t.Parallel()
	data := []byte("determinism matters for share-name stability")
	a := mustEncode(t, NewCoder("same-key"), data, 2, 4)
	b := mustEncode(t, NewCoder("same-key"), data, 2, 4)
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("share %d differs across identical coders", i)
		}
	}
}

func TestDispersalPointsDistinct(t *testing.T) {
	t.Parallel()
	c := NewCoder("point-check")
	m, err := c.Dispersal(1, MaxN)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[byte]bool)
	for r := 0; r < m.Rows; r++ {
		// With t=1 the Vandermonde row is [1]; use t=2 instead.
		_ = r
	}
	m2, err := c.Dispersal(2, MaxN)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < m2.Rows; r++ {
		x := m2.At(r, 1)
		if x == 0 {
			t.Fatalf("evaluation point %d is zero", r)
		}
		if seen[x] {
			t.Fatalf("duplicate evaluation point %#x at row %d", x, r)
		}
		seen[x] = true
	}
}

func TestDecodeEmptyShareList(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	if _, err := c.Decode(nil, 3); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("Decode(nil) err = %v, want ErrNotEnough", err)
	}
}

func TestLargeChunkRoundTrip(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("large chunk in -short mode")
	}
	c := NewCoder("k")
	data := make([]byte, 4<<20)
	rng := rand.New(rand.NewSource(9))
	rng.Read(data)
	shares := mustEncode(t, c, data, 3, 5)
	got, err := c.Decode([]Share{shares[4], shares[0], shares[2]}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("4 MiB round trip mismatch")
	}
}

func BenchmarkEncode(b *testing.B) {
	c := NewCoder("bench")
	data := make([]byte, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data, 3, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	c := NewCoder("bench")
	data := make([]byte, 4<<20)
	shares, err := c.Encode(data, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	subset := shares[:3]
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(subset, 5); err != nil {
			b.Fatal(err)
		}
	}
}
