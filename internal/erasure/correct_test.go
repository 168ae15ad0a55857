package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// is the verify of a blob whose identity is data: a decoding is accepted
// only if it is exactly data, as a chunk ID accepts only its chunk.
func is(data []byte) func([]byte) bool {
	return func(got []byte) bool { return bytes.Equal(got, data) }
}

func TestDecodeCorrectingCleanShares(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := bytes.Repeat([]byte("clean"), 100)
	shares := mustEncode(t, c, data, 2, 4)
	got, err := c.DecodeVerified(shares, 4, is(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean verified decode: err=%v", err)
	}
}

func TestDecodeCorrectingOneBadShare(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := bytes.Repeat([]byte{9, 8, 7, 6}, 64)
	shares := mustEncode(t, c, data, 2, 4)
	shares[0].Data[shareHeaderLen+5] ^= 0xA5 // a payload byte of the first share tried

	got, err := c.DecodeVerified(shares, 4, is(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrected data wrong")
	}
}

// The identity check needs no majority of intact shares: at t=2, two
// intact shares of four are enough, and so are two of six with four corrupt.
func TestDecodeCorrectingTwoBadOfSix(t *testing.T) {
	t.Parallel()
	c := NewCoder("k")
	data := bytes.Repeat([]byte("payload!"), 50)
	for _, tc := range []struct {
		n   int
		bad []int
	}{
		{4, []int{0, 1}},
		{4, []int{1, 3}},
		{6, []int{0, 4}},
		{6, []int{0, 1, 3, 5}},
	} {
		shares := mustEncode(t, c, data, 2, tc.n)
		for k, i := range tc.bad {
			shares[i].Data[shareHeaderLen+k] ^= 0x0F
		}
		got, err := c.DecodeVerified(shares, tc.n, is(data))
		if err != nil {
			t.Fatalf("n=%d bad=%v: %v", tc.n, tc.bad, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d bad=%v: corrected data wrong", tc.n, tc.bad)
		}
	}
}

func TestDecodeCorrectingTooManyBad(t *testing.T) {
	t.Parallel()
	// 3 shares, t=2, two corrupt: one intact share is fewer than t, so no
	// subset decodes to the data, and the search refuses rather than guess.
	c := NewCoder("k")
	data := bytes.Repeat([]byte("x"), 64)
	shares := mustEncode(t, c, data, 2, 3)
	shares[0].Data[shareHeaderLen] ^= 1
	shares[1].Data[shareHeaderLen] ^= 2
	if _, err := c.DecodeVerified(shares, 3, is(data)); !errors.Is(err, ErrCorruptShare) {
		t.Fatalf("2-of-3 corrupt err = %v, want ErrCorruptShare", err)
	}
}

func TestDecodeCorrectingNoSurplus(t *testing.T) {
	t.Parallel()
	// Exactly t shares, one corrupted: plain Decode has nothing to check the
	// result against and returns wrong bytes; the verified search checks the
	// blob's identity and refuses.
	c := NewCoder("k")
	data := bytes.Repeat([]byte("y"), 64)
	shares := mustEncode(t, c, data, 2, 3)
	subset := shares[:2]
	subset[0].Data[shareHeaderLen] ^= 1
	if got, err := c.Decode(subset, 3); err != nil || bytes.Equal(got, data) {
		t.Fatalf("plain decode of a corrupt t-set: err=%v, original bytes=%v", err, bytes.Equal(got, data))
	}
	if _, err := c.DecodeVerified(subset, 3, is(data)); !errors.Is(err, ErrCorruptShare) {
		t.Fatalf("verified decode of a corrupt t-set: err = %v, want ErrCorruptShare", err)
	}
}

func TestDecodeCorrectingRandomized(t *testing.T) {
	t.Parallel()
	c := NewCoder("rand")
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		tt := 2 + rng.Intn(2)     // 2 or 3
		n := tt + 2 + rng.Intn(2) // two or three surplus shares
		data := make([]byte, 128+rng.Intn(512))
		rng.Read(data)
		shares, err := c.Encode(data, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt every share but a random t of them.
		bad := rng.Perm(n)[tt:]
		for _, i := range bad {
			shares[i].Data[shareHeaderLen+rng.Intn(len(data)/tt)] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.DecodeVerified(shares, n, is(data))
		if err != nil {
			t.Fatalf("trial %d (t=%d n=%d bad=%v): %v", trial, tt, n, bad, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data", trial)
		}
	}
}

func BenchmarkDecodeCorrecting(b *testing.B) {
	c := NewCoder("bench")
	data := make([]byte, 1<<20)
	shares, err := c.Encode(data, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	shares[1].Data[shareHeaderLen] ^= 0xFF
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeVerified(shares, 4, is(data)); err != nil {
			b.Fatal(err)
		}
	}
}
