package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// The dispersal property the whole system leans on, stated as the paper
// states it: for ANY (t, n) and ANY data, dropping ANY n−t shares leaves a
// decodable set that reconstructs the data byte-identically, while t−1
// shares reveal nothing reconstructible. Exercised across random
// parameters, sizes (including empty and sub-t inputs), and drop subsets.
func TestEncodeDropAnyDecodeProperty(t *testing.T) {
	t.Parallel()
	c := NewCoder("dispersal-property-key")
	rng := rand.New(rand.NewSource(2015))
	for iter := 0; iter < 300; iter++ {
		tt := MinT + rng.Intn(8)
		n := tt + rng.Intn(8)
		size := rng.Intn(1 << 12)
		if iter%17 == 0 {
			size = rng.Intn(3) // stress empty/tiny payloads
		}
		data := make([]byte, size)
		rng.Read(data)

		shares, err := c.Encode(data, tt, n)
		if err != nil {
			t.Fatalf("iter %d: Encode(t=%d n=%d size=%d): %v", iter, tt, n, size, err)
		}

		// Drop a random set of exactly n−t shares: what's left must decode.
		perm := rng.Perm(n)
		kept := make([]Share, 0, tt)
		for _, i := range perm[:tt] {
			kept = append(kept, shares[i])
		}
		got, err := c.Decode(kept, n)
		if err != nil {
			t.Fatalf("iter %d: Decode after dropping %d of %d (t=%d): %v", iter, n-tt, n, tt, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("iter %d: reconstruction differs (t=%d n=%d size=%d)", iter, tt, n, size)
		}

		// One share short must refuse, not return wrong bytes.
		if _, err := c.Decode(kept[:tt-1], n); !errors.Is(err, ErrNotEnough) {
			t.Fatalf("iter %d: Decode with t-1 shares: err = %v, want ErrNotEnough", iter, err)
		}
	}
}

// A share whose HEADER is corrupted (not just its payload) must be set
// aside like any other corrupt share — a garbled length or parameter field
// must not make the whole decode bail while t intact shares exist.
func TestDecodeCorrectingCorruptHeader(t *testing.T) {
	t.Parallel()
	c := NewCoder("header-rot-key")
	data := []byte("header corruption should be survivable with surplus shares")
	const tt, n = 2, 5
	shares, err := c.Encode(data, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	// Byte 0 sits in the share header (version/params region).
	shares[1].Data[0] ^= 0xff

	got, err := c.DecodeVerified(shares, n, is(data))
	if err != nil {
		t.Fatalf("DecodeVerified with one rotten header: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstruction differs")
	}
}

// Headers corrupted into *parseable but wrong* parameters form a group of
// their own, which cannot hide the intact shares' decoding.
func TestDecodeCorrectingHeaderParameterLie(t *testing.T) {
	t.Parallel()
	c := NewCoder("param-lie-key")
	data := []byte("intact parameters win")
	const tt, n = 2, 6
	shares, err := c.Encode(data, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the same data at different parameters and swap shares in:
	// their headers parse cleanly but disagree with the rest, and the lowest
	// index is among them, so their group is searched first.
	other, err := c.Encode(data, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	shares[0], shares[4] = other[0], other[4]
	other[2].Data[shareHeaderLen] ^= 1
	shares[2] = other[2]

	got, err := c.DecodeVerified(shares, n, is(data))
	if err != nil {
		t.Fatalf("DecodeVerified with parameter-lying shares: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstruction differs")
	}
}

// The shares carry their own t: a reader whose idea of t differs from the
// writer's decodes the writer's shares all the same, past a rotten one.
func TestDecodeVerifiedTakesTFromShares(t *testing.T) {
	t.Parallel()
	c := NewCoder("foreign-t-key")
	data := bytes.Repeat([]byte("written at t=3 "), 20)
	shares, err := c.Encode(data, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	shares[0].Data[shareHeaderLen+2] ^= 0x33
	got, err := c.DecodeVerified(shares, MaxN, is(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("t=3 shares with one rotten: err=%v", err)
	}
}
