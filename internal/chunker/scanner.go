package chunker

import "io"

// Scanner yields the chunks of a byte stream one at a time, holding at most
// MaxSize bytes of the input in memory. It produces exactly the boundaries
// Split would: a boundary found inside the bytes read so far depends on
// nothing beyond it, and a chunk that ends without one is finalized only
// over a full MaxSize window or at end of stream — the decision Split makes
// with the whole file in hand.
type Scanner struct {
	c *Chunker
	r io.Reader // nil in ScanBytes mode (whole input already in buf)
	// streaming: the ring, len ≤ MaxSize, grown as the stream fills it;
	// ScanBytes: the input itself.
	buf []byte
	// buf[start:end] is the unconsumed window; off is the file offset of
	// buf[start].
	start, end int
	off        int64
	eof        bool
	err        error // sticky; io.EOF once the input is exhausted
	zeroReads  int
}

// minRing is the ring a streaming Scanner starts with when the reader gives
// no length hint. Small objects never pay for more; a long stream doubles it
// as far as its longest chunk needs, copying less than 2 × MaxSize bytes in
// total.
const minRing = 64 << 10

// Scan returns a Scanner that chunks the stream read from r. The scanner's
// ring is sized by the bytes it actually reads: it starts small — or, when r
// reports its remaining length (Len() int, as bytes.Reader and
// strings.Reader do), just large enough to hold it — and doubles up to
// MaxSize, never more. Each call to Next slides the bytes read past the
// previous cut to the front, then reads on until a boundary shows.
//
// The Data of a returned Chunk aliases the scanner's internal buffer and is
// only valid until the next call to Next — callers that keep a chunk must
// copy it. (ScanBytes-mode chunks alias the caller's slice and are stable.)
func (c *Chunker) Scan(r io.Reader) *Scanner {
	size := min(minRing, c.cfg.MaxSize)
	if l, ok := r.(interface{ Len() int }); ok {
		// One spare byte, so the read that reports EOF has room to be made
		// without growing the ring.
		size = min(max(l.Len(), 0), c.cfg.MaxSize-1) + 1
	}
	return &Scanner{c: c, r: r, buf: make([]byte, size)}
}

// ScanBytes returns a Scanner over an in-memory buffer. No copy is made:
// chunks alias data, exactly as with Split. Split/SplitTo are wrappers
// around this mode, so Scanner and Split cannot drift apart.
func (c *Chunker) ScanBytes(data []byte) *Scanner {
	return &Scanner{c: c, buf: data, end: len(data), eof: true}
}

// BufferBytes returns the size of the scanner's ring: the input bytes it
// holds resident right now (0 in ScanBytes mode, which owns no buffer).
func (s *Scanner) BufferBytes() int {
	if s.r == nil {
		return 0
	}
	return len(s.buf)
}

// Next returns the next chunk of the stream. It returns io.EOF after the
// final chunk has been delivered. Any other error is a read error from the
// underlying reader, returned before a possibly-truncated chunk is ever
// emitted: a partial window is finalized as a tail chunk only on genuine
// end of stream. Errors are sticky.
func (s *Scanner) Next() (Chunk, error) {
	if s.err != nil {
		return Chunk{}, s.err
	}
	if s.r != nil && s.start > 0 {
		// Slide the read-ahead — less than one fill step — to the front.
		copy(s.buf, s.buf[s.start:s.end])
		s.end -= s.start
		s.start = 0
	}
	cfg := &s.c.cfg
	// Read ahead of the boundary search one step at a time and resume the
	// search where it stopped, so every byte is searched once and only the
	// step the cut fell in is left to slide. No chunk but the tail is
	// shorter than MinSize, which bounds the slide at a quarter byte per
	// byte scanned.
	step := max(cfg.MinSize/4, 64)
	searched := 0
	for {
		if !s.eof {
			if err := s.fill(min(max(searched, cfg.MinSize)+step, cfg.MaxSize)); err != nil {
				s.err = err
				return Chunk{}, err
			}
		}
		window := s.buf[s.start:s.end]
		if len(window) == 0 {
			s.err = io.EOF
			return Chunk{}, io.EOF
		}
		cut := s.c.cut(window, searched)
		if cut == 0 && s.eof {
			cut = len(window) // the tail chunk
		}
		if cut > 0 {
			ch := Chunk{Offset: s.off, Data: window[:cut]}
			s.start += cut
			s.off += int64(cut)
			return ch, nil
		}
		searched = len(window)
	}
}

// fill reads until the window holds want (≤ MaxSize) bytes or the stream
// ends, doubling the ring when the stream has filled it.
func (s *Scanner) fill(want int) error {
	for s.end < want && !s.eof {
		if s.end == len(s.buf) {
			grown := make([]byte, min(2*len(s.buf), s.c.cfg.MaxSize))
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
		n, err := s.r.Read(s.buf[s.end:min(want, len(s.buf))])
		s.end += n
		if n > 0 {
			s.zeroReads = 0
		} else if s.zeroReads++; s.zeroReads >= 100 {
			return io.ErrNoProgress
		}
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			return err
		}
	}
	return nil
}
