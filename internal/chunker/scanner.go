package chunker

import "io"

// Scanner yields the chunks of a byte stream one at a time, holding at most
// MaxSize bytes of the input in memory. It produces exactly the boundaries
// Split would: both nextBoundary and gearCut inspect only the first
// min(len(window), MaxSize) bytes of the remaining input and finalize the
// tail only at end of stream, so a cut decision made over a full MaxSize
// window — or over whatever remains once the reader is drained — is the
// decision Split would have made with the whole file in hand.
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
// up to MaxSize, copying less than 2 × MaxSize bytes in total.
const minRing = 64 << 10

// Scan returns a Scanner that chunks the stream read from r. The scanner's
// ring is sized by the bytes it actually reads: it starts small — or, when r
// reports its remaining length (Len() int, as bytes.Reader and
// strings.Reader do), just large enough to hold it — and doubles up to
// MaxSize, never more. Each call to Next refills the ring, cuts one chunk,
// and slides the window.
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
		// Slide the unconsumed window to the front to make room to refill.
		copy(s.buf, s.buf[s.start:s.end])
		s.end -= s.start
		s.start = 0
	}
	for !s.eof {
		if s.end == len(s.buf) {
			if len(s.buf) >= s.c.cfg.MaxSize {
				break
			}
			// The stream outgrew the ring before a full MaxSize window was
			// seen: the cut may depend on bytes not read yet.
			grown := make([]byte, min(2*len(s.buf), s.c.cfg.MaxSize))
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if n > 0 {
			s.zeroReads = 0
		} else {
			s.zeroReads++
			if s.zeroReads >= 100 {
				s.err = io.ErrNoProgress
				return Chunk{}, s.err
			}
		}
		if err == io.EOF {
			s.eof = true
			break
		}
		if err != nil {
			s.err = err
			return Chunk{}, s.err
		}
	}
	window := s.buf[s.start:s.end]
	if len(window) == 0 {
		s.err = io.EOF
		return Chunk{}, io.EOF
	}
	// The window is either MaxSize bytes long (so the cut cannot depend on
	// bytes beyond it) or holds the entire rest of the stream: either way
	// the boundary decision is final.
	cut := s.c.cut(window)
	ch := Chunk{Offset: s.off, Data: window[:cut]}
	s.start += cut
	s.off += int64(cut)
	return ch, nil
}

// cut returns the length of the next chunk starting at data[0] under the
// configured algorithm.
func (c *Chunker) cut(data []byte) int {
	if c.cfg.Algorithm == FastCDC {
		return c.gearCut(data)
	}
	return c.nextBoundary(data)
}
