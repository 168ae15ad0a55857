package chunker

import (
	"errors"
	"io"

	"repro/internal/bufpool"
)

// Scanner yields the chunks of a byte stream one at a time. It produces
// exactly the boundaries Split would: a boundary found inside the bytes read
// so far depends on nothing beyond it, and a chunk that ends without one is
// finalized only over a full MaxSize window or at end of stream — the
// decision Split makes with the whole file in hand.
//
// A streaming Scanner reads each chunk into a buffer of its own from the
// data path's pool (internal/bufpool) and, on a cut, hands that buffer over
// with the chunk: the read-ahead past the cut, less than one fill step, is
// all it copies into the next chunk's buffer. So a chunk's bytes are read
// once from the stream and never moved again on their way to the encoder.
type Scanner struct {
	c *Chunker
	r io.Reader // nil in ScanBytes mode (whole input already in buf)
	// streaming: the buffer the next chunk is read into (nil until needed),
	// and its pool handle; ScanBytes: the input itself.
	buf []byte
	bp  *[]byte
	// given is the buffer behind the chunk Next returned last, until Take
	// claims it or the next call to Next gives it back to the pool.
	given *[]byte
	// buf[start:end] is the unconsumed window (start stays 0 when
	// streaming); off is the file offset of buf[start].
	start, end int
	off        int64
	// grown is the largest window this stream has needed: the size a chunk
	// buffer starts at when the reader gives no length hint.
	grown     int
	eof       bool
	err       error // sticky; io.EOF once the input is exhausted
	zeroReads int
}

// minRing is the buffer a streaming Scanner starts with when the reader
// gives no length hint. Small objects never pay for more; a long stream
// doubles it as far as its longest chunk needs, copying less than 2 × MaxSize
// bytes in total.
const minRing = 64 << 10

var errClosed = errors.New("chunker: Next on a closed Scanner")

// Scan returns a Scanner that chunks the stream read from r. Chunk buffers
// are sized by the bytes the scanner actually reads: when r reports its
// remaining length (Len() int, as bytes.Reader and strings.Reader do), just
// large enough to hold the rest of it; otherwise as large as the longest
// window so far, starting small. Either way a chunk starts in at most two
// average chunks' worth of buffer, and its buffer doubles, up to MaxSize, in
// the rare chunk that outgrows it.
//
// The Data of a returned Chunk lives in a pooled buffer that is only valid
// until the next call to Next, unless the caller claims it with Take.
// (ScanBytes-mode chunks alias the caller's slice and are stable.) A caller
// that stops before Next has returned io.EOF or an error calls Close.
func (c *Chunker) Scan(r io.Reader) *Scanner {
	return &Scanner{c: c, r: r, grown: min(minRing, c.cfg.MaxSize)}
}

// ScanBytes returns a Scanner over an in-memory buffer. No copy is made:
// chunks alias data, exactly as with Split. Split/SplitTo are wrappers
// around this mode, so Scanner and Split cannot drift apart.
func (c *Chunker) ScanBytes(data []byte) *Scanner {
	return &Scanner{c: c, buf: data, end: len(data), eof: true}
}

// BufferBytes returns the size of the buffer the scanner holds between
// chunks — the one the next chunk's read-ahead already sits in — or 0 when
// it holds none (ScanBytes mode owns no buffer, and a drained or closed
// scanner has given its buffers back). A buffer claimed with Take is the
// caller's, not counted here.
func (s *Scanner) BufferBytes() int {
	if s.r == nil {
		return 0
	}
	return len(s.buf)
}

// Take hands the caller the pooled buffer behind the chunk Next returned
// last: that chunk's Data is a prefix of *Take() and stays valid through
// later calls to Next. The caller gives the buffer back with bufpool.Put (or
// erasure.PutDataBuf) once nothing reads it. Take returns nil in ScanBytes
// mode, before the first chunk, and when the buffer was already taken.
func (s *Scanner) Take() *[]byte {
	bp := s.given
	s.given = nil
	return bp
}

// Close gives back every buffer the scanner still holds, including the one
// behind the last chunk if it was not taken. Later calls to Next fail.
func (s *Scanner) Close() {
	s.drop(errClosed)
}

// drop ends the scan with err, giving back the scanner's buffers.
func (s *Scanner) drop(err error) {
	if s.err == nil {
		s.err = err
	}
	bufpool.Put(s.given)
	s.given = nil
	if s.r != nil {
		bufpool.Put(s.bp)
		s.bp, s.buf, s.end = nil, nil, 0
	}
}

// Next returns the next chunk of the stream. It returns io.EOF after the
// final chunk has been delivered. Any other error is a read error from the
// underlying reader, returned before a possibly-truncated chunk is ever
// emitted: a partial window is finalized as a tail chunk only on genuine
// end of stream. Errors are sticky.
func (s *Scanner) Next() (Chunk, error) {
	bufpool.Put(s.given) // the previous chunk's buffer, if the caller did not take it
	s.given = nil
	if s.err != nil {
		return Chunk{}, s.err
	}
	cfg := &s.c.cfg
	// Read ahead of the boundary search one step at a time and resume the
	// search where it stopped, so every byte is searched once and only the
	// step the cut fell in is left to carry. No chunk but the tail is
	// shorter than MinSize, which bounds the carry at a quarter byte per
	// byte scanned.
	step := max(cfg.MinSize/4, 64)
	searched := 0
	for {
		if !s.eof {
			if err := s.fill(min(max(searched, cfg.MinSize)+step, cfg.MaxSize)); err != nil {
				s.drop(err)
				return Chunk{}, err
			}
		}
		window := s.buf[s.start:s.end]
		if len(window) == 0 {
			s.drop(io.EOF)
			return Chunk{}, io.EOF
		}
		cut := s.c.cut(window, searched)
		if cut == 0 && s.eof {
			cut = len(window) // the tail chunk
		}
		if cut > 0 {
			ch := Chunk{Offset: s.off, Data: window[:cut]}
			s.off += int64(cut)
			if s.r == nil {
				s.start += cut
			} else {
				s.handOff(cut)
			}
			return ch, nil
		}
		searched = len(window)
	}
}

// handOff makes the current buffer the returned chunk's and carries the
// read-ahead past the cut into a new one. The carry is copied now, not at
// the next Next: by then the caller may have given the old buffer back.
func (s *Scanner) handOff(cut int) {
	s.given = s.bp
	carry := s.buf[cut:s.end]
	s.bp, s.buf, s.end = nil, nil, 0
	if len(carry) > 0 {
		s.draw(len(carry))
		s.end = copy(s.buf, carry)
	}
}

// draw takes the buffer the next chunk is read into, which must hold the
// carry: room for the rest of the stream plus the byte that lets the read
// reporting EOF be made without growing, when the reader reports its length;
// the longest window so far otherwise; at most two average chunks either way.
func (s *Scanner) draw(carry int) {
	size := s.grown
	if l, ok := s.r.(interface{ Len() int }); ok {
		size = carry + max(l.Len(), 0) + 1
	}
	s.bp = bufpool.Get(max(min(size, 2*s.c.cfg.AverageSize, s.c.cfg.MaxSize), carry))
	s.buf = *s.bp
}

// fill reads until the window holds want (≤ MaxSize) bytes or the stream
// ends, drawing the chunk's buffer on its first read and doubling it when
// the chunk outgrows it.
func (s *Scanner) fill(want int) error {
	for s.end < want && !s.eof {
		if s.bp == nil {
			s.draw(0)
		} else if s.end == len(s.buf) {
			old := s.bp
			size := min(2*len(s.buf), s.c.cfg.MaxSize)
			s.grown = max(s.grown, size)
			s.bp = bufpool.Get(size)
			s.buf = *s.bp
			copy(s.buf, (*old)[:s.end])
			bufpool.Put(old)
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
