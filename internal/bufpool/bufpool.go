// Package bufpool is the one pool of byte buffers the data path draws from:
// the chunk scanner's read buffers, erasure-coded shares, share download
// sinks and decode buffers. Every buffer Get hands out goes back through
// exactly one Put, after which its bytes must not be touched.
//
// The pool is bounded, not a sync.Pool. It keeps at most KeepBytes between
// uses and hands the oldest buffers beyond that to the garbage collector.
// Kept buffers are live heap, and the collector's target is twice the live
// heap, so every kept byte costs about two of resident memory: a sync.Pool
// keeps however much collection timing leaves it, this pool a constant.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Size classes: one for requests up to 256 bytes, then four per doubling, so
// a buffer is at most a quarter larger than asked for. Requests above 32 MiB
// are plain allocations that Put lets go.
const (
	minShift   = 8
	subShift   = 2
	maxShift   = 25
	numClasses = (maxShift-minShift)<<subShift + 1
)

// maxChunk is the default chunker's largest chunk (chunker.Config MaxSize,
// four times its 4 MiB average); chunker's tests pin the two together.
const maxChunk = 16 << 20

// KeepBytes caps the bytes the pool holds between uses: three of the default
// chunker's largest chunks, most of what one 32 MiB Put or Get has in flight
// (pipeline depth 4 + 2 chunk buffers and their shares). Measured, not
// guessed (EXPERIMENTS, beside Fig. 12): with this cap a large-object
// benchmark run peaks below the resident memory of a client without the
// pool; with five chunks' worth it peaks a third higher, for no CPU saving
// the paired runs could resolve.
const KeepBytes = 3 * maxChunk

// classOf returns the smallest class whose buffers hold n bytes; numClasses
// or more for a request the pool does not serve.
func classOf(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	e := bits.Len(uint(n-1)) - 1 // 1<<e < n <= 1<<(e+1)
	return (e-minShift)<<subShift + (n-1-1<<e)>>(e-subShift) + 1
}

// classSize is the capacity of every buffer of class c.
func classSize(c int) int {
	if c == 0 {
		return 1 << minShift
	}
	e := minShift + (c-1)>>subShift
	return 1<<e + ((c-1)&(1<<subShift-1)+1)<<(e-subShift)
}

// entry is one kept buffer. It sits on two lists, newest first: its class's,
// which Get takes from, and the pool's, whose tail (the oldest buffer) Put
// evicts when the pool is over its cap.
type entry struct {
	buf   *[]byte
	class int
	link  [2]struct{ newer, older *entry } // [byClass], [byAge]
}

const (
	byClass = iota
	byAge
)

type list struct{ newest, oldest *entry }

func (l *list) push(e *entry, k int) {
	e.link[k].newer, e.link[k].older = nil, l.newest
	if l.newest != nil {
		l.newest.link[k].newer = e
	} else {
		l.oldest = e
	}
	l.newest = e
}

func (l *list) unlink(e *entry, k int) {
	if n := e.link[k].newer; n != nil {
		n.link[k].older = e.link[k].older
	} else {
		l.newest = e.link[k].older
	}
	if o := e.link[k].older; o != nil {
		o.link[k].newer = e.link[k].newer
	} else {
		l.oldest = e.link[k].newer
	}
	e.link[k].newer, e.link[k].older = nil, nil
}

var (
	mu      sync.Mutex
	classes [numClasses]list
	age     list
	kept    int    // bytes held by the entries on age
	spare   *entry // unused entries, chained through link[byAge].older

	live atomic.Int64
)

// PoisonOnRelease makes Put scribble over every buffer it takes back. Live
// counts leaks but cannot see a reader that kept a buffer past its release;
// with the poison on, such a reader gets garbage at once, not only when the
// pool happens to hand the buffer out again. Tests of buffer lifetimes set
// it; nothing else does.
var PoisonOnRelease atomic.Bool

// Live reports the buffers Get has handed out that Put has not taken back.
// Leak tests pin it to its value before the code under test ran.
func Live() int64 { return live.Load() }

// Get returns a buffer of length n. It is a kept buffer of n's class, or of
// one of the next classes up to twice its size, when the pool has one, and a
// new buffer otherwise. Its bytes are whatever its last user left there.
func Get(n int) *[]byte {
	live.Add(1)
	c := classOf(n)
	if c >= numClasses {
		b := make([]byte, n)
		return &b
	}
	mu.Lock()
	for k := c; k < min(c+1<<subShift+1, numClasses); k++ {
		if e := classes[k].newest; e != nil {
			bp := e.buf
			drop(e)
			mu.Unlock()
			*bp = (*bp)[:n]
			return bp
		}
	}
	mu.Unlock()
	b := make([]byte, n, classSize(c))
	return &b
}

// Put gives back a buffer Get returned. Safe to call with nil (no-op).
func Put(bp *[]byte) {
	if bp == nil {
		return
	}
	b := (*bp)[:cap(*bp)]
	if PoisonOnRelease.Load() && len(b) > 0 {
		b[0] = 0xDB
		for i := 1; i < len(b); i *= 2 {
			copy(b[i:], b[:i])
		}
	}
	live.Add(-1)
	c := classOf(len(b))
	if c >= numClasses || classSize(c) != len(b) {
		return // an oversized buffer: not the pool's to keep
	}
	mu.Lock()
	defer mu.Unlock()
	e := spare
	if e != nil {
		spare = e.link[byAge].older
	} else {
		e = new(entry)
	}
	e.buf, e.class = bp, c
	classes[c].push(e, byClass)
	age.push(e, byAge)
	kept += len(b)
	for kept > KeepBytes {
		drop(age.oldest)
	}
}

// drop takes a kept entry off both lists and onto the spare chain; the
// caller holds mu and has taken e.buf if it wants it.
func drop(e *entry) {
	classes[e.class].unlink(e, byClass)
	age.unlink(e, byAge)
	kept -= cap(*e.buf)
	e.buf = nil
	e.link[byAge].older = spare
	spare = e
}
