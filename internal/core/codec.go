package core

import (
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
)

// codecPool bounds the client's CPU-heavy codec work — chunk hashing,
// erasure encode, erasure decode — to a fixed number of concurrent jobs,
// decoupled from the transfer engine's in-flight slots. A Put hashes chunk
// k on a goroutine of its own while its caller scans chunk k+1, and encodes
// each new chunk inside that chunk's scatter; a Get decodes each chunk
// inside its gather. So the CPU work of one chunk overlaps the scan of the
// next and the network transfers of others, and a Put or Get of many chunks
// keeps all cores fed without oversubscribing them.
//
// Jobs run on the caller's goroutine: the pool is a semaphore, not a worker
// queue, so job results need no channel plumbing and the transfer engine's
// cancellation semantics are untouched.
//
// Virtual-time safety: under netsim, a goroutine blocked on a raw channel
// (the slot acquire below) still counts as "running", so the virtual clock
// cannot advance past pending CPU work — and slots free in real time as
// jobs finish, so the acquire never deadlocks a virtual-time run. Real and
// simulated runtimes both behave correctly with no vclock hooks.
type codecPool struct {
	slots chan struct{}
	busy  atomic.Int64
	obs   *obs.Observer
}

// newCodecPool builds a pool GOMAXPROCS wide: one CPU job per core.
func newCodecPool(o *obs.Observer) *codecPool {
	return &codecPool{slots: make(chan struct{}, runtime.GOMAXPROCS(0)), obs: o}
}

// run executes fn once a slot is free, blocking the caller until then.
// kind ("encode", "decode", "chunk") and bytes feed the cyrus_codec_*
// counters when the job completes.
func (p *codecPool) run(kind string, bytes int64, fn func()) {
	p.slots <- struct{}{}
	p.obs.CodecBusy(int(p.busy.Add(1)))
	defer func() {
		p.obs.CodecBusy(int(p.busy.Add(-1)))
		<-p.slots
		p.obs.CodecWork(kind, bytes)
	}()
	fn()
}
