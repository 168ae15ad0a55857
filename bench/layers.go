package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/chunker"
	"repro/internal/cloudsim"
	"repro/internal/csp"
	"repro/internal/erasure"
	"repro/internal/gf256"
	"repro/internal/metadata"
	"repro/internal/selector"
	"repro/internal/transfer"
	"repro/internal/vclock"
)

const (
	shareT = 2
	shareN = 3
)

// chunkCost is what one distinct chunk cost each data-plane layer when the
// benchmark replayed it: hashing, (2,3) encode and decode.
type chunkCost struct {
	size   int
	hashNs int64
	encNs  int64
	decNs  int64
}

type placedChunk struct {
	off  int64
	cost *chunkCost
}

// fileLayout is the chunk sequence of a name's latest version.
type fileLayout struct {
	chunks     []placedChunk
	fileHashNs int64
}

// replayer re-runs the data-plane layers over the workload's own inputs,
// from outside the client, between timed ops of a traced round: the same
// chunker configuration, hash and coder the client uses, on the same bytes,
// so each layer's share of an op's time is measured rather than modelled.
// Dedup is mirrored per round (fresh providers hold nothing): only chunks
// not seen earlier in the round are encoded.
type replayer struct {
	t     *tracer
	chnk  *chunker.Chunker
	coder *erasure.Coder
	seen  map[string]*chunkCost
	files map[string]fileLayout

	shares  []erasure.Share
	plain   []byte
	csps    []string           // provider names, for selector instances
	linkBps map[string]float64 // equal links: loopback has no slow provider

	// Whole-run totals behind the MB/s figures.
	scanNs, scanBytes int64
	hashNs, hashBytes int64
	encNs, encBytes   int64
	decNs, decBytes   int64
	newChunkBytes     []int

	// Per-phase sums behind the ms-per-op figures.
	writeOps, readOps        int
	writeChunks              int
	writeScanNs, writeHashNs int64
	writeEncNs               int64
	readHashNs, readDecNs    int64
	selectNs                 int64
	selects                  int

	err error // first replay that did not round-trip
}

func newReplayer(t *tracer) (*replayer, error) {
	chnk, err := chunker.New(chunker.Config{})
	if err != nil {
		return nil, err
	}
	p := &replayer{t: t, chnk: chnk, coder: erasure.NewCoder(clientKey), linkBps: make(map[string]float64)}
	for i := 0; i < providerCount; i++ {
		name := fmt.Sprintf("csp%d", i)
		p.csps = append(p.csps, name)
		p.linkBps[name] = 100e6
	}
	return p, nil
}

func (p *replayer) newRound() {
	p.seen = make(map[string]*chunkCost)
	p.files = make(map[string]fileLayout)
}

// wrote replays one object the workload is about to write.
func (p *replayer) wrote(phase, name string, data []byte) {
	begin := p.t.now()
	sc := p.chnk.Scan(bytes.NewReader(data))
	fileHash := metadata.NewHash()
	var lay fileLayout
	var scanNs, hashNs, encNs int64
	for {
		t0 := time.Now()
		ch, err := sc.Next()
		scanNs += int64(time.Since(t0))
		if err == io.EOF {
			break
		}
		if err != nil {
			p.fail(fmt.Errorf("chunker replay of %s: %w", name, err))
			return
		}
		t0 = time.Now()
		id := metadata.HashData(ch.Data)
		chunkHashNs := int64(time.Since(t0))
		t0 = time.Now()
		fileHash.Write(ch.Data)
		lay.fileHashNs += int64(time.Since(t0))
		hashNs += chunkHashNs

		cost := p.seen[id]
		if cost == nil {
			cost = &chunkCost{size: len(ch.Data), hashNs: chunkHashNs}
			if err := p.code(ch.Data, cost); err != nil {
				p.fail(fmt.Errorf("erasure replay of %s: %w", name, err))
				return
			}
			p.seen[id] = cost
			p.newChunkBytes = append(p.newChunkBytes, cost.size)
			encNs += cost.encNs
		}
		lay.chunks = append(lay.chunks, placedChunk{ch.Offset, cost})
	}
	hashNs += lay.fileHashNs
	p.files[name] = lay
	p.scanNs += scanNs
	p.scanBytes += int64(len(data))
	p.hashNs += hashNs
	p.hashBytes += 2 * int64(len(data)) // chunk hash + file hash
	if phase == "write" {
		p.writeOps++
		p.writeChunks += len(lay.chunks)
		p.writeScanNs += scanNs
		p.writeHashNs += hashNs
		p.writeEncNs += encNs
	}
	p.t.replaySpan("chunker+metadata.hash+erasure", begin, int64(len(data)))
}

// code encodes and decodes one new chunk, timing both and checking the
// round trip.
func (p *replayer) code(data []byte, cost *chunkCost) error {
	t0 := time.Now()
	shares, err := p.coder.EncodeTo(p.shares[:0], data, shareT, shareN)
	cost.encNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	p.shares = shares
	defer erasure.ReleaseShares(shares)
	t0 = time.Now()
	out, err := p.coder.DecodeInto(p.plain[:0], shares[:shareT], shareN)
	cost.decNs = int64(time.Since(t0))
	if err != nil {
		return err
	}
	p.plain = out
	if !bytes.Equal(out, data) {
		return fmt.Errorf("decode of %d-byte chunk differs from input", len(data))
	}
	p.encNs += cost.encNs
	p.encBytes += int64(len(data))
	p.decNs += cost.decNs
	p.decBytes += int64(len(data))
	return nil
}

// reads charges one read op with what its chunks cost: a decode and a chunk
// hash each, the file hash when the whole object is verified, and one
// selector solve shaped like the op (its chunks x the providers).
func (p *replayer) reads(name string, off, n int64, whole bool) {
	lay, ok := p.files[name]
	if !ok {
		p.fail(fmt.Errorf("read replay of %s: never written", name))
		return
	}
	begin := p.t.now()
	p.readOps++
	in := selector.Instance{T: shareT, LinkBps: p.linkBps}
	for i, c := range lay.chunks {
		if c.off+int64(c.cost.size) <= off || c.off >= off+n {
			continue
		}
		p.readDecNs += c.cost.decNs
		p.readHashNs += c.cost.hashNs
		on := make([]string, 0, shareN)
		for k := 0; k < shareN; k++ {
			on = append(on, p.csps[(i+k)%providerCount])
		}
		in.Chunks = append(in.Chunks, selector.Chunk{
			ID:        fmt.Sprintf("c%d", i),
			ShareSize: erasure.ShareSize(int64(c.cost.size), shareT),
			StoredOn:  on,
		})
	}
	if whole {
		p.readHashNs += lay.fileHashNs
	}
	t0 := time.Now()
	_, err := selector.Optimized{}.Select(in)
	p.selectNs += int64(time.Since(t0))
	p.selects++
	if err != nil {
		p.fail(fmt.Errorf("selector replay of %s: %w", name, err))
	}
	p.t.replaySpan("selector", begin, 0)
}

func (p *replayer) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// ratio is num/den, or 0 when there is nothing to divide by (a phase with
// no such work: namespace_sync writes move no bytes).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perOpMs is a nanosecond sum per op, in milliseconds.
func perOpMs(ns int64, ops int) float64 { return ratio(float64(ns)/1e6, float64(ops)) }

// mbps is bytes over nanoseconds, in MB/s.
func mbps(bytes, ns int64) float64 { return ratio(float64(bytes)/1e6, float64(ns)/1e9) }

// standalone holds the layer numbers that do not depend on the workload's
// ops: raw kernel, engine, store and record-codec speeds.
type standalone struct {
	muladdGbps        float64
	attemptOverheadUs float64
	encodeAllocs      float64
	simUpMbps         float64
	simDownMbps       float64
	httpRttUs         float64
	httpUpMbps        float64
	httpDownMbps      float64
	encodeUsPerRecord float64
	decodeUsPerRecord float64
	recordBytes       float64
	records           int
}

const storeObject = 2 << 20

func (p *replayer) standalone(ctx context.Context, bin string, records []*metadata.FileMeta) (standalone, error) {
	var s standalone
	var err error
	s.muladdGbps = p.timeSpan("gf256.muladd", benchMulAdd)
	s.attemptOverheadUs = p.timeSpan("transfer.attempt", func() float64 { return benchAttempt(ctx) })
	s.encodeAllocs = p.timeSpan("erasure.allocs", p.benchEncodeAllocs)

	begin := p.t.now()
	sim := cloudsim.NewSimStore(cloudsim.NewBackend("sim", csp.NameKeyed, 0))
	if s.simUpMbps, s.simDownMbps, err = benchStore(ctx, sim, 40); err != nil {
		return s, fmt.Errorf("cloudsim: %w", err)
	}
	p.t.replaySpan("cloudsim", begin, 0)

	begin = p.t.now()
	ports, err := freePorts(1)
	if err != nil {
		return s, err
	}
	prov, err := startProvider(bin, "probe", ports[0])
	if err != nil {
		return s, err
	}
	defer janitor.reap(prov)
	http, err := prov.connect(ctx)
	if err != nil {
		return s, err
	}
	rtts := make([]float64, 300)
	for i := range rtts {
		t0 := time.Now()
		if _, err := http.List(ctx, ""); err != nil {
			return s, fmt.Errorf("resthttp rtt: %w", err)
		}
		rtts[i] = float64(time.Since(t0)) / 1e3
	}
	s.httpRttUs = median(rtts)
	if s.httpUpMbps, s.httpDownMbps, err = benchStore(ctx, http, 20); err != nil {
		return s, fmt.Errorf("resthttp: %w", err)
	}
	p.t.replaySpan("resthttp", begin, 0)

	begin = p.t.now()
	s.records = len(records)
	var encNs, decNs, size int64
	for _, m := range records {
		t0 := time.Now()
		raw, err := metadata.Encode(m)
		encNs += int64(time.Since(t0))
		if err != nil {
			return s, fmt.Errorf("metadata.Encode: %w", err)
		}
		t0 = time.Now()
		back, err := metadata.Decode(raw)
		decNs += int64(time.Since(t0))
		if err != nil {
			return s, fmt.Errorf("metadata.Decode: %w", err)
		}
		if back.VersionID() != m.VersionID() {
			return s, fmt.Errorf("metadata round trip changed version %s", m.VersionID())
		}
		size += int64(len(raw))
	}
	if s.records > 0 {
		s.encodeUsPerRecord = float64(encNs) / 1e3 / float64(s.records)
		s.decodeUsPerRecord = float64(decNs) / 1e3 / float64(s.records)
		s.recordBytes = float64(size) / float64(s.records)
	}
	p.t.replaySpan("metadata.codec", begin, size)
	return s, nil
}

func (p *replayer) timeSpan(layer string, fn func() float64) float64 {
	begin := p.t.now()
	v := fn()
	p.t.replaySpan(layer, begin, 0)
	return v
}

// benchMulAdd: one 1 MiB source stripe applied to n share rows, as encode
// does per stripe. GB/s of source bytes.
func benchMulAdd() float64 {
	const stripe = 1 << 20
	src := make([]byte, stripe)
	newRng(7).fill(src)
	dsts := make([][]byte, shareN)
	for i := range dsts {
		dsts[i] = make([]byte, stripe)
	}
	cs := []byte{3, 7, 29}
	const iters = 40
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		gf256.MulAddSlices(cs, dsts, src)
	}
	return float64(iters*stripe) / 1e9 / time.Since(t0).Seconds()
}

// benchAttempt: transfer-engine admission, bookkeeping and reporting around
// an attempt that does nothing.
func benchAttempt(ctx context.Context) float64 {
	eng := transfer.New(transfer.Config{Runtime: vclock.Real()})
	op := eng.Begin(ctx)
	defer op.Finish()
	att := transfer.Attempt{CSP: "null", Kind: "upload", Run: func(context.Context) (int64, error) { return 0, nil }}
	const iters = 20000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		_ = op.Do(ctx, att) // the attempt cannot fail
	}
	return float64(time.Since(t0)) / 1e3 / iters
}

// benchEncodeAllocs: heap allocations per EncodeTo at the run's mean new
// chunk size, with warm pools.
func (p *replayer) benchEncodeAllocs() float64 {
	if len(p.newChunkBytes) == 0 {
		return 0
	}
	total := 0
	for _, n := range p.newChunkBytes {
		total += n
	}
	data := make([]byte, total/len(p.newChunkBytes))
	newRng(11).fill(data)
	encode := func() {
		shares, err := p.coder.EncodeTo(p.shares[:0], data, shareT, shareN)
		if err != nil {
			p.fail(err)
			return
		}
		erasure.ReleaseShares(shares)
	}
	encode()
	const iters = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		encode()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / iters
}

// benchStore uploads then downloads count 2 MiB objects one at a time (one
// connection for an HTTP store) and checks the last one.
func benchStore(ctx context.Context, s csp.Store, count int) (up, down float64, err error) {
	if err := s.Authenticate(ctx, csp.Credentials{Token: providerToken}); err != nil {
		return 0, 0, err
	}
	data := make([]byte, storeObject)
	newRng(13).fill(data)
	t0 := time.Now()
	for i := 0; i < count; i++ {
		if err := s.Upload(ctx, fmt.Sprintf("probe-%d", i), data); err != nil {
			return 0, 0, err
		}
	}
	up = mbps(int64(count)*storeObject, int64(time.Since(t0)))
	var got []byte
	t0 = time.Now()
	for i := 0; i < count; i++ {
		if got, err = s.Download(ctx, fmt.Sprintf("probe-%d", i)); err != nil {
			return 0, 0, err
		}
	}
	down = mbps(int64(count)*storeObject, int64(time.Since(t0)))
	if !bytes.Equal(got, data) {
		return 0, 0, fmt.Errorf("%s returned wrong content", s.Name())
	}
	return up, down, nil
}
