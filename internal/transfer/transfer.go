// Package transfer is the CYRUS client's single dispatch path for all
// provider I/O: chunk-share scatter/gather, metadata reads and writes,
// migration uploads, probes, and deletes all route through one Engine
// (ROADMAP: consolidate the four hand-rolled fan-outs).
//
// The engine provides, in one place, what each call site used to
// approximate independently:
//
//   - a bounded global in-flight limit plus a per-CSP in-flight limit, so
//     one slow provider cannot absorb the client's whole concurrency
//     budget (the paper's straggler regime);
//   - a retry policy driven by the csp error taxonomy — transient errors
//     (csp.ErrUnavailable and unclassified transport faults) retry with
//     exponential backoff and deterministic jitter on the client's
//     vclock.Runtime, so netsim experiments replay byte-identically;
//   - a per-operation failed-provider set (Op): once a provider burns its
//     retries, sibling shares of the same operation skip it instead of
//     re-probing it from scratch;
//   - first-error cancellation (Op.Fail cancels the operation context, so
//     doomed sibling transfers stop instead of finishing wasted work);
//   - one k-out-of-n gather (Op.Gather) for every quorum read, with
//     redundant lanes — race reads at t=0, a hedge at the primary's
//     deadline — launched only while load telemetry says they can pay.
//
// Everything blocks only through vclock.Runtime primitives (Group.Wait,
// Sleep) — never on raw channels — so the engine is safe under netsim
// virtual time.
package transfer

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/csp"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// ErrSkipped is returned by Op.Do when the target provider already
// exhausted its retries earlier in the same operation: the attempt was
// not made, and the caller should walk to its next candidate.
var ErrSkipped = errors.New("transfer: provider skipped (failed earlier in this operation)")

// Tunables bound the engine's scheduling and retry behavior. Zero values
// take the documented defaults.
type Tunables struct {
	// MaxInFlight caps concurrently executing attempts across all
	// providers. Default 32.
	MaxInFlight int
	// PerCSP caps concurrently executing attempts per provider. Default 4.
	PerCSP int
	// Attempts is how many times a transient failure is tried per
	// provider (1 = no retry). Default 2.
	Attempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff. Default 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth. Default 2s.
	MaxBackoff time.Duration
	// HedgeMultiple scales the expected attempt latency into the hedge
	// trigger delay: a backup download launches after
	// HedgeMultiple x expected. Default 3. Under the load-adaptive
	// controller this is the starting point the per-CSP effective
	// multiple is tuned from.
	HedgeMultiple float64
	// HedgeLoadThreshold is the Ghosh-crossover utilization bound: hedges
	// and redundant race lanes are suppressed once the global admission
	// queue holds HedgeLoadThreshold x MaxInFlight waiting attempts.
	// Past that point a redundant request joins the congestion it is
	// trying to dodge. Default 0.75; negative disables suppression.
	HedgeLoadThreshold float64
	// HedgeMinSamples arms hedging against a provider only after this
	// many successful contacts have fed its latency EWMA — the cold-start
	// guard: an EWMA seeded from one anomalously fast sample would
	// otherwise hedge nearly every request. Default 8; negative arms
	// immediately.
	HedgeMinSamples int
	// HedgePolicy, when set, replaces the closed loop's hedge deadline:
	// HedgeAfter returns its result verbatim, with no arming, suppression
	// or adaptive multiple. nil (the default) is the closed loop, the only
	// built-in policy; the redundancy experiments inject their open-loop
	// baselines (no hedge, fixed delay, multiple of the EWMA) here.
	HedgePolicy HedgePolicy
}

// HedgePolicy maps a provider and the expected latency of one attempt
// against it (0 when unknown) to a hedge trigger delay; 0 means no hedge.
type HedgePolicy func(cspName string, expected time.Duration) time.Duration

// hedgeFloor is the minimum hedge delay: below this, scheduling noise
// (not provider slowness) dominates and hedging would just double load.
const hedgeFloor = 50 * time.Millisecond

func (t Tunables) withDefaults() Tunables {
	if t.MaxInFlight == 0 {
		t.MaxInFlight = 32
	}
	if t.PerCSP == 0 {
		t.PerCSP = 4
	}
	if t.PerCSP > t.MaxInFlight {
		t.PerCSP = t.MaxInFlight
	}
	if t.Attempts == 0 {
		t.Attempts = 2
	}
	if t.BaseBackoff == 0 {
		t.BaseBackoff = 25 * time.Millisecond
	}
	if t.MaxBackoff == 0 {
		t.MaxBackoff = 2 * time.Second
	}
	if t.HedgeMultiple == 0 {
		t.HedgeMultiple = 3
	}
	if t.HedgeLoadThreshold == 0 {
		t.HedgeLoadThreshold = 0.75
	}
	if t.HedgeMinSamples == 0 {
		t.HedgeMinSamples = 8
	}
	return t
}

// Config wires an Engine to its host client.
type Config struct {
	// Runtime supplies concurrency and time; required (core passes its
	// own, so production and netsim runs share this code path).
	Runtime vclock.Runtime
	// Obs receives the engine metrics (queue depth, in-flight gauges,
	// retry and hedge counters) and the per-attempt spans. nil disables
	// instrumentation.
	Obs *obs.Observer
	// Report is called once per finished attempt with the provider name,
	// the operation kind, the outcome, payload bytes, and elapsed time on
	// the Runtime clock — core points this at recordResult, keeping the
	// estimator/scoreboard/bandwidth path identical to the pre-engine
	// code. Optional.
	Report func(cspName, kind string, err error, bytes int64, elapsed time.Duration)
	// Tunables bound scheduling and retries.
	Tunables Tunables
}

// Engine schedules provider attempts. One engine per client; safe for
// concurrent use.
type Engine struct {
	rt     vclock.Runtime
	obs    *obs.Observer
	report func(cspName, kind string, err error, bytes int64, elapsed time.Duration)
	tun    Tunables
	sem    *semaphore
	hedge  *hedgeController
}

// New builds an engine. Config.Runtime is required.
func New(cfg Config) *Engine {
	if cfg.Runtime == nil {
		cfg.Runtime = vclock.Real()
	}
	tun := cfg.Tunables.withDefaults()
	return &Engine{
		rt:     cfg.Runtime,
		obs:    cfg.Obs,
		report: cfg.Report,
		tun:    tun,
		sem:    newSemaphore(cfg.Runtime, cfg.Obs, tun.MaxInFlight, tun.PerCSP),
		hedge:  newHedgeController(tun.HedgeMultiple),
	}
}

// Tunables returns the engine's effective (defaulted) tunables.
func (e *Engine) Tunables() Tunables { return e.tun }

// PeakInFlight returns the highest concurrent in-flight attempt count the
// engine has observed for one provider — the deterministic witness the
// per-CSP cap tests assert on.
func (e *Engine) PeakInFlight(cspName string) int { return e.sem.peakInFlight(cspName) }

// Attempt is one provider contact. Run performs the I/O and returns the
// payload byte count (uploads report the intended payload size even on
// failure, mirroring the pre-engine accounting). Done, when set, is
// invoked after every execution of Run — including retries — with the
// outcome; call sites use it to emit their transfer events.
type Attempt struct {
	CSP  string
	Kind string // one of core's recordResult op identifiers ("upload", "download", ...)
	Run  func(ctx context.Context) (bytes int64, err error)
	Done func(err error, bytes int64, elapsed time.Duration)
}

// ErrRejected marks an attempt whose provider answered with a payload the
// caller refuses, such as a share body longer than its record allows. Like a
// missing object it is a definite answer about the object: the attempt is
// not retried, and the provider is not marked failed.
var ErrRejected = errors.New("transfer: payload rejected")

// Retryable classifies an attempt error: transient provider trouble
// (csp.ErrUnavailable, unclassified transport errors) is worth retrying
// on the same provider; definite answers (missing object, rejected payload,
// bad credentials, full provider, existing object) and context cancellation
// are not.
func Retryable(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, csp.ErrNotFound),
		errors.Is(err, ErrRejected),
		errors.Is(err, csp.ErrUnauthorized),
		errors.Is(err, csp.ErrOverCapacity),
		errors.Is(err, csp.ErrExists):
		return false
	}
	return true
}

// ProviderFault reports whether an attempt error indicts the provider
// (feeding the per-operation failed set). Context cancellation says
// nothing about the provider, and a missing object or a rejected payload is
// a valid answer about one object.
func ProviderFault(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, csp.ErrNotFound),
		errors.Is(err, ErrRejected):
		return false
	}
	return true
}

// Op is one client operation's view of the engine: a cancellable scope, a
// shared failed-provider set, and fan-out helpers. Create with Begin,
// release with Finish.
type Op struct {
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	failed   map[string]bool
	firstErr error
}

// Begin opens an operation scope derived from ctx.
func (e *Engine) Begin(ctx context.Context) *Op {
	cctx, cancel := context.WithCancel(ctx)
	return &Op{e: e, ctx: cctx, cancel: cancel, failed: make(map[string]bool)}
}

// Context returns the operation context; it is cancelled by Fail and
// Finish. Derive spans and pass the result to Do/Gather so attempt spans
// nest correctly.
func (o *Op) Context() context.Context { return o.ctx }

// Finish releases the operation's context resources. Always defer it.
func (o *Op) Finish() { o.cancel() }

// Fail records the operation's first fatal error and cancels the
// operation context, aborting sibling transfers (first-error
// cancellation). Later calls keep the first error.
func (o *Op) Fail(err error) {
	if err == nil {
		return
	}
	o.mu.Lock()
	if o.firstErr == nil {
		o.firstErr = err
	}
	o.mu.Unlock()
	o.cancel()
}

// Err returns the first fatal error recorded by Fail, or nil.
func (o *Op) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.firstErr
}

// MarkFailed adds a provider to the operation's failed set.
func (o *Op) MarkFailed(cspName string) {
	o.mu.Lock()
	o.failed[cspName] = true
	o.mu.Unlock()
}

// Failed reports whether a provider is in the operation's failed set.
func (o *Op) Failed(cspName string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failed[cspName]
}

// Each runs fn(0..n-1) concurrently on the engine's runtime and joins.
// Concurrency of the actual I/O is bounded by the engine's semaphore, not
// by the fan-out width.
func (o *Op) Each(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	g := o.e.rt.NewGroup()
	for i := 0; i < n; i++ {
		i := i
		g.Add(1)
		o.e.rt.Go(func() {
			defer g.Done()
			fn(i)
		})
	}
	g.Wait()
}

// Do executes one attempt under the operation: it skips providers in the
// failed set (ErrSkipped; checked on entry and again under the slot, so an
// attempt that queued behind a failing sibling is not made), acquires the
// per-CSP and global in-flight slots, runs with retry/backoff per the
// engine's policy, reports every try, and on final provider-fault failure
// adds the provider to the failed set before its slot is released. ctx must
// descend from Context() (pass a span-wrapped child for trace nesting).
func (o *Op) Do(ctx context.Context, a Attempt) error {
	_, err := o.do(ctx, a)
	return err
}

// do is Do, also returning the payload bytes of the successful try.
func (o *Op) do(ctx context.Context, a Attempt) (int64, error) {
	if o.Failed(a.CSP) {
		return 0, ErrSkipped
	}
	e := o.e
	var lastErr error
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return 0, lastErr
			}
			return 0, err
		}
		e.sem.acquire(a.CSP)
		if o.Failed(a.CSP) {
			// A sibling's attempt exhausted the provider while this one
			// waited for its slot (or backed off): do not probe it again.
			e.sem.release(a.CSP)
			if lastErr != nil {
				return 0, lastErr
			}
			return 0, ErrSkipped
		}
		sctx, sp := e.obs.Trace(ctx, "csp."+a.Kind)
		e.obs.AttemptStart(sctx, a.CSP, a.Kind, try)
		start := e.rt.Now()
		bytes, err := a.Run(ctx)
		elapsed := e.rt.Now().Sub(start)
		e.obs.AttemptEnd(sctx, a.CSP, a.Kind, try, bytes, elapsed, err)
		sp.End(err)
		final := err != nil && (!Retryable(err) || try+1 >= e.tun.Attempts || ctx.Err() != nil)
		if final && ProviderFault(err) {
			// Marked before the slot is released, so the sibling the
			// release wakes sees the provider failed under its own slot.
			o.MarkFailed(a.CSP)
		}
		e.sem.release(a.CSP)
		if e.report != nil {
			e.report(a.CSP, a.Kind, err, bytes, elapsed)
		}
		if a.Done != nil {
			a.Done(err, bytes, elapsed)
		}
		if err == nil {
			return bytes, nil
		}
		if final {
			return 0, err
		}
		lastErr = err
		e.obs.TransferRetry(ctx, a.CSP, a.Kind)
		e.rt.Sleep(e.backoff(a.CSP, a.Kind, try))
	}
}

// backoff returns the delay before retry number try+1: exponential growth
// from BaseBackoff capped at MaxBackoff, with +/-25% jitter derived from
// a hash of (csp, kind, try) — deterministic, so netsim runs replay
// identically regardless of goroutine interleaving, yet decorrelated
// across providers and shares.
func (e *Engine) backoff(cspName, kind string, try int) time.Duration {
	d := e.tun.BaseBackoff << uint(try)
	if d > e.tun.MaxBackoff || d <= 0 {
		d = e.tun.MaxBackoff
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(cspName))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(kind))
	_, _ = h.Write([]byte{byte(try)})
	frac := float64(h.Sum32()) / float64(math.MaxUint32) // [0, 1]
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}
