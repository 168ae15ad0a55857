// Package lifecycle implements the storage-class lifecycle migrator: a
// resumable background job queue that demotes idle objects into colder
// classes (DESIGN.md §13). The scan is policy-driven — a class with
// DemoteAfter/DemoteTo marks its objects for demotion once they sit
// unmodified past the TTL — and each job re-encodes one object through
// core.Client.ReencodeClass, which publishes a new version only after every
// share of the new encoding is stored and never deletes the source copies.
//
// Crash safety: jobs checkpoint to a pluggable State store before and after
// the re-encode. A migrator restarted over the same State re-enqueues every
// unfinished job; re-running a job that actually completed is a cheap no-op
// (ReencodeClass sees the head already in the target class), and re-running
// one that crashed mid-scatter reuses whatever shares already landed
// (scatter is idempotent). Concurrency is bounded by Workers; each worker
// drives the client's transfer engine, which enforces its own in-flight
// caps underneath.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Job is one pending demotion.
type Job struct {
	Name   string    `json:"name"`   // object name
	From   string    `json:"from"`   // class at enqueue time (informational)
	Target string    `json:"target"` // class to re-encode into
	Queued time.Time `json:"queued"`
}

// State persists the pending-job set across crashes. Implementations must
// tolerate Save/Clear for names they have never seen.
type State interface {
	// Load returns every job checkpointed and not yet cleared.
	Load() ([]Job, error)
	// Save checkpoints a job (idempotent per name).
	Save(j Job) error
	// Clear removes a completed (or abandoned) job by object name.
	Clear(name string) error
}

// Config tunes a Migrator.
type Config struct {
	// Client is the CYRUS client whose namespace is scanned and whose
	// machinery re-encodes. Required; the client must be configured with
	// the classes the lifecycle rules name.
	Client *core.Client
	// State checkpoints the job queue. Default: in-memory (no crash
	// resume).
	State State
	// Workers bounds concurrent re-encodes. Default 2: demotion is
	// background work and must not monopolize the transfer engine's
	// in-flight slots against foreground traffic.
	Workers int
	// Runtime supplies concurrency and time. Default: the real clock.
	Runtime vclock.Runtime
	// Obs receives the lifecycle metric families. nil disables.
	Obs *obs.Observer
}

// Migrator scans for demotable objects and drains the job queue.
type Migrator struct {
	client  *core.Client
	state   State
	workers int
	rt      vclock.Runtime
	obs     *obs.Observer

	mu      sync.Mutex
	pending map[string]Job // keyed by object name
}

// New builds a migrator. Jobs already checkpointed in cfg.State are
// re-enqueued immediately — this is the crash-resume path.
func New(cfg Config) (*Migrator, error) {
	if cfg.Client == nil {
		return nil, errors.New("lifecycle: Config.Client is required")
	}
	if cfg.State == nil {
		cfg.State = NewMemState()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("lifecycle: Workers=%d", cfg.Workers)
	}
	if cfg.Runtime == nil {
		cfg.Runtime = vclock.Real()
	}
	m := &Migrator{
		client:  cfg.Client,
		state:   cfg.State,
		workers: cfg.Workers,
		rt:      cfg.Runtime,
		obs:     cfg.Obs,
		pending: make(map[string]Job),
	}
	jobs, err := cfg.State.Load()
	if err != nil {
		return nil, fmt.Errorf("lifecycle: loading checkpoints: %w", err)
	}
	for _, j := range jobs {
		m.pending[j.Name] = j
	}
	m.publishDepth()
	return m, nil
}

// Pending returns the queued jobs, sorted by object name.
func (m *Migrator) Pending() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.pending))
	for _, j := range m.pending {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (m *Migrator) publishDepth() {
	m.mu.Lock()
	n := len(m.pending)
	m.mu.Unlock()
	m.obs.LifecycleQueueDepth(n)
}

// Scan walks the local namespace and enqueues (and checkpoints) a job for
// every live object whose class has a lifecycle rule and whose head has
// been idle past the class TTL. It reads the class definitions from
// ClassStats, so every Scan also refreshes the cyrus_class_* gauges. Callers
// wanting a cloud-fresh view should Sync the client first. Returns the
// number of newly enqueued jobs.
func (m *Migrator) Scan(ctx context.Context) (int, error) {
	classes := m.client.ClassStats()
	infos, err := m.client.ListLocal("")
	if err != nil {
		return 0, err
	}
	now := m.rt.Now()
	added := 0
	for _, fi := range infos {
		if err := ctx.Err(); err != nil {
			return added, err
		}
		cls := classes[fi.Class].Class
		if cls.DemoteAfter <= 0 || cls.DemoteTo == "" || fi.Class == cls.DemoteTo {
			continue
		}
		if now.Sub(fi.Modified) < cls.DemoteAfter {
			continue
		}
		j := Job{Name: fi.Name, From: fi.Class, Target: cls.DemoteTo, Queued: now}
		m.mu.Lock()
		_, dup := m.pending[j.Name]
		if !dup {
			m.pending[j.Name] = j
		}
		m.mu.Unlock()
		if dup {
			continue
		}
		// Checkpoint before any work: a crash between here and the job's
		// completion re-enqueues it on restart.
		if err := m.state.Save(j); err != nil {
			return added, fmt.Errorf("lifecycle: checkpoint %q: %w", j.Name, err)
		}
		added++
	}
	m.publishDepth()
	return added, nil
}

// Run drains the current job queue with bounded concurrency and returns
// once every job has been attempted. Failed jobs stay checkpointed and
// queued for the next Run — transient provider trouble must not lose a
// demotion. Returns (migrated, failed).
func (m *Migrator) Run(ctx context.Context) (migrated, failed int) {
	jobs := m.Pending()
	if len(jobs) == 0 {
		return 0, 0
	}
	// Waves of Workers jobs, joined through Runtime groups — never raw
	// channels — so the identical code runs under netsim virtual time.
	var mu sync.Mutex
	for i := 0; i < len(jobs) && ctx.Err() == nil; i += m.workers {
		end := i + m.workers
		if end > len(jobs) {
			end = len(jobs)
		}
		g := m.rt.NewGroup()
		for _, j := range jobs[i:end] {
			j := j
			g.Add(1)
			m.rt.Go(func() {
				defer g.Done()
				ok := m.runJob(ctx, j)
				mu.Lock()
				if ok {
					migrated++
				} else {
					failed++
				}
				mu.Unlock()
			})
		}
		g.Wait()
		m.publishDepth()
	}
	return migrated, failed
}

// runJob executes one demotion end to end and reports success. The
// checkpoint is cleared only after the re-encode returned — never before —
// so a crash anywhere inside leaves the job queued. A checkpoint that
// cannot be cleared fails the job the same way: it stays queued, and the
// next Run finds the head already in the target class (a no-op re-encode)
// and clears it then.
func (m *Migrator) runJob(ctx context.Context, j Job) bool {
	fi, err := m.client.StatLocal(j.Name)
	if err == nil && !fi.Deleted {
		changed, rerr := m.client.ReencodeClass(ctx, j.Name, j.Target)
		if rerr != nil {
			m.obs.LifecycleFailure()
			return false
		}
		if changed {
			m.obs.LifecycleMigration(fi.Size)
		}
	}
	// Deleted or vanished objects drop out of the queue silently — there
	// is nothing left to demote.
	if err := m.state.Clear(j.Name); err != nil {
		m.obs.LifecycleFailure()
		return false
	}
	m.mu.Lock()
	delete(m.pending, j.Name)
	m.mu.Unlock()
	return true
}
