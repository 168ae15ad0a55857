// Package lifecycle implements the storage-class lifecycle migrator, which
// demotes idle objects into colder classes (DESIGN.md §13). It keeps no
// state of its own: a name is due for demotion exactly when its live head is
// in a class with a DemoteAfter/DemoteTo rule and has sat unmodified past
// the TTL, and the version tree already says both. Each Run derives its work
// from the tree and re-encodes every due name through
// core.Client.ReencodeClass, which publishes a new version only after every
// share of the new encoding is stored and never deletes the source copies.
//
// Crash safety needs no checkpoint: a demotion that failed or was cut short
// left the head in its source class, so the next Run finds it again, and
// re-encoding a name whose crashed attempt already stored some shares reuses
// them (scatter is idempotent). Concurrency is bounded by Workers; each
// worker drives the client's transfer engine, which enforces its own
// in-flight caps underneath.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Config tunes a lifecycle pass.
type Config struct {
	// Client is the CYRUS client whose namespace is scanned and whose
	// machinery re-encodes. Required; the client must be configured with
	// the classes the lifecycle rules name.
	Client *core.Client
	// Workers bounds concurrent re-encodes. Default 2: demotion is
	// background work and must not monopolize the transfer engine's
	// in-flight slots against foreground traffic.
	Workers int
	// Runtime supplies concurrency and time. Default: the real clock.
	Runtime vclock.Runtime
	// Obs receives the lifecycle metric families. nil disables.
	Obs *obs.Observer
}

// demotion is one name due for re-encoding into a colder class.
type demotion struct {
	name, target string
}

// Run makes one lifecycle pass: every live head of the client's local
// replica whose class has a demotion rule and that has been idle past the
// class TTL is re-encoded into the rule's DemoteTo class, in name order and
// in waves of Workers. It reads the rules from ClassStats, so every pass also
// refreshes the cyrus_class_* gauges; callers wanting a cloud-fresh view
// should Sync the client first. migrated counts the re-encodes that
// published a version and failed the ones that returned an error. A pass
// that ctx ends early returns ctx's error; the names it did not reach are
// still in their source class, and the next pass picks them up.
func Run(ctx context.Context, cfg Config) (migrated, failed int, err error) {
	if cfg.Client == nil {
		return 0, 0, errors.New("lifecycle: Config.Client is required")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Workers < 1 {
		return 0, 0, fmt.Errorf("lifecycle: Workers=%d", cfg.Workers)
	}
	if cfg.Runtime == nil {
		cfg.Runtime = vclock.Real()
	}
	due, err := dueDemotions(cfg)
	if err != nil {
		return 0, 0, err
	}
	// Waves of Workers re-encodes, joined through Runtime groups — never raw
	// channels — so the identical code runs under netsim virtual time.
	var mu sync.Mutex
	for i := 0; i < len(due) && ctx.Err() == nil; i += cfg.Workers {
		g := cfg.Runtime.NewGroup()
		for _, d := range due[i:min(i+cfg.Workers, len(due))] {
			g.Add(1)
			cfg.Runtime.Go(func() {
				defer g.Done()
				changed, err := demote(ctx, cfg, d)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					failed++
				} else if changed {
					migrated++
				}
			})
		}
		g.Wait()
	}
	return migrated, failed, ctx.Err()
}

// dueDemotions lists the local namespace (sorted by name) and keeps every
// live head whose class demotes and whose last modification is older than
// the class TTL.
func dueDemotions(cfg Config) ([]demotion, error) {
	classes := cfg.Client.ClassStats()
	infos, err := cfg.Client.ListLocal("")
	if err != nil {
		return nil, err
	}
	now := cfg.Runtime.Now()
	var due []demotion
	for _, fi := range infos {
		cls := classes[fi.Class].Class
		if cls.DemoteAfter <= 0 || cls.DemoteTo == "" || fi.Class == cls.DemoteTo {
			continue
		}
		if now.Sub(fi.Modified) < cls.DemoteAfter {
			continue
		}
		due = append(due, demotion{name: fi.Name, target: cls.DemoteTo})
	}
	return due, nil
}

// demote re-encodes one name and records the outcome. A name deleted since
// the listing is skipped: there is nothing left to demote.
func demote(ctx context.Context, cfg Config, d demotion) (changed bool, err error) {
	fi, err := cfg.Client.StatLocal(d.name)
	if err != nil || fi.Deleted {
		return false, nil
	}
	changed, err = cfg.Client.ReencodeClass(ctx, d.name, d.target)
	if err != nil {
		cfg.Obs.LifecycleFailure()
		return false, err
	}
	if changed {
		cfg.Obs.LifecycleMigration(fi.Size)
	}
	return changed, nil
}
