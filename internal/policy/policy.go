// Package policy implements CYRUS storage classes and the per-object class
// resolution engine (ROADMAP item 4; DESIGN.md §13).
//
// A storage class bundles one client-defined trade-off point between
// privacy, reliability, cost, and speed: a CSP subset to scatter to,
// per-class (t, n) or an Epsilon reliability bound, chunking parameters,
// a tier label, and an optional lifecycle rule (demote to a colder class
// after an idle TTL). The engine resolves the class for each object with
// explicit precedence:
//
//	per-request override  >  longest matching per-prefix rule  >  default
//
// The default class is the empty name "": it means "exactly the client's
// pre-class behavior" — client-level (t, n)/Epsilon, all providers, the
// client chunker — and is what every record written before storage classes
// existed implicitly belongs to. Resolution is pure and deterministic: the
// same (name, override) against the same engine always yields the same
// class, so concurrent clients sharing one configuration agree on
// placement without coordination.
package policy

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chunker"
)

// Tier labels. Tiers are descriptive (they drive reporting and the
// lifecycle scanner's defaults), not behavioral: all behavior lives in the
// class's explicit knobs.
const (
	TierHot  = "hot"
	TierCold = "cold"
)

// Class is one storage class definition.
type Class struct {
	// Name identifies the class in rules, per-request overrides, and the
	// per-chunk metadata. "" is reserved for the implicit default class.
	Name string `json:"name"`
	// Tier is TierHot or TierCold (default TierHot).
	Tier string `json:"tier,omitempty"`
	// T is the per-class privacy level; 0 inherits the client's T.
	T int `json:"t,omitempty"`
	// N is the per-class share count; 0 derives it from Epsilon (the
	// client's Epsilon when this one is zero too) over the class's CSP
	// pool. A named class never inherits the client's N.
	N int `json:"n,omitempty"`
	// Epsilon is the per-class reliability bound used to derive N when N
	// is zero.
	Epsilon float64 `json:"epsilon,omitempty"`
	// CSPs restricts chunk shares to this provider subset; empty = all
	// providers the client has.
	CSPs []string `json:"csps,omitempty"`
	// MetaCSPs dedicates metadata-record placement to this provider
	// subset (the ROADMAP item 3 headroom); empty = the client's normal
	// metadata placement (all providers or the MetaShards ring).
	MetaCSPs []string `json:"meta_csps,omitempty"`
	// Chunking overrides the client's chunking parameters for fresh
	// writes in this class; a zero value inherits the client chunker.
	Chunking chunker.Config `json:"chunking"`
	// DemoteAfter is the idle TTL before the lifecycle migrator demotes
	// an object of this class; 0 = never demote.
	DemoteAfter time.Duration `json:"demote_after,omitempty"`
	// DemoteTo names the class demoted objects are re-encoded into.
	DemoteTo string `json:"demote_to,omitempty"`
}

// HasChunking reports whether the class overrides the client chunker.
func (c Class) HasChunking() bool { return c.Chunking.AverageSize > 0 }

// Rule maps an object-name prefix to a class.
type Rule struct {
	Prefix string `json:"prefix"`
	Class  string `json:"class"`
}

// Engine resolves storage classes for object names.
type Engine struct {
	classes map[string]Class
	rules   []Rule // longest prefix first; ties by definition order
	def     string
}

// NewEngine validates the configuration and builds a resolution engine.
// The default class name "" (the implicit pre-class behavior) is always
// known; defaultClass may name a configured class instead.
func NewEngine(classes []Class, rules []Rule, defaultClass string) (*Engine, error) {
	e := &Engine{classes: make(map[string]Class, len(classes)), def: defaultClass}
	for _, c := range classes {
		if c.Name == "" {
			return nil, fmt.Errorf("policy: class name %q is reserved for the default class", c.Name)
		}
		if strings.ContainsRune(c.Name, 0) {
			return nil, fmt.Errorf("policy: class name contains NUL")
		}
		if _, dup := e.classes[c.Name]; dup {
			return nil, fmt.Errorf("policy: duplicate class %q", c.Name)
		}
		switch c.Tier {
		case "":
			c.Tier = TierHot
		case TierHot, TierCold:
		default:
			return nil, fmt.Errorf("policy: class %q: unknown tier %q", c.Name, c.Tier)
		}
		if c.T < 0 || c.N < 0 || (c.T > 0 && c.N > 0 && c.N < c.T) {
			return nil, fmt.Errorf("policy: class %q: bad (t,n)=(%d,%d)", c.Name, c.T, c.N)
		}
		if c.Epsilon < 0 || c.Epsilon >= 1 {
			return nil, fmt.Errorf("policy: class %q: Epsilon=%g, want 0 < Epsilon < 1 (0 inherits)", c.Name, c.Epsilon)
		}
		if c.DemoteAfter < 0 {
			return nil, fmt.Errorf("policy: class %q: negative DemoteAfter", c.Name)
		}
		if c.DemoteAfter > 0 && c.DemoteTo == "" {
			return nil, fmt.Errorf("policy: class %q: DemoteAfter set without DemoteTo", c.Name)
		}
		if c.DemoteTo == c.Name && c.Name != "" {
			return nil, fmt.Errorf("policy: class %q demotes to itself", c.Name)
		}
		e.classes[c.Name] = c
	}
	for _, c := range classes {
		if c.DemoteTo != "" {
			if _, ok := e.classes[c.DemoteTo]; !ok {
				return nil, fmt.Errorf("policy: class %q demotes to unknown class %q", c.Name, c.DemoteTo)
			}
		}
	}
	// A demotion chain must end: each demotion resets the object's idle
	// time, so on a cycle every lifecycle pass would re-encode its objects
	// round it forever.
	for _, c := range classes {
		next := c.DemoteTo
		for hops := 0; next != "" && hops < len(classes); hops++ {
			if next == c.Name {
				return nil, fmt.Errorf("policy: class %q: demotion cycle back to itself", c.Name)
			}
			next = e.classes[next].DemoteTo
		}
	}
	if defaultClass != "" {
		if _, ok := e.classes[defaultClass]; !ok {
			return nil, fmt.Errorf("policy: default class %q not configured", defaultClass)
		}
	}
	for i, r := range rules {
		if r.Prefix == "" {
			return nil, fmt.Errorf("policy: rule %d: empty prefix (set the default class instead)", i)
		}
		if _, ok := e.classes[r.Class]; !ok && r.Class != "" {
			return nil, fmt.Errorf("policy: rule %q -> unknown class %q", r.Prefix, r.Class)
		}
	}
	// Longest prefix first so Resolve can take the first match; the sort is
	// stable, so equal-length prefixes keep their definition order.
	e.rules = append([]Rule(nil), rules...)
	sort.SliceStable(e.rules, func(i, j int) bool {
		return len(e.rules[i].Prefix) > len(e.rules[j].Prefix)
	})
	return e, nil
}

// Resolve picks the storage class for an object, with precedence
// per-request override > longest matching prefix rule > default class.
// An override naming an unconfigured class is an error (a typo must not
// silently fall back to a different redundancy level).
func (e *Engine) Resolve(name, override string) (Class, error) {
	if override != "" {
		c, ok := e.Class(override)
		if !ok {
			return Class{}, fmt.Errorf("policy: unknown class override %q", override)
		}
		return c, nil
	}
	if e != nil {
		for _, r := range e.rules {
			if strings.HasPrefix(name, r.Prefix) {
				c, _ := e.Class(r.Class)
				return c, nil
			}
		}
	}
	c, _ := e.Class(e.DefaultClass())
	return c, nil
}

// Class returns a configured class by name. The default name "" always
// resolves to the zero Class (pre-class client behavior).
func (e *Engine) Class(name string) (Class, bool) {
	if name == "" {
		return Class{Tier: TierHot}, true
	}
	if e == nil {
		return Class{}, false
	}
	c, ok := e.classes[name]
	return c, ok
}

// Classes returns the configured classes sorted by name.
func (e *Engine) Classes() []Class {
	if e == nil {
		return nil
	}
	out := make([]Class, 0, len(e.classes))
	for _, c := range e.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Rules returns the resolution rules, longest prefix first.
func (e *Engine) Rules() []Rule {
	if e == nil {
		return nil
	}
	return append([]Rule(nil), e.rules...)
}

// DefaultClass returns the name of the class objects fall into when no
// override or rule applies.
func (e *Engine) DefaultClass() string {
	if e == nil {
		return ""
	}
	return e.def
}
