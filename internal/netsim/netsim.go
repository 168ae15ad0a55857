// Package netsim is a deterministic virtual-time network simulator used to
// reproduce CYRUS's latency experiments without a WAN testbed.
//
// The model is a fluid one: every in-flight transfer is a flow; at any
// instant each flow receives the max-min fair share of the capacities it
// traverses (its client↔CSP link cap, the paper's β̄_c, and the client's
// aggregate cap β, shared across parallel connections — paper §4.3). Time
// advances event-to-event: the simulator computes fair rates, finds the
// next flow completion or timer expiry, and jumps the clock there.
//
// Unlike a trace-driven model, netsim runs *real concurrent code* under
// virtual time: goroutines are spawned through Network.Go, block in
// Transfer/RoundTrip/Sleep/Group.Wait, and the clock only advances when
// every registered goroutine is blocked. The CYRUS client's actual upload
// and download paths — including protocol round trips and barrier structure
// — therefore produce the timings, not a re-implementation of them.
//
// Network implements vclock.Runtime, so it is a drop-in replacement for the
// real scheduler/clock used in production.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Direction of a transfer, from the client's point of view.
type Direction int

// Transfer directions.
const (
	Up   Direction = iota // client -> CSP (upload)
	Down                  // CSP -> client (download)
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// LinkConfig describes the path between one client node and one CSP.
type LinkConfig struct {
	RTT     time.Duration // request round-trip latency
	UpBps   float64       // client->CSP bandwidth cap, bytes/second (> 0)
	DownBps float64       // CSP->client bandwidth cap, bytes/second (> 0)
}

// NodeConfig describes a client node's aggregate bandwidth caps shared by
// all its parallel connections; 0 means unconstrained in that direction.
type NodeConfig struct {
	UpBps   float64
	DownBps float64
}

type link struct {
	cfg LinkConfig
}

type node struct {
	cfg   NodeConfig
	links map[string]*link // by CSP name
}

type flow struct {
	node      string
	csp       string
	dir       Direction
	remaining float64
	rate      float64
	done      chan struct{}
}

type timer struct {
	at   float64
	done chan struct{}
}

// Network is the simulator. All exported methods are safe for concurrent
// use by goroutines registered with the network.
type Network struct {
	mu      sync.Mutex
	base    time.Time
	now     float64 // virtual seconds since base
	running int     // registered goroutines not currently blocked
	nodes   map[string]*node
	flows   map[*flow]struct{}
	timers  map[*timer]struct{}
	blocked int // goroutines parked on group waiters (deadlock detection)
}

// New returns an empty network whose virtual clock starts at base.
func New(base time.Time) *Network {
	if base.IsZero() {
		base = time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC) // the paper's trial summer
	}
	return &Network{
		base:   base,
		nodes:  make(map[string]*node),
		flows:  make(map[*flow]struct{}),
		timers: make(map[*timer]struct{}),
	}
}

// AddNode registers a client node.
func (n *Network) AddNode(name string, cfg NodeConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[name]; ok {
		panic(fmt.Sprintf("netsim: node %q already exists", name))
	}
	n.nodes[name] = &node{cfg: cfg, links: make(map[string]*link)}
}

// SetLink creates or updates the link between a node and a CSP. Updating
// caps mid-simulation is allowed and affects all subsequent rate
// computations (used to model time-varying cloud performance).
func (n *Network) SetLink(nodeName, csp string, cfg LinkConfig) {
	if cfg.UpBps <= 0 || cfg.DownBps <= 0 {
		panic(fmt.Sprintf("netsim: link %s<->%s needs positive caps", nodeName, csp))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[nodeName]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown node %q", nodeName))
	}
	if l, ok := nd.links[csp]; ok {
		l.cfg = cfg
		return
	}
	nd.links[csp] = &link{cfg: cfg}
}

// VirtualNow returns the current virtual time in seconds since the base.
func (n *Network) VirtualNow() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// Now implements vclock.Runtime.
func (n *Network) Now() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.base.Add(time.Duration(n.now * float64(time.Second)))
}

// enter registers the calling goroutine as runnable.
func (n *Network) enter() {
	n.mu.Lock()
	n.running++
	n.mu.Unlock()
}

// exitLocked unregisters a goroutine; the last runnable one drives the
// clock forward.
func (n *Network) exit() {
	n.mu.Lock()
	n.running--
	if n.running == 0 {
		n.advanceLocked()
	}
	n.mu.Unlock()
}

// Go implements vclock.Runtime: it spawns fn as a simulated goroutine.
func (n *Network) Go(fn func()) {
	n.enter()
	go func() {
		defer n.exit()
		fn()
	}()
}

// Run executes fn as a registered goroutine and blocks (in real time)
// until it returns. It is the entry point for drivers: code inside fn may
// call Transfer, Sleep, Go, and NewGroup.
func (n *Network) Run(fn func()) {
	done := make(chan struct{})
	n.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

// await parks the calling goroutine until ch is closed. The caller must
// hold n.mu with its event already registered; await releases the lock.
func (n *Network) await(ch chan struct{}) {
	n.running--
	if n.running < 0 {
		panic("netsim: blocking call from a goroutine not registered with the network — enter via Network.Run or Network.Go")
	}
	if n.running == 0 {
		n.advanceLocked()
	}
	n.mu.Unlock()
	<-ch
}

// wakeLocked marks one goroutine runnable and releases it.
func (n *Network) wakeLocked(ch chan struct{}) {
	n.running++
	close(ch)
}

// Sleep implements vclock.Runtime: it suspends the caller for d of virtual
// time.
func (n *Network) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	n.mu.Lock()
	t := &timer{at: n.now + d.Seconds(), done: make(chan struct{})}
	n.timers[t] = struct{}{}
	n.await(t.done)
}

// RoundTrip suspends the caller for the RTT of the node's link to csp,
// modeling one control round trip (e.g. an HTTP request/response).
func (n *Network) RoundTrip(nodeName, csp string) error {
	n.mu.Lock()
	nd, ok := n.nodes[nodeName]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: unknown node %q", nodeName)
	}
	l, ok := nd.links[csp]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: no link %s<->%s", nodeName, csp)
	}
	rtt := l.cfg.RTT
	n.mu.Unlock()
	n.Sleep(rtt)
	return nil
}

// Transfer moves bytes between the node and the CSP in the given
// direction, blocking (in virtual time) until the transfer completes under
// max-min fair bandwidth sharing with all concurrent flows.
func (n *Network) Transfer(nodeName, csp string, dir Direction, bytes int64) error {
	n.mu.Lock()
	nd, ok := n.nodes[nodeName]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: unknown node %q", nodeName)
	}
	if _, ok := nd.links[csp]; !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: no link %s<->%s", nodeName, csp)
	}
	if bytes <= 0 {
		n.mu.Unlock()
		return nil
	}
	f := &flow{node: nodeName, csp: csp, dir: dir, remaining: float64(bytes), done: make(chan struct{})}
	n.flows[f] = struct{}{}
	n.await(f.done)
	return nil
}

// NewGroup implements vclock.Runtime.
func (n *Network) NewGroup() vclock.Group {
	return &simGroup{net: n}
}

// simGroup is a WaitGroup whose Wait parks the goroutine in virtual time.
type simGroup struct {
	net     *Network
	count   int
	waiters []chan struct{}
}

func (g *simGroup) Add(delta int) {
	g.net.mu.Lock()
	defer g.net.mu.Unlock()
	g.count += delta
	if g.count < 0 {
		panic("netsim: negative group counter")
	}
	if g.count == 0 {
		for _, w := range g.waiters {
			g.net.blocked--
			g.net.wakeLocked(w)
		}
		g.waiters = nil
	}
}

func (g *simGroup) Done() { g.Add(-1) }

func (g *simGroup) Wait() {
	g.net.mu.Lock()
	if g.count == 0 {
		g.net.mu.Unlock()
		return
	}
	w := make(chan struct{})
	g.waiters = append(g.waiters, w)
	g.net.blocked++
	g.net.await(w)
}

// advanceLocked moves the virtual clock to the next event and wakes its
// owners. It loops until at least one goroutine is runnable or the network
// is quiescent. Caller holds n.mu.
func (n *Network) advanceLocked() {
	for n.running == 0 {
		if len(n.flows) == 0 && len(n.timers) == 0 {
			if n.blocked > 0 {
				panic("netsim: deadlock — goroutines wait on groups but no flows or timers are pending\n" + n.stateLocked())
			}
			return // quiescent
		}
		n.computeRatesLocked()

		next := math.Inf(1)
		for f := range n.flows {
			if f.rate <= 0 {
				panic("netsim: flow with zero rate\n" + n.stateLocked())
			}
			if t := n.now + f.remaining/f.rate; t < next {
				next = t
			}
		}
		for t := range n.timers {
			if t.at < next {
				next = t.at
			}
		}
		dt := next - n.now
		if dt < 0 {
			dt = 0
		}
		for f := range n.flows {
			f.remaining -= f.rate * dt
		}
		n.now = next

		const doneEps = 1e-6 // bytes
		for f := range n.flows {
			if f.remaining <= doneEps {
				delete(n.flows, f)
				n.wakeLocked(f.done)
			}
		}
		for t := range n.timers {
			if t.at <= n.now+1e-12 {
				delete(n.timers, t)
				n.wakeLocked(t.done)
			}
		}
	}
}

// computeRatesLocked assigns each active flow its max-min fair rate via
// progressive filling over link capacities and client aggregate caps.
func (n *Network) computeRatesLocked() {
	if len(n.flows) == 0 {
		return
	}
	type resource struct {
		cap      float64
		residual float64
		flows    []*flow
		active   int
	}
	resources := make(map[string]*resource)
	res := func(key string, cap float64) *resource {
		r, ok := resources[key]
		if !ok {
			r = &resource{cap: cap, residual: cap}
			resources[key] = r
		}
		return r
	}

	flowRes := make(map[*flow][]*resource, len(n.flows))
	for f := range n.flows {
		f.rate = 0
		l := n.nodes[f.node].links[f.csp]
		var linkCap float64
		if f.dir == Up {
			linkCap = l.cfg.UpBps
		} else {
			linkCap = l.cfg.DownBps
		}
		rs := []*resource{res("link/"+f.node+"/"+f.csp+"/"+f.dir.String(), linkCap)}
		nodeCap := n.nodes[f.node].cfg.UpBps
		if f.dir == Down {
			nodeCap = n.nodes[f.node].cfg.DownBps
		}
		if nodeCap > 0 {
			rs = append(rs, res("node/"+f.node+"/"+f.dir.String(), nodeCap))
		}
		for _, r := range rs {
			r.flows = append(r.flows, f)
			r.active++
		}
		flowRes[f] = rs
	}

	frozen := make(map[*flow]bool, len(n.flows))
	remaining := len(n.flows)
	for remaining > 0 {
		// Smallest per-flow headroom across resources with active flows.
		inc := math.Inf(1)
		for _, r := range resources {
			if r.active > 0 {
				if h := r.residual / float64(r.active); h < inc {
					inc = h
				}
			}
		}
		if math.IsInf(inc, 1) {
			panic("netsim: unconstrained flows\n" + n.stateLocked())
		}
		if inc > 0 {
			for f := range n.flows {
				if !frozen[f] {
					f.rate += inc
				}
			}
			for _, r := range resources {
				r.residual -= inc * float64(r.active)
			}
		}
		// Freeze flows on saturated resources.
		progressed := false
		for _, r := range resources {
			if r.active > 0 && r.residual <= 1e-9*r.cap {
				for _, f := range r.flows {
					if frozen[f] {
						continue
					}
					frozen[f] = true
					remaining--
					progressed = true
					for _, fr := range flowRes[f] {
						fr.active--
					}
				}
			}
		}
		if !progressed {
			panic("netsim: progressive filling made no progress\n" + n.stateLocked())
		}
	}
}

// stateLocked renders diagnostics for panics.
func (n *Network) stateLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.3fs running=%d blocked=%d flows=%d timers=%d\n",
		n.now, n.running, n.blocked, len(n.flows), len(n.timers))
	var lines []string
	for f := range n.flows {
		lines = append(lines, fmt.Sprintf("  flow %s<->%s %s remaining=%.0fB rate=%.0fB/s", f.node, f.csp, f.dir, f.remaining, f.rate))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	return b.String()
}

var _ vclock.Runtime = (*Network)(nil)
