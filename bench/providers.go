package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/cyrus"
)

const (
	providerCount = 4
	providerToken = "bench-token"
)

// cleanup holds everything that must not outlive the benchmark: child
// processes (providers, the yardstick helper) and temp dirs. main defers run() on every return path and the
// signal handler calls it before exiting.
type cleanup struct {
	mu    sync.Mutex
	procs map[*provider]struct{}
	dirs  []string
}

var janitor = &cleanup{procs: make(map[*provider]struct{})}

func (c *cleanup) addProc(p *provider) {
	c.mu.Lock()
	c.procs[p] = struct{}{}
	c.mu.Unlock()
}

// reap kills one child process and waits until it has ended.
func (c *cleanup) reap(p *provider) {
	c.mu.Lock()
	delete(c.procs, p)
	c.mu.Unlock()
	_ = p.cmd.Process.Kill() // an error means it already exited
	<-p.exited
}

func (c *cleanup) addDir(dir string) {
	c.mu.Lock()
	c.dirs = append(c.dirs, dir)
	c.mu.Unlock()
}

func (c *cleanup) run() {
	c.mu.Lock()
	procs := make([]*provider, 0, len(c.procs))
	for p := range c.procs {
		procs = append(procs, p)
	}
	dirs := c.dirs
	c.dirs = nil
	c.mu.Unlock()
	for _, p := range procs {
		c.reap(p)
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: a temp dir left behind is not a result error
	}
}

// watchSignals reaps providers on SIGINT/SIGTERM, then exits.
func (c *cleanup) watchSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		c.run()
		os.Exit(130)
	}()
}

// repoRoot finds the repository root (the directory holding BENCHMARK.json
// and cmd/cyruscsp) from the working directory, which is either the root
// (the manifest's command) or bench/ (go run . while developing).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cyruscsp", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cmd/cyruscsp not found from %s: run from the repository root or from bench/", wd)
}

// buildProvider compiles ./cmd/cyruscsp into a temp dir the janitor removes.
func buildProvider(root string) (string, error) {
	dir, err := os.MkdirTemp("", "cyrus-bench-")
	if err != nil {
		return "", err
	}
	janitor.addDir(dir)
	bin := filepath.Join(dir, "cyruscsp")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cyruscsp")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cyruscsp: %v\n%s", err, out)
	}
	return bin, nil
}

// provider is one in-memory cyruscsp process on a loopback port. Providers
// keep objects in memory: the benchmark measures the client, and a disk
// under the provider would add a flush policy and device noise to every
// number without exercising any client layer.
type provider struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
}

// freePorts asks the kernel for n unused loopback ports, holding every
// listener until all are chosen so the ports are distinct. cyruscsp does
// not report the port it bound, so the benchmark picks with a :0 listen
// and hands the number over; a provider that loses the port to someone
// else in between exits, and connect reports it.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

func startProvider(bin, name string, port int) (*provider, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-name", name, "-obs=false")
	cmd.Env = append(os.Environ(), "CYRUSCSP_TOKEN="+providerToken)
	p, err := spawn(cmd, name)
	if err != nil {
		return nil, err
	}
	p.url = "http://" + addr
	return p, nil
}

// spawn starts a child process the janitor will kill and wait for on every
// exit path (providers, and the yardstick helper).
func spawn(cmd *exec.Cmd, name string) (*provider, error) {
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &provider{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // killed by reap, or died: either way only the exit matters
		close(p.exited)
	}()
	janitor.addProc(p)
	return p, nil
}

// connect returns an authenticated connector once the provider accepts the
// token; Authenticate doubles as the readiness probe (-obs=false serves no
// /healthz).
func (p *provider) connect(ctx context.Context) (cyrus.Store, error) {
	s := cyrus.NewHTTPStore(p.name, p.url)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := s.Authenticate(ctx, cyrus.Credentials{Token: providerToken})
		if err == nil {
			return s, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("provider %s exited before it was ready (port %s taken?)", p.name, p.url)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("provider %s not ready: %w", p.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cloud is one round's set of providers with an authenticated connector
// each.
type cloud struct {
	providers []*provider
	stores    []cyrus.Store
}

// startCloud spawns the providers and connects to each.
func startCloud(ctx context.Context, bin string) (*cloud, error) {
	ports, err := freePorts(providerCount)
	if err != nil {
		return nil, err
	}
	c := &cloud{}
	for i, port := range ports {
		p, err := startProvider(bin, fmt.Sprintf("csp%d", i), port)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.providers = append(c.providers, p)
	}
	for _, p := range c.providers {
		s, err := p.connect(ctx)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.stores = append(c.stores, s)
	}
	return c, nil
}

func (c *cloud) stop() {
	for _, p := range c.providers {
		janitor.reap(p)
	}
}

// storedBytes sums object sizes over every provider's full listing.
func (c *cloud) storedBytes(ctx context.Context) (int64, error) {
	var total int64
	for _, s := range c.stores {
		objs, err := s.List(ctx, "")
		if err != nil {
			return 0, fmt.Errorf("list %s: %w", s.Name(), err)
		}
		for _, o := range objs {
			total += o.Size
		}
	}
	if total == 0 {
		return 0, errors.New("providers hold no bytes after the write phase")
	}
	return total, nil
}
