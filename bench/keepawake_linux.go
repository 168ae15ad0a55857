package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The sandbox is a 2-vCPU guest on a shared host. A vCPU with nothing to
// run halts, and waking a halted vCPU is the host's job: how long it takes,
// and what it costs in guest CPU time, depends on what the host's other
// guests are doing and shifts by 20-40% for seconds to minutes at a time.
// A client that waits on loopback round trips halts and wakes thousands of
// times a second, so those shifts were most of the benchmark's run-to-run
// spread (namespace_sync read_p50_ms: 22% interquartile over median in ten
// runs, against 9% in ten runs interleaved with them that kept the vCPUs
// awake; the driver refused the first version at 21-32%).
//
// So for the length of a run a helper process (this binary, `bench
// keepawake`) spins one thread per CPU in the SCHED_IDLE class. The kernel
// runs such a thread only when the CPU would otherwise idle and preempts it
// the moment anything else wakes, so it takes no CPU time from the client or
// the providers; it only keeps the vCPU from halting. It is the guest-side
// equivalent of benchmarking with idle=poll. Client CPU is getrusage of the
// benchmark process, so the spinning is in none of the numbers.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// keepAwakeMain is the helper process. It ends when its standard input
// does, so it cannot outlive the benchmark, and it never spins in the
// normal scheduling class: a thread that cannot enter SCHED_IDLE ends the
// helper instead.
func keepAwakeMain() int {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // the spinners never give up theirs
	entered := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			// pid 0: the calling thread.
			if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				entered <- fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
				return
			}
			entered <- nil
			for {
			}
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-entered; err != nil {
			return fatal(err)
		}
	}
	fmt.Println("ready")
	eof := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin) // returns when the benchmark closes the pipe or dies
		close(eof)
	}()
	<-eof
	return 0
}

// keepAwake starts the helper for the rest of the process's life; the
// janitor kills and reaps it on every exit path. The returned word goes
// into the report's env block.
func keepAwake() string {
	self, err := os.Executable()
	if err != nil {
		return "off: " + err.Error()
	}
	cmd := exec.Command(self, "keepawake")
	cmd.Stderr = os.Stderr
	if _, err := cmd.StdinPipe(); err != nil { // held open until this process ends
		return "off: " + err.Error()
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "off: " + err.Error()
	}
	helper, err := spawn(cmd, "keepawake")
	if err != nil {
		return "off: " + err.Error()
	}
	if line, _ := bufio.NewReader(out).ReadString('\n'); line != "ready\n" {
		janitor.reap(helper) // it said why on standard error
		return "off: helper did not start"
	}
	return fmt.Sprintf("%d SCHED_IDLE spinners", runtime.NumCPU())
}
