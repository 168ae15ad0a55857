//go:build !linux

package main

import "errors"

// SCHED_IDLE is a Linux scheduling class; elsewhere the benchmark runs
// without the keep-awake helper (see keepawake_linux.go).

func keepAwakeMain() int { return fatal(errors.New("keepawake: Linux only")) }

func keepAwake() string { return "off: Linux only" }
