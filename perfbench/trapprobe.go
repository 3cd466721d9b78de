package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// The host trap probe measures what the simulator's TrapDispatchCycles
// stands for: a load that faults on a PROT_NONE guard page, turned into a Go
// panic by debug.SetPanicOnFault and recovered, against the same load from a
// readable page. It uses only the standard library.

const (
	probeBatches = 5
	probeFaults  = 4000    // faulting loads per batch
	probeLoads   = 1 << 20 // plain loads per batch
)

type trapProbe struct {
	faultNs, loadNs float64 // median per-load cost over the batches
	batches         int
}

// loadSink keeps the probed loads from being optimized away.
var loadSink byte

// probeLoad reads *p and reports whether the read completed; a fault on the
// guard page is recovered and reported as false.
//
//go:noinline
func probeLoad(p *byte) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	loadSink += *p
	return true
}

func probeTrap() (trapProbe, error) {
	page := os.Getpagesize()
	guard, err := syscall.Mmap(-1, 0, page, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return trapProbe{}, err
	}
	defer syscall.Munmap(guard)
	plain, err := syscall.Mmap(-1, 0, page, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return trapProbe{}, err
	}
	defer syscall.Munmap(plain)

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	time1 := func(p *byte, n int, wantOK bool) (float64, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if probeLoad(p) != wantOK {
				return 0, errors.New("guard page did not fault as expected")
			}
		}
		return float64(time.Since(start)) / float64(n), nil
	}
	var faults, loads []float64
	for b := 0; b < probeBatches; b++ {
		f, err := time1(&guard[0], probeFaults, false)
		if err != nil {
			return trapProbe{}, err
		}
		l, err := time1(&plain[0], probeLoads, true)
		if err != nil {
			return trapProbe{}, err
		}
		faults, loads = append(faults, f), append(loads, l)
	}
	return trapProbe{faultNs: median(faults), loadNs: median(loads), batches: probeBatches}, nil
}
