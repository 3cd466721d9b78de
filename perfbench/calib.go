package main

import (
	"sort"
	"time"
)

// Host-speed calibration.
//
// The host this benchmark runs on is shared: a neighbour's load can slow
// every op by a third or more for seconds or minutes at a time, which moves
// wall-clock metrics far more than most changes to the program would. So
// every host-time metric is reported at a fixed reference host speed. A
// small kernel, self-contained and independent of the code under test, is
// timed every calEvery between ops; an op's wall time is multiplied by
// calRefNs over the median kernel time within calWindow of the op. A change
// to the program moves its op times and not the kernel's, so it shows in
// full; a slow host moves both, and the ratio holds.
//
// The kernel is an interpreter-like loop: a seeded switch over random
// reads and writes of a 256 KiB table, which resembles the closure engine
// and the compiler's table-heavy passes more than a pure ALU loop does. It
// does not allocate, so the program's garbage collection is not charged to
// it.

const (
	calEvery  = 20 * time.Millisecond
	calWindow = 500 * time.Millisecond
	calIters  = 20000
	// calRefNs is the kernel's median time on the reference host, a 2-vCPU
	// 2.0 GHz Xeon VM: a metric in reference units equals the wall value
	// there when the host is quiet.
	calRefNs = 360000
)

// calSample is one timing of the kernel.
type calSample struct {
	at time.Duration // since the calibrator's origin, at the kernel's midpoint
	ns float64
}

// calibrator times the kernel between ops and turns wall intervals into
// reference time. It is used by one goroutine.
type calibrator struct {
	origin  time.Time
	last    time.Time
	spent   time.Duration // total time in the kernel
	samples []calSample   // in time order
	table   []int64
	state   uint64
}

func newCalibrator(origin time.Time) *calibrator {
	c := &calibrator{origin: origin, table: make([]int64, 1<<15), state: 1}
	c.sample()
	return c
}

// maybe times the kernel if calEvery has passed since the last timing. A
// nil calibrator does nothing.
func (c *calibrator) maybe() {
	if c != nil && time.Since(c.last) >= calEvery {
		c.sample()
	}
}

func (c *calibrator) sample() {
	t0 := time.Now()
	c.kernel()
	d := time.Since(t0)
	c.spent += d
	c.last = time.Now()
	c.samples = append(c.samples, calSample{at: t0.Sub(c.origin) + d/2, ns: float64(d)})
}

func (c *calibrator) kernel() {
	t := c.table
	m := len(t) - 1
	x := c.state
	for k := 0; k < calIters; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		i := int(x>>20) & m
		switch (x >> 40) & 3 {
		case 0:
			t[i] += int64(k)
		case 1:
			t[i] ^= t[(i+97)&m]
		case 2:
			if t[i] > 0 {
				t[i] -= 7
			} else {
				t[i] += 11
			}
		default:
			t[(i*7)&m] += t[i] >> 1
		}
	}
	c.state = x
}

// scale is the factor that turns wall time spent between from and to into
// reference time: calRefNs over the median kernel time within calWindow of
// the interval, or over all samples' median if none lie that close.
func (c *calibrator) scale(from, to time.Time) float64 {
	lo := from.Sub(c.origin) - calWindow
	hi := to.Sub(c.origin) + calWindow
	i := sort.Search(len(c.samples), func(k int) bool { return c.samples[k].at >= lo })
	j := sort.Search(len(c.samples), func(k int) bool { return c.samples[k].at > hi })
	if i >= j {
		i, j = 0, len(c.samples)
	}
	ns := make([]float64, 0, j-i)
	for _, s := range c.samples[i:j] {
		ns = append(ns, s.ns)
	}
	return calRefNs / median(ns)
}

// medianNs is the median kernel time over all samples.
func (c *calibrator) medianNs() float64 {
	ns := make([]float64, len(c.samples))
	for k, s := range c.samples {
		ns[k] = s.ns
	}
	return median(ns)
}

// spentTime is the total time spent in the kernel so far.
func (c *calibrator) spentTime() time.Duration {
	if c == nil {
		return 0
	}
	return c.spent
}
