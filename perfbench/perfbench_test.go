package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"trapnull/internal/rt"
)

// runQuick runs one workload through run() with the shortest timed
// loop the sample minimum allows.
func runQuick(t *testing.T, workload string, seed int64, trace bool, workers int) *result {
	t.Helper()
	cfg := config{
		workload: workload, seed: seed, seconds: 0.001, trace: trace, workers: workers,
		spans: filepath.Join(t.TempDir(), "spans.json"),
	}
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", workload, seed, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// exactMetrics are the metrics that must repeat bit for bit: simulated
// cycles, and per-layer counts and ratios of counts taken from the warm-up
// pass. gc.count and jit.allocs_per_compile are host measurements.
func exactMetrics(res *result) map[string]float64 {
	out := make(map[string]float64)
	for name, m := range res.Metrics {
		switch {
		case name == "sim_cycles", name == "steady_sim_cycles":
		case name == "gc.count", name == "jit.allocs_per_compile":
			continue
		case m.Unit == "count":
		case name == "cache.hit_ratio", strings.HasPrefix(name, "attr."), name == "trap.model_ratio":
		default:
			continue
		}
		out[name] = m.Value
	}
	return out
}

// TestExactMetricsRepeat: for a fixed seed the exact metrics are identical
// across two runs and across one worker and one per CPU.
func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range workloadNames {
		if testing.Short() && w == "paper_full" {
			continue
		}
		for _, trace := range []bool{false, true} {
			first := exactMetrics(runQuick(t, w, 7, trace, 1))
			if len(first) == 0 {
				t.Fatalf("%s trace=%v: no exact metrics", w, trace)
			}
			again := exactMetrics(runQuick(t, w, 7, trace, 1))
			wide := exactMetrics(runQuick(t, w, 7, trace, runtime.NumCPU()))
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s trace=%v: second run differs:\n%v\n%v", w, trace, first, again)
			}
			if !reflect.DeepEqual(first, wide) {
				t.Errorf("%s trace=%v: %d workers differ from 1:\n%v\n%v", w, trace, runtime.NumCPU(), first, wide)
			}
		}
	}
}

// TestSeedChangesInputsNotNames: another seed draws other random programs
// and another SeededBurst storm, and reports the same metrics.
func TestSeedChangesInputsNotNames(t *testing.T) {
	for _, w := range []string{"compile_churn", "adaptive_storm"} {
		a, err := buildOps(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildOps(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d ops for seed 1, %d for seed 2", w, len(a), len(b))
		}
		differ := 0
		for i := range a {
			if a[i].name != b[i].name || a[i].want != b[i].want {
				differ++
			}
		}
		if differ == 0 {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", w)
		}
		for _, trace := range []bool{false, true} {
			na, nb := metricNames(runQuick(t, w, 1, trace, 1)), metricNames(runQuick(t, w, 2, trace, 1))
			if !reflect.DeepEqual(na, nb) {
				t.Errorf("%s trace=%v: metric names differ across seeds:\n%v\n%v", w, trace, na, nb)
			}
		}
	}
}

func metricNames(res *result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestPaperCellsMatchBaseline: compile_churn's 170 paper cells reproduce the
// per-cell cycles of the checked-in quick-size baseline exactly.
func TestPaperCellsMatchBaseline(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Matrices map[string][]struct {
			Workload string `json:"workload"`
			Config   string `json:"config"`
			Cycles   int64  `json:"cycles"`
		} `json:"matrices"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	prefix := map[string]string{"windows": "ia32-win", "aix": "ppc-aix"}
	want := make(map[string]int64)
	for matrix, cells := range base.Matrices {
		model := prefix[strings.SplitN(matrix, "_", 2)[0]]
		for _, c := range cells {
			want[model+"/"+c.Config+"/"+c.Workload] = c.Cycles
		}
	}
	ops := paperCells(true)
	if len(ops) != 170 || len(want) != 170 {
		t.Fatalf("%d paper cells, %d baseline cells; want 170 of each", len(ops), len(want))
	}
	mismatches := 0
	for _, o := range ops {
		res := o.run(runOpts{})
		if res.err != nil {
			t.Errorf("%s: %v", o.name, res.err)
			continue
		}
		w, ok := want[o.name]
		if !ok || res.cycles != w {
			mismatches++
			t.Errorf("%s: %d cycles, baseline %d (present %v)", o.name, res.cycles, w, ok)
		}
	}
	if mismatches != 0 {
		t.Errorf("%d/170 cells differ from BENCH_baseline.json", mismatches)
	}
}

// TestBenchmarkFileMatchesOutput: BENCHMARK.json names exactly the metrics
// perfbench prints, with the same units.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench %v", names, workloadNames)
	}
	check := func(kind string, listed []entry, res *result) {
		got := make(map[string]string)
		for n, m := range res.Metrics {
			got[n] = m.Unit
		}
		want := make(map[string]string)
		for _, e := range listed {
			want[e.Name] = e.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: perfbench prints %v\nBENCHMARK.json lists %v", kind, got, want)
		}
	}
	check("end_to_end", bench.EndToEnd, runQuick(t, "compile_churn", 1, false, 1))
	check("per_layer", bench.PerLayer, runQuick(t, "compile_churn", 1, true, 1))
}

// TestFailedOpsCounted: an op whose outcome differs from its oracle fails,
// counts in failed and stays out of the latency samples.
func TestFailedOpsCounted(t *testing.T) {
	ops := paperCells(true)[:3]
	r := &runner{cfg: config{workers: 1}, ops: ops, rng: rand.New(rand.NewSource(1))}
	warm := r.pass(false, false)
	ops[1].want.Value++
	ops[2].want.Exc = rt.ExcNullPointer
	st := &loopStats{agg: newTraceAgg()}
	st.fold(r.pass(false, false), ops, warm)
	if st.attempted != 3 || st.failed != 2 || len(st.lat) != 1 {
		t.Errorf("attempted %d, failed %d, %d latency samples; want 3, 2, 1", st.attempted, st.failed, len(st.lat))
	}
}

// TestSelfTimes: a span's self time is its duration minus the union of its
// children's intervals, clipped to its own.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Start: 10, Dur: 30},
		{ID: 3, Parent: 1, Start: 30, Dur: 20}, // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 90, Dur: 20}, // runs 10 past the parent
		{ID: 5, Parent: 2, Start: 15, Dur: 5},
	}
	selfTimes(spans)
	want := []int64{100 - 40 - 10, 25, 20, 20, 5}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[i])
		}
	}
}

// TestTrapProbe: a guard-page fault is recovered and costs far more than a
// plain load.
func TestTrapProbe(t *testing.T) {
	p, err := probeTrap()
	if err != nil {
		t.Fatal(err)
	}
	if p.loadNs <= 0 || p.faultNs < 10*p.loadNs {
		t.Errorf("fault %.1f ns, load %.1f ns: want a fault to cost at least 10 loads", p.faultNs, p.loadNs)
	}
	if p.faultNs > float64(time.Millisecond) {
		t.Errorf("fault %.1f ns: implausibly slow", p.faultNs)
	}
}

// TestCalibrationScale: an interval is scaled by the reference time over
// the median kernel time near it, and by the whole run's median when no
// sample lies near.
func TestCalibrationScale(t *testing.T) {
	origin := time.Unix(1000, 0)
	c := &calibrator{origin: origin}
	for k, ns := range []float64{calRefNs, calRefNs, calRefNs, 2 * calRefNs, 2 * calRefNs} {
		c.samples = append(c.samples, calSample{at: time.Duration(k) * 10 * calWindow, ns: ns})
	}
	at := func(k int) time.Time { return origin.Add(time.Duration(k) * 10 * calWindow) }
	if got := c.scale(at(1), at(1)); got != 1 {
		t.Errorf("scale near a reference-speed sample = %v, want 1", got)
	}
	if got := c.scale(at(4), at(4).Add(calWindow)); got != 0.5 {
		t.Errorf("scale near a half-speed sample = %v, want 0.5", got)
	}
	if got := c.scale(at(7), at(7)); got != 1 {
		t.Errorf("scale with no sample near = %v, want the run median's 1", got)
	}
	c2 := newCalibrator(time.Now())
	c2.sample()
	if len(c2.samples) != 2 || c2.spentTime() <= 0 {
		t.Errorf("%d samples, %v spent; want 2 and positive", len(c2.samples), c2.spentTime())
	}
	var none *calibrator
	none.maybe()
	if none.spentTime() != 0 {
		t.Error("a nil calibrator spent time")
	}
}
