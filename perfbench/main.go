// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload as a closed loop of checksum-verified ops, where an op is one
// cell: build a program, compile it, translate it for the closure engine,
// run it and verify the result. It calls the layers' public functions
// directly rather than going through the bench sweep harnesses.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload paper_full --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
// same loop, alternating untraced and traced passes, and prints the
// per-layer metrics. The last line of standard output is one JSON object.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart is the clock origin of the first set-up.
var processStart = time.Now()

// Set-up is repeated this many times and its median reported, so one slow
// start does not decide setup_s.
const setups = 3

// minSamples is the fewest latency samples a run collects, so that at least
// ten lie beyond the 95th percentile.
const minSamples = 200

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is how many goroutines run ops; spans is the span file of the
	// traced run.
	workers int
	spans   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper_full, compile_churn or adaptive_storm")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for op order, random programs and the seeded burst storm")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measure for at least this many seconds, in whole passes")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced loop and prints per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fail(errors.New("--trace must be 0 or 1"))
	}
	if cfg.seconds <= 0 {
		fail(errors.New("--seconds must be positive"))
	}
	// One worker: at two, wall time drifted by up to ±18% over minutes on a
	// 2-CPU host. The self-tests run every CPU to check determinism.
	cfg.workers = 1
	cfg.spans = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passRecord is what the timed loop keeps of one pass.
type passRecord struct {
	traced bool
	// wall excludes the time spent in the calibration kernel.
	wall    time.Duration
	results []opResult
	start   []time.Time
	latency []time.Duration
}

// runner holds one workload's ops and runs passes over them.
type runner struct {
	cfg    config
	ops    []*op
	rng    *rand.Rand
	origin time.Time
	cal    *calibrator // nil runs no calibration
	seq    int64       // op runs so far, the id of traced ops
}

// pass runs every op once, in a seed-drawn order, on cfg.workers goroutines.
// One worker times the calibration kernel between ops; more would overlap it
// with ops. With traced set, each op records its spans; attr turns on
// trap-cost attribution.
func (r *runner) pass(traced, attr bool) passRecord {
	order := r.rng.Perm(len(r.ops))
	rec := passRecord{traced: traced, results: make([]opResult, len(r.ops)),
		start: make([]time.Time, len(r.ops)), latency: make([]time.Duration, len(r.ops))}
	traces := make([]*opTrace, len(r.ops))
	start := time.Now()
	calSpent := r.cal.spentTime()
	work := func(i int) {
		ro := runOpts{attr: attr}
		if traced {
			ro.tr = newOpTrace(r.origin, r.seq+int64(i)+1)
			traces[i] = ro.tr
		}
		t0 := time.Now()
		rec.results[i] = r.ops[i].run(ro)
		rec.start[i] = t0
		rec.latency[i] = time.Since(t0)
	}
	if r.cfg.workers == 1 {
		for _, i := range order {
			work(i)
			r.cal.maybe()
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < r.cfg.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					work(i)
				}
			}()
		}
		for _, i := range order {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	rec.wall = time.Since(start) - (r.cal.spentTime() - calSpent)
	r.seq += int64(len(r.ops))
	for i, t := range traces {
		if t != nil {
			t.finish()
			rec.results[i].trace = t
		}
	}
	return rec
}

// setUp builds the workload's inputs and runs the untimed warm-up pass.
func setUp(cfg config, origin time.Time, cal *calibrator) (*runner, passRecord, error) {
	ops, err := buildOps(cfg.workload, cfg.seed)
	if err != nil {
		return nil, passRecord{}, err
	}
	r := &runner{cfg: cfg, ops: ops, rng: rand.New(rand.NewSource(cfg.seed)), origin: origin, cal: cal}
	// The per-layer counts come from the warm-up, one complete pass, so in
	// the traced run it carries attribution; it never records spans.
	return r, r.pass(false, cfg.trace), nil
}

func run(cfg config, out io.Writer) (*result, error) {
	var r *runner
	var warm passRecord
	var setupSpans [][2]time.Time
	cal := newCalibrator(processStart)
	start := processStart
	for k := 0; k < setups; k++ {
		var err error
		r, warm, err = setUp(cfg, start, cal)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		setupSpans = append(setupSpans, [2]time.Time{start, end})
		start = end
	}
	// A failing op fails again in every timed pass, where it is counted.
	for i, res := range warm.results {
		if res.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warm-up op failed: %s: %v\n", r.ops[i].name, res.err)
		}
	}

	// Timed loop: whole passes until the time is spent and enough samples
	// are in. The traced run alternates untraced and traced passes and stops
	// after an equal number of each. Each pass is folded into st and dropped;
	// only the per-op samples grow with the run.
	st := &loopStats{agg: newTraceAgg()}
	var gc gcSample // Go runtime counters over the traced passes
	loopStart := time.Now()
	for {
		traced := cfg.trace && st.passes%2 == 1
		if traced {
			gc.sub(readGC())
		}
		resetPeakRSS()
		p := r.pass(traced, traced)
		if traced {
			gc.add(readGC())
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		st.rss = append(st.rss, rss)
		st.fold(p, r.ops, warm)
		enough := time.Since(loopStart).Seconds() >= cfg.seconds && len(st.lat) >= minSamples && len(st.comp) >= minSamples
		if enough && (!cfg.trace || st.passes%2 == 0) {
			break
		}
	}
	for _, f := range st.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", f)
	}

	rep := &report{out: out}
	fmt.Fprintf(out, "perfbench %s seed=%d workers=%d ops/pass=%d passes=%d trace=%v\n",
		cfg.workload, cfg.seed, cfg.workers, len(r.ops), st.passes, cfg.trace)
	// The JSON line carries this as attempted and failed.
	rep.line("failed_frac", ratio(float64(st.failed), float64(st.attempted)), "ratio", st.attempted)
	if cfg.trace {
		if err := perLayer(rep, cfg, warm, st, gc); err != nil {
			return nil, err
		}
	} else {
		endToEnd(rep, cal, setupSpans, warm, st)
	}
	return &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: rep.json}, nil
}

// loopStats accumulates the timed passes.
type loopStats struct {
	passes            int
	attempted, failed int
	failures          []string // the first few, for the log
	// Samples of successful ops, in milliseconds of wall time; at holds
	// each op's start and compOp the op each compile sample belongs to.
	lat, comp, peak []float64
	at              []time.Time
	compOp          []int
	instrs          int64
	// rss is each pass's peak resident set in MB.
	rss []float64
	// wall is the host time of all passes; the traced run splits it.
	wall, tracedWall time.Duration
	tracedPasses     int
	agg              *traceAgg
}

// fold checks one pass against the warm-up and adds it to the totals. Each
// op's simulated cycles must repeat the warm-up's exactly.
func (st *loopStats) fold(p passRecord, ops []*op, warm passRecord) {
	for i := range p.results {
		res := &p.results[i]
		want := warm.results[i]
		if res.err == nil && (res.cycles != want.cycles || res.steady != want.steady) {
			res.err = fmt.Errorf("cycles %d/%d, warm-up had %d/%d", res.cycles, res.steady, want.cycles, want.steady)
		}
		st.attempted++
		if res.err != nil {
			st.failed++
			if len(st.failures) < 5 {
				st.failures = append(st.failures, ops[i].name+": "+res.err.Error())
			}
			continue
		}
		st.lat = append(st.lat, ms(p.latency[i]))
		st.at = append(st.at, p.start[i])
		st.peak = append(st.peak, ms(res.peak))
		for _, c := range res.compiles {
			st.comp = append(st.comp, ms(c))
			st.compOp = append(st.compOp, len(st.lat)-1)
		}
		st.instrs += res.instrs
		if res.trace != nil {
			st.agg.add(res.trace, res.instrs, st.tracedPasses == 0)
		}
	}
	st.wall += p.wall
	if p.traced {
		st.tracedWall += p.wall
		st.tracedPasses++
	}
	st.passes++
}

// report prints each metric with its unit and sample count, and collects
// the ones that go into the JSON line.
type report struct {
	out  io.Writer
	json map[string]metric
}

// line prints a metric without putting it in the JSON line.
func (r *report) line(name string, v float64, unit string, n int) {
	fmt.Fprintf(r.out, "  %-28s %18.6f %-10s n=%d\n", name, v, unit, n)
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.line(name, v, unit, n)
	if r.json == nil {
		r.json = make(map[string]metric)
	}
	r.json[name] = metric{Value: v, Unit: unit}
}

// endToEnd reports the end-to-end metrics. Host times are in reference
// units (see calib.go); the wall-clock values are printed beside them but
// left out of the JSON line.
func endToEnd(rep *report, cal *calibrator, setupSpans [][2]time.Time, warm passRecord, st *loopStats) {
	var cycles, steady int64
	for _, res := range warm.results {
		cycles += res.cycles
		steady += res.steady
	}
	var setupRef, setupWall []float64
	for _, sp := range setupSpans {
		wall := sp[1].Sub(sp[0]).Seconds()
		setupWall = append(setupWall, wall)
		setupRef = append(setupRef, wall*cal.scale(sp[0], sp[1]))
	}
	ops := len(st.lat)
	lat := make([]float64, ops)
	peak := make([]float64, ops)
	scale := make([]float64, ops)
	var refSecs float64
	for k, l := range st.lat {
		scale[k] = cal.scale(st.at[k], st.at[k].Add(time.Duration(l*1e6)))
		lat[k] = l * scale[k]
		peak[k] = st.peak[k] * scale[k]
		refSecs += lat[k] / 1e3
	}
	comp := make([]float64, len(st.comp))
	for j, c := range st.comp {
		comp[j] = c * scale[st.compOp[j]]
	}
	secs := st.wall.Seconds()
	rep.line("host_speed", calRefNs/cal.medianNs(), "ratio", len(cal.samples))
	rep.line("wall.setup_s", median(setupWall), "s", len(setupWall))
	rep.line("wall.ops_per_s", float64(ops)/secs, "ops/s", ops)
	rep.line("wall.op_ms_p50", percentile(st.lat, 0.50), "ms", ops)
	rep.line("wall.compile_ms_p50", percentile(st.comp, 0.50), "ms", len(st.comp))

	rep.add("setup_s", median(setupRef), "s", len(setupRef))
	rep.add("ops_per_s", float64(ops)/refSecs, "ops/ref_s", ops)
	rep.add("op_ms_p50", percentile(lat, 0.50), "ref_ms", ops)
	rep.add("op_ms_p95", percentile(lat, 0.95), "ref_ms", ops)
	rep.add("compile_ms_p50", percentile(comp, 0.50), "ref_ms", len(comp))
	rep.add("compile_ms_p95", percentile(comp, 0.95), "ref_ms", len(comp))
	rep.add("sim_mips", float64(st.instrs)/refSecs/1e6, "Minstr/ref_s", ops)
	rep.add("sim_cycles", float64(cycles), "cycles", len(warm.results))
	rep.add("steady_sim_cycles", float64(steady), "cycles", len(warm.results))
	rep.add("time_to_peak_ms_p50", percentile(peak, 0.50), "ref_ms", len(peak))
	rep.add("peak_rss_mb", median(st.rss), "MB", len(st.rss))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS sets the process's peak resident set to its current one, so
// that the next peakRSSMB covers one pass. The whole-run peak would instead
// grow with perfbench's own latency samples, and jump with the garbage
// collector's timing. Where the reset is not allowed, peakRSSMB reads the
// peak since process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 64)
			return v / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// gcSample holds the Go runtime counters the traced passes difference.
type gcSample struct {
	gcCPU, totalCPU float64
	cycles          float64
	allocBytes      float64
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return gcSample{gcCPU: val(0), totalCPU: val(1), cycles: val(2), allocBytes: val(3)}
}

func (g *gcSample) add(o gcSample) {
	g.gcCPU += o.gcCPU
	g.totalCPU += o.totalCPU
	g.cycles += o.cycles
	g.allocBytes += o.allocBytes
}

func (g *gcSample) sub(o gcSample) {
	g.add(gcSample{-o.gcCPU, -o.totalCPU, -o.cycles, -o.allocBytes})
}
