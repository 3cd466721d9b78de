// Package bench is the experiment harness: it runs every workload under
// every JIT configuration on the simulated machines and renders the rows of
// each table and the series of each figure in the paper's evaluation
// section (§5). Checksums are verified against the pure-Go references on
// every run, so the benchmark numbers can never come from broken code.
package bench

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/faultinject"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// Cell is one (configuration, workload) measurement.
type Cell struct {
	Workload string
	Config   string
	// Cycles is the simulated execution cost; SimSeconds converts it at the
	// model's clock rate.
	Cycles     int64
	SimSeconds float64
	// Compile times are real (host) durations of our optimizer, split the
	// way Table 4 reports them.
	CompileNull  time.Duration
	CompileOther time.Duration
	// Exec counts dynamic events; Static summarizes the compile-side check
	// statistics.
	Exec   machine.ExecStats
	Static jit.Result
	// Err is the deterministic failure reason when this cell could not be
	// measured (compile error, pass panic, checksum mismatch, ...); the
	// measurement fields above are zero. A failed cell never aborts the
	// sweep — tables render it as ERROR(<reason>).
	Err string

	// Fates is the null-check fate histogram of the cell's compilation; nil
	// unless Options.Remarks. Profile is the hot-block execution summary;
	// nil unless Options.Profile. Both are deterministic (fixed-order
	// structs, sorted slices) so they extend the sweep's determinism
	// contract.
	Fates   *obs.FateCounts
	Profile *obs.ProfileSummary
	// Attr is the per-trap-site cycle ledger (implicit / explicit / trap /
	// guard-free buckets summing exactly to Cycles); nil unless
	// Options.Timeline. Deterministic like Fates and Profile.
	Attr *obs.Attribution
	// remarks backs Fates with the full per-method ledgers (hot-block
	// overlays and renderers use it); not serialized.
	remarks *obs.Remarks
}

// Failed reports whether the cell is an error entry.
func (c *Cell) Failed() bool { return c.Err != "" }

// ErrText renders the deterministic table text for a failed cell.
func (c *Cell) ErrText() string { return "ERROR(" + c.Err + ")" }

// CompileTotal returns the whole compile time for the cell.
func (c *Cell) CompileTotal() time.Duration { return c.CompileNull + c.CompileOther }

// Matrix holds the cells of one (model, config set, workload set) sweep.
type Matrix struct {
	Model     *arch.Model
	Configs   []jit.Config
	Workloads []*workloads.Workload
	Quick     bool
	// Cells is indexed [config name][workload name].
	Cells map[string]map[string]*Cell
	// CompileCache holds the sweep-scoped compilation cache's traffic
	// counters; nil when the cache was disabled for this sweep.
	CompileCache *jit.CacheStats
}

// Cell returns the measurement for (config, workload).
func (m *Matrix) Cell(config, workload string) *Cell {
	if row, ok := m.Cells[config]; ok {
		return row[workload]
	}
	return nil
}

// Options tunes a sweep.
type Options struct {
	// Quick selects the small problem sizes (used by tests).
	Quick bool
	// CompileReps measures compilation this many times and keeps the
	// fastest, stabilizing the µs-scale timings of Tables 3–5. Minimum 1.
	CompileReps int
	// Parallelism bounds how many (config, workload) cells run
	// concurrently: 0 means GOMAXPROCS, 1 forces the serial sweep. Every
	// cell gets its own Machine and Heap, and each cell's compile timing
	// runs start-to-finish on its own goroutine with CompileReps
	// unchanged, so per-phase compile accounting (Tables 3–5) stays valid.
	Parallelism int

	// CompileCache controls the sweep-scoped content-addressed compilation
	// cache (internal/jit cache.go). The zero value CacheAuto enables it
	// unless the TRAPNULL_COMPILE_CACHE environment variable says otherwise.
	// With the cache on, a miss still times CompileReps compiles and stores
	// the fastest rep's Times, so Tables 3–5 keep their best-of-N timings; a
	// hit replays the stored Times without compiling. Every timing-free
	// artifact is byte-identical either way (the compiled IR is
	// deterministic, cache or no cache).
	CompileCache CacheSetting
	// CompileParallelism is forwarded to jit.CompileOptions.Parallelism:
	// methods of one program compile on that many workers (≤ 1 = serial).
	// The artifact is byte-identical at any setting.
	CompileParallelism int

	// Trace, when non-nil, collects Chrome trace-event spans: one lane per
	// cell, a cell span wrapping the measured compile and run, pass and
	// function spans nested inside (benchtab -trace). Cache-enabled cells
	// additionally get a compile_cache span recording hit or miss.
	Trace *obs.Trace
	// Remarks attaches a fate ledger to every cell's final compilation and
	// fills Cell.Fates (benchtab -remarks; JSON check_fates).
	Remarks bool
	// Profile counts block entries during every cell's run and fills
	// Cell.Profile (benchtab -profile; JSON profile).
	Profile bool

	// Timeline, when non-nil, attaches a flight recorder and trap-cost
	// attribution to every cell's machine and merges each cell's adaptive
	// events and cycle ledger into it (benchtab -timeline). When Trace is
	// also set, the recorded events additionally appear as instant markers
	// on the cell's trace lane.
	Timeline *obs.Timeline
	// Metrics, when non-nil, receives the sweep's counters after assembly
	// (benchtab -metrics): engine, static-check, attribution and cache
	// totals, published in fixed registration order so the deterministic
	// snapshot of the same sweep is byte-identical at any parallelism.
	Metrics *obs.Registry

	// CellTimeout, when positive, bounds each cell's wall-clock measurement
	// (benchtab -cell-timeout). A cell that exceeds it is cancelled
	// cooperatively — the machine's abort flag is raised and polled at block
	// entry — and renders as the deterministic ERROR(timeout) entry instead
	// of hanging the sweep.
	CellTimeout time.Duration
	// Inject attaches a deterministic fault-injection schedule to the sweep
	// (benchtab -chaos): seeded compile-pass panics, engine step faults and
	// compile-cache slot faults, all keyed on semantic coordinates so the
	// same seed reproduces the same faults byte-for-byte at any parallelism.
	Inject *faultinject.Injector
}

// CacheSetting is the tri-state compile-cache switch.
type CacheSetting uint8

const (
	// CacheAuto defers to TRAPNULL_COMPILE_CACHE: "off"/"0"/"false" disables
	// the cache, anything else (including unset) enables it.
	CacheAuto CacheSetting = iota
	// CacheOn forces the cache regardless of the environment.
	CacheOn
	// CacheOff disables it regardless of the environment.
	CacheOff
)

// cacheEnabled resolves the tri-state against the environment.
func (o Options) cacheEnabled() bool {
	switch o.CompileCache {
	case CacheOn:
		return true
	case CacheOff:
		return false
	}
	switch strings.ToLower(os.Getenv("TRAPNULL_COMPILE_CACHE")) {
	case "off", "0", "false":
		return false
	}
	return true
}

// observed reports whether the final compile rep needs an observer.
func (o Options) observed() bool { return o.Trace != nil || o.Remarks }

func (o Options) workers(total int) int {
	n := o.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > total {
		n = total
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Run sweeps configs × workloads on the model, fanning cells out to a
// bounded worker pool. Results land in slots pre-sized by (config, workload)
// index, so the assembled matrix — and everything rendered from it — is
// identical to the serial sweep regardless of completion order.
//
// A failing cell — compile error, contained pass panic, run failure,
// checksum mismatch, even a panicking workload builder — never aborts the
// sweep: it becomes an error entry (Cell.Err) and every other cell is still
// measured. When any cell failed, the returned error lists all failures in
// declaration order (deterministic regardless of worker count) alongside the
// complete matrix, so callers can render the partial results and still exit
// non-zero.
func Run(model *arch.Model, configs []jit.Config, ws []*workloads.Workload, opts Options) (*Matrix, error) {
	if opts.CompileReps < 1 {
		opts.CompileReps = 1
	}
	// Pre-register the metric set so the snapshot's order is fixed before
	// any worker touches a counter.
	registerSweepMetrics(opts.Metrics)
	m := &Matrix{
		Model:     model,
		Configs:   configs,
		Workloads: ws,
		Quick:     opts.Quick,
		Cells:     make(map[string]map[string]*Cell),
	}

	type job struct{ ci, wi int }
	total := len(configs) * len(ws)
	cells := make([][]*Cell, len(configs))
	for ci := range configs {
		cells[ci] = make([]*Cell, len(ws))
	}

	// One content-addressed compile cache per sweep: concurrent cells that
	// need the same (program, projection, model) compilation coalesce onto a
	// single compile, and triage-style replays of the same sweep would hit.
	var cache *jit.Cache
	if opts.cacheEnabled() {
		cache = jit.NewCache(0)
		if opts.Inject != nil {
			cf := opts.Inject.CacheFaults()
			cache.SetFaultPolicy(&jit.CacheFaultPolicy{Evict: cf.Evict, Corrupt: cf.Corrupt})
		}
	}

	jobs := make(chan job, total)
	var wg sync.WaitGroup
	for i := 0; i < opts.workers(total); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				cells[j.ci][j.wi] = runCell(model, configs[j.ci], ws[j.wi], opts, cache)
			}
		}()
	}
	for ci := range configs {
		for wi := range ws {
			jobs <- job{ci, wi}
		}
	}
	close(jobs)
	wg.Wait()
	if cache != nil {
		st := cache.Stats()
		m.CompileCache = &st
		publishCacheMetrics(opts.Metrics, st)
		noteCacheEvents(opts.Timeline, model.Name, cache)
	}

	// Assemble in declaration order, collecting failures in the same order
	// so the aggregate error is deterministic too.
	var failures []string
	for ci, cfg := range configs {
		row := make(map[string]*Cell, len(ws))
		m.Cells[cfg.Name] = row
		for wi, w := range ws {
			c := cells[ci][wi]
			row[w.Name] = c
			// Metrics publish runs here, single-threaded and in declaration
			// order, so the registry sees the same sequence of adds no
			// matter how the worker pool interleaved the cells.
			publishCellMetrics(opts.Metrics, c)
			if c.Failed() {
				failures = append(failures, fmt.Sprintf("%s/%s: %s", cfg.Name, w.Name, c.Err))
			}
		}
	}
	if len(failures) > 0 {
		return m, fmt.Errorf("bench: %d cell(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return m, nil
}

// failReason maps a cell failure to its deterministic table text: structured
// pass errors render through PassError.Reason (stable across runs and worker
// counts — no addresses, stacks or timings), everything else through its
// error string.
func failReason(err error) string {
	var pe *jit.PassError
	if errors.As(err, &pe) {
		return pe.Reason()
	}
	return err.Error()
}

// runCell wraps runOne with the optional wall-clock deadline. The cell runs
// on its own goroutine; on timeout the machine's abort flag is raised and the
// wrapper waits for the cooperative cancel (block-entry polls) so the cell
// has stopped touching shared state — the compile cache above all — before
// the deterministic ERROR(timeout) entry replaces whatever it was measuring.
func runCell(model *arch.Model, cfg jit.Config, w *workloads.Workload, opts Options, cache *jit.Cache) *Cell {
	if opts.CellTimeout <= 0 {
		return runOne(model, cfg, w, opts, cache, nil)
	}
	abort := new(atomic.Bool)
	done := make(chan *Cell, 1)
	go func() { done <- runOne(model, cfg, w, opts, cache, abort) }()
	timer := time.NewTimer(opts.CellTimeout)
	defer timer.Stop()
	select {
	case c := <-done:
		return c
	case <-timer.C:
		abort.Store(true)
		<-done
		return &Cell{Workload: w.Name, Config: cfg.Name, Err: "timeout"}
	}
}

// runOne measures one (config, workload) cell. It never fails the sweep: any
// error — including a panic out of the workload builder, the compiler, or
// the simulated machine — degrades to an error cell. abort, when non-nil, is
// the cooperative cancellation flag runCell polls through the machine.
func runOne(model *arch.Model, cfg jit.Config, w *workloads.Workload, opts Options, cache *jit.Cache, abort *atomic.Bool) (cell *Cell) {
	errCell := func(reason string) *Cell {
		return &Cell{Workload: w.Name, Config: cfg.Name, Err: reason}
	}
	defer func() {
		if r := recover(); r != nil {
			cell = errCell(fmt.Sprintf("panic: %v", r))
		}
	}()

	n := w.N
	if opts.Quick {
		n = w.TestN
	}

	cellName := cfg.Name + "/" + w.Name
	if cache != nil {
		return runOneCached(model, cfg, w, opts, cache, n, cellName, errCell, abort)
	}

	// Compile: repeat for timing stability, keeping the fastest rep (the
	// one least disturbed by the host). The final rep's program is run, and
	// only the final rep is observed — remarks and trace spans describe
	// exactly the program the measurements come from. (With tracing on, the
	// observed rep's compile timing includes the span bookkeeping; the
	// overhead budget test in internal/obs bounds it.)
	var best *jit.Result
	var finalProg *machine.Machine
	var rem *obs.Remarks
	var prof *obs.ExecProfile
	var attr *obs.Attribution
	var tid int64
	var cellStart time.Time
	for rep := 0; rep < opts.CompileReps; rep++ {
		p, entryM := w.Build()
		final := rep == opts.CompileReps-1

		// Injected pass faults key on the compilation's content identity, so
		// every rep of the same cell draws the same fault.
		var passFault func(method, pass string) string
		if opts.Inject != nil {
			passFault = opts.Inject.PassFault(jit.Key(p, cfg, model).ID())
		}

		var res *jit.Result
		var err error
		if final && opts.observed() {
			ob := &jit.Observer{}
			if opts.Trace != nil {
				tid = opts.Trace.NextTID()
				cellStart = time.Now()
				ob.Trace = opts.Trace
				ob.TID = tid
			}
			if opts.Remarks {
				rem = obs.NewRemarks()
				ob.Remarks = rem
			}
			res, err = jit.CompileProgramWith(p, cfg, model,
				jit.CompileOptions{Observer: ob, Parallelism: opts.CompileParallelism, PassFault: passFault})
		} else {
			res, err = jit.CompileProgramWith(p, cfg, model,
				jit.CompileOptions{Parallelism: opts.CompileParallelism, PassFault: passFault})
		}
		if err != nil {
			return errCell(failReason(err))
		}
		if best == nil || res.Times.Total() < best.Times.Total() {
			best = res
		}
		if final {
			mach := machine.New(model, p)
			mach.Abort = abort
			if opts.Profile {
				prof = obs.NewExecProfile()
				mach.Profile = prof
			}
			rec := attachRecorder(opts.Timeline, mach, true)
			if opts.Inject != nil {
				if step, ok := opts.Inject.StepFault(model.Name + "/" + cellName); ok {
					mach.InjectStepFault(step)
					rec.Record(0, "chaos", "step-fault-arm", cellName, fmt.Sprintf("fires at step %d", step))
				}
			}
			var execStart time.Time
			if opts.Trace != nil {
				execStart = time.Now()
			}
			out, err := mach.Call(entryM.Fn, n)
			execDur := time.Since(execStart)
			if opts.Trace != nil {
				now := time.Now()
				opts.Trace.Span(tid, "exec", "run "+cellName, execStart, now.Sub(execStart),
					map[string]any{"cycles": mach.Cycles, "instrs": mach.Stats.Instrs})
				opts.Trace.Span(tid, "cell", cellName, cellStart, now.Sub(cellStart), nil)
			}
			attr = mach.CycleAttribution()
			// Publish before the error checks: a cell that errored (an
			// injected fault, say) still lands its recorded strand in the
			// timeline — that is what the chaos fire markers are for.
			publishTimeline(opts.Timeline, opts.Trace, model.Name+"/"+cellName, rec,
				attr, tid, execStart, execDur, mach.Steps())
			if err != nil {
				return errCell(failReason(err))
			}
			if out.Exc != rt.ExcNone {
				return errCell(fmt.Sprintf("unexpected exception %v", out.Exc))
			}
			if want := w.Ref(n); out.Value != want {
				return errCell(fmt.Sprintf("checksum mismatch: got %d, want %d", out.Value, want))
			}
			finalProg = mach
		}
	}

	cell = &Cell{
		Workload:     w.Name,
		Config:       cfg.Name,
		Cycles:       finalProg.Cycles,
		SimSeconds:   float64(finalProg.Cycles) / float64(model.ClockHz),
		CompileNull:  best.Times.NullCheckOpt,
		CompileOther: best.Times.Other,
		Exec:         finalProg.Stats,
		Static:       *best,
		Attr:         attr,
	}
	if rem != nil {
		fc := rem.Totals()
		cell.Fates = &fc
		cell.remarks = rem
	}
	if prof != nil {
		cell.Profile = prof.Summary(hotBlockTopN, rem,
			finalProg.Stats.TrapsTaken, finalProg.Stats.ExplicitChecks, finalProg.Stats.ImplicitSites)
	}
	return cell
}

// runOneCached is runOne's compile path when the sweep carries a compile
// cache: build the program once, address the compilation by content, and
// reuse the stored artifact on a hit. A miss times CompileReps compiles as
// runOne does — CompileReps-1 fresh build+compile reps, then the observed
// compile of the stored program — and stores the fastest rep's Times; a hit
// replays them. Per-cell statistics (Fates, Static, compile times) are
// RE-DERIVED from the shared immutable entry rather than accumulated into
// it, so two cells hitting one entry never double-count.
func runOneCached(model *arch.Model, cfg jit.Config, w *workloads.Workload, opts Options,
	cache *jit.Cache, n int64, cellName string, errCell func(string) *Cell, abort *atomic.Bool) *Cell {
	p, entryM := w.Build()

	var tid int64
	var cellStart time.Time
	if opts.Trace != nil {
		tid = opts.Trace.NextTID()
		cellStart = time.Now()
	}

	key := jit.Key(p, cfg, model)
	// Injected pass faults key on the compilation identity (the cache key),
	// not the cell: under single-flight coalescing WHICH cell compiles depends
	// on worker interleaving, but what is compiled does not.
	var passFault func(method, pass string) string
	if opts.Inject != nil {
		passFault = opts.Inject.PassFault(key.ID())
	}
	entry, hit, err := cache.GetOrCompile(key, opts.Remarks, func() (*jit.CacheEntry, error) {
		// Timing-only reps: unobserved, so remarks and trace spans describe
		// exactly the stored program, as in runOne.
		var best jit.Times
		for rep := 1; rep < opts.CompileReps; rep++ {
			tp, _ := w.Build()
			res, cerr := jit.CompileProgramWith(tp, cfg, model,
				jit.CompileOptions{Parallelism: opts.CompileParallelism, PassFault: passFault})
			if cerr != nil {
				return nil, cerr
			}
			if rep == 1 || res.Times.Total() < best.Total() {
				best = res.Times
			}
		}
		var rem *obs.Remarks
		var ob *jit.Observer
		if opts.observed() {
			ob = &jit.Observer{}
			if opts.Trace != nil {
				ob.Trace = opts.Trace
				ob.TID = tid
			}
			if opts.Remarks {
				rem = obs.NewRemarks()
				ob.Remarks = rem
			}
		}
		res, cerr := jit.CompileProgramWith(p, cfg, model,
			jit.CompileOptions{Observer: ob, Parallelism: opts.CompileParallelism, PassFault: passFault})
		if cerr != nil {
			return nil, cerr
		}
		if opts.CompileReps > 1 && best.Total() < res.Times.Total() {
			res.Times = best
		}
		return &jit.CacheEntry{Program: p, Result: res, Remarks: rem}, nil
	})
	if opts.Trace != nil {
		opts.Trace.Span(tid, "compile_cache", cellName, cellStart, time.Since(cellStart),
			map[string]any{"hit": hit})
	}
	if err != nil {
		return errCell(failReason(err))
	}

	// On a hit the entry's program is NOT the one we just built; resolve our
	// entry method into the cached program by qualified name. The cached IR
	// is shared between cells and execution never mutates it (machines decode
	// into their own tables).
	prog := entry.Program
	em := prog.MethodByName(entryM.QualifiedName())
	if em == nil || em.Fn == nil {
		return errCell("cached program lacks entry method " + entryM.QualifiedName())
	}

	mach := machine.New(model, prog)
	mach.Abort = abort
	var prof *obs.ExecProfile
	if opts.Profile {
		prof = obs.NewExecProfile()
		mach.Profile = prof
	}
	rec := attachRecorder(opts.Timeline, mach, true)
	if opts.Inject != nil {
		if step, ok := opts.Inject.StepFault(model.Name + "/" + cellName); ok {
			mach.InjectStepFault(step)
			rec.Record(0, "chaos", "step-fault-arm", cellName, fmt.Sprintf("fires at step %d", step))
		}
	}
	var execStart time.Time
	if opts.Trace != nil {
		execStart = time.Now()
	}
	out, err := mach.Call(em.Fn, n)
	execDur := time.Since(execStart)
	if opts.Trace != nil {
		now := time.Now()
		opts.Trace.Span(tid, "exec", "run "+cellName, execStart, now.Sub(execStart),
			map[string]any{"cycles": mach.Cycles, "instrs": mach.Stats.Instrs})
		opts.Trace.Span(tid, "cell", cellName, cellStart, now.Sub(cellStart), nil)
	}
	attr := mach.CycleAttribution()
	publishTimeline(opts.Timeline, opts.Trace, model.Name+"/"+cellName, rec,
		attr, tid, execStart, execDur, mach.Steps())
	if err != nil {
		return errCell(failReason(err))
	}
	if out.Exc != rt.ExcNone {
		return errCell(fmt.Sprintf("unexpected exception %v", out.Exc))
	}
	if want := w.Ref(n); out.Value != want {
		return errCell(fmt.Sprintf("checksum mismatch: got %d, want %d", out.Value, want))
	}

	cell := &Cell{
		Workload:     w.Name,
		Config:       cfg.Name,
		Cycles:       mach.Cycles,
		SimSeconds:   float64(mach.Cycles) / float64(model.ClockHz),
		CompileNull:  entry.Result.Times.NullCheckOpt,
		CompileOther: entry.Result.Times.Other,
		Exec:         mach.Stats,
		Static:       *entry.Result,
		Attr:         attr,
	}
	if opts.Remarks && entry.Remarks != nil {
		fc := entry.Remarks.Totals()
		cell.Fates = &fc
		cell.remarks = entry.Remarks
	}
	if prof != nil {
		cell.Profile = prof.Summary(hotBlockTopN, entry.Remarks,
			mach.Stats.TrapsTaken, mach.Stats.ExplicitChecks, mach.Stats.ImplicitSites)
	}
	return cell
}

// hotBlockTopN bounds the per-cell hot-block report.
const hotBlockTopN = 10

// Index is the jBYTEmark-style score: iterations of the reference machine
// per simulated second (larger is better).
func (c *Cell) Index() float64 {
	if c.SimSeconds == 0 {
		return 0
	}
	return 1.0 / c.SimSeconds
}

// SimMillis returns the SPECjvm98-style time metric (smaller is better).
func (c *Cell) SimMillis() float64 { return c.SimSeconds * 1000 }

// Report bundles the four sweeps that feed every table and figure.
type Report struct {
	WinJB   *Matrix // Table 1, Figures 8/10
	WinSpec *Matrix // Tables 2–5, Figures 9/11/12/13
	AIXJB   *Matrix // Table 6, Figure 14
	AIXSpec *Matrix // Table 7, Figure 15
}

// RunAll produces the full report. All four sweeps run to completion even
// when cells fail; the returned error (if any) joins each sweep's failure
// list, and the report is always non-nil so partial results can be rendered.
func RunAll(opts Options) (*Report, error) {
	var errs []error
	sweep := func(m *Matrix, err error) *Matrix {
		if err != nil {
			errs = append(errs, err)
		}
		return m
	}
	rep := &Report{
		WinJB:   sweep(Run(arch.IA32Win(), jit.WindowsConfigs(), workloads.JBYTEmark(), opts)),
		WinSpec: sweep(Run(arch.IA32Win(), jit.WindowsConfigs(), workloads.SPECjvm98(), opts)),
		AIXJB:   sweep(Run(arch.PPCAIX(), jit.AIXConfigs(), workloads.JBYTEmark(), opts)),
		AIXSpec: sweep(Run(arch.PPCAIX(), jit.AIXConfigs(), workloads.SPECjvm98(), opts)),
	}
	return rep, errors.Join(errs...)
}
