package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// Policy sweeps: the bench modes behind benchtab -tier and -degradation.
// Where the paper's tables compare static configurations, a policy sweep
// runs one configuration per model under several execution POLICIES and
// measures each (workload, policy) cell over several invocations on one
// machine.
//
// Tier policies (benchtab -tier) compare how a method reaches its peak code:
//
//	interp       untiered switch interpreter (tier 0 forever)
//	eager        untiered closure engine, every method closure-compiled up
//	             front (the all-at-once tier 1)
//	tiered       adaptive 0→1: interpret until hot, then closure-compile
//	tiered-spec  full ladder 0→1→2: additionally recompile hot methods with
//	             profile-guided speculation guards on never-null checks, and
//	             deoptimize when a guard fires
//
// Degradation policies (benchtab -degradation) run the null-heavy storm
// family and render the graceful-degradation table the trap-storm governor
// is judged by (DESIGN.md §12):
//
//	implicit   the model's best static configuration with hardware-trap
//	           null checks — optimal on clean profiles, pays the full
//	           ~5000-cycle trap dispatch per null
//	explicit   the same optimization pipeline with trap conversion off —
//	           every surviving check is an explicit instruction; nulls cost
//	           a cheap software throw
//	governed   starts on the implicit configuration and lets the machine's
//	           trap-storm governor demote storming sites to explicit checks
//	           at runtime (machine.EnableGovernor)
//
// Every invocation of every cell verifies its checksum against the pure-Go
// reference, so all policies of a workload agreeing with the reference is
// the differential check. Steady-state cycles are the LAST invocation's
// cycle delta — by then promotions and demotions have settled.
// Compile-time-to-peak is the host time spent compiling before the peak tier
// ran: the initial jit compile for everyone, plus eager's up-front closure
// compilation, plus the tier controller's promotion/recompile cost.

// PolicyOptions tunes a policy sweep.
type PolicyOptions struct {
	// Quick selects the small problem sizes (used by tests).
	Quick bool
	// Reps is invocations per cell; the last one is the steady-state
	// measurement. A tier sweep accepts any value of at least 3 and
	// otherwise runs 4 (warm-up, promotions, settle, steady); a degradation
	// sweep accepts any value of at least 2 and otherwise runs 3 (storm,
	// demote, steady).
	Reps int

	// Timeline, when non-nil, attaches a flight recorder to every cell's
	// machine and merges its promotion, deopt and demotion events into the
	// timeline; the static policies additionally carry trap-cost
	// attribution. Trace, when non-nil, gives each cell a lane of
	// per-invocation spans with the recorded events as instant markers.
	// Metrics, when non-nil, receives the controller and cache counters
	// after each cell.
	Timeline *obs.Timeline
	Trace    *obs.Trace
	Metrics  *obs.Registry
}

// tierPolicy is machine.DefaultTierPolicy, scaled down under Quick.
func (o PolicyOptions) tierPolicy() machine.TierPolicy {
	p := machine.DefaultTierPolicy()
	if o.Quick {
		// Small problem sizes enter far fewer blocks — and the closure
		// engine's block batching makes its entries coarser still — so
		// shrink the thresholds until the quick sweep exercises the whole
		// ladder within the default rep count.
		p.T1Blocks, p.T2Blocks, p.MinCheckExecs = 128, 128, 16
	}
	return p
}

// governorPolicy is machine.DefaultGovernorPolicy, scaled down under Quick
// so the small problem sizes still cross its thresholds.
func (o PolicyOptions) governorPolicy() machine.GovernorPolicy {
	p := machine.DefaultGovernorPolicy()
	if o.Quick {
		p.MinSiteExecs, p.BackoffTraps = 64, 8
	}
	return p
}

// variantCompiler compiles the cell's workload with a speculation and a
// demotion set (either may be nil) through the cell's cache.
type variantCompiler func(jit.SpecSet, jit.DemoteSet) (*ir.Program, error)

// policyRow is one row of a policy table: how a cell's machine runs.
type policyRow struct {
	name string
	// explicit compiles the cell under ExplicitConfig() instead of the
	// sweep's configuration.
	explicit bool
	// attribute turns on trap-cost attribution. Adaptive machines mix
	// block-aligned artifact generations and report a nil ledger by design.
	attribute bool
	// setup, when non-nil, prepares the machine before the first invocation
	// and returns the host time it spent compiling up front.
	setup func(mach *machine.Machine, opts PolicyOptions, recompile variantCompiler) time.Duration
}

// policyTable is one policy sweep mode: its rows in render order, its rep
// rule and its controller metrics.
type policyTable struct {
	kind                 string // names the sweep in failure messages
	rows                 []policyRow
	minReps, defaultReps int
	register             func(*obs.Registry)
	publish              func(*obs.Registry, *PolicyCell)
}

func (t *policyTable) reps(opts PolicyOptions) int {
	if opts.Reps >= t.minReps {
		return opts.Reps
	}
	return t.defaultReps
}

var tierTable = &policyTable{
	kind: "tiered",
	rows: []policyRow{
		{name: "interp", attribute: true,
			setup: func(mach *machine.Machine, _ PolicyOptions, _ variantCompiler) time.Duration {
				mach.Engine = machine.EngineSwitch
				return 0
			}},
		{name: "eager", attribute: true,
			setup: func(mach *machine.Machine, _ PolicyOptions, _ variantCompiler) time.Duration {
				mach.Engine = machine.EngineClosure
				return mach.PrecompileClosures()
			}},
		{name: "tiered",
			setup: func(mach *machine.Machine, opts PolicyOptions, _ variantCompiler) time.Duration {
				mach.EnableTiering(opts.tierPolicy(), nil)
				return 0
			}},
		{name: "tiered-spec",
			setup: func(mach *machine.Machine, opts PolicyOptions, recompile variantCompiler) time.Duration {
				mach.EnableTiering(opts.tierPolicy(), func(mask map[string][]int) (*ir.Program, error) {
					return recompile(mask, nil)
				})
				return 0
			}},
	},
	minReps: 3, defaultReps: 4,
	register: registerTierMetrics,
	publish:  publishTierMetrics,
}

var degradationTable = &policyTable{
	kind: "degradation",
	rows: []policyRow{
		{name: "implicit", attribute: true},
		{name: "explicit", explicit: true, attribute: true},
		{name: "governed",
			setup: func(mach *machine.Machine, opts PolicyOptions, recompile variantCompiler) time.Duration {
				mach.EnableGovernor(opts.governorPolicy(), func(demote map[string][]int) (*ir.Program, error) {
					return recompile(nil, demote)
				})
				return 0
			}},
	},
	minReps: 2, defaultReps: 3,
	register: registerGovernorMetrics,
	publish:  publishGovernorMetrics,
}

// TieredWorkloads is the workload set of the tiered tables: hot null-free
// kernels where speculation should win (NumericSort, Assignment, Compress),
// the far-offset kernel whose surviving explicit check is the canonical
// speculation target (BigOffsetWalk), and the two adversarial ones where the
// profile lies and guards must deoptimize (NullStorm, LateNullStorm).
func TieredWorkloads() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.NumericSort(),
		workloads.Assignment(),
		workloads.Compress(),
		workloads.BigOffsetWalk(),
		workloads.NullStorm(),
		workloads.LateNullStorm(),
	}
}

// DegradationWorkloads is the storm family of the degradation tables.
func DegradationWorkloads() []*workloads.Workload {
	return []*workloads.Workload{
		workloads.TrapStorm(),
		workloads.FlappingNull(),
		workloads.PhaseShiftNull(),
	}
}

// ExplicitConfig is the all-explicit comparison policy: the same phase-1
// elimination pipeline as the implicit configurations, but with every
// surviving check emitted as an explicit instruction (no trap conversion,
// no folding) on either model.
func ExplicitConfig() jit.Config {
	return jit.Config{
		Name:       "AllExplicit",
		Inline:     true,
		Algo:       jit.AlgoNew,
		Iterations: 3,
		OtherOpts:  true,
	}
}

// ImplicitConfigWin / ImplicitConfigAIX are the per-model implicit
// configurations the governor starts from: the paper's full Phase1+2 on
// ia32-win, and the legal write-implicit extension on ppc-aix (speculation
// off — the governor bets in the opposite direction and disables tier-2
// speculation anyway).
func ImplicitConfigWin() jit.Config { return jit.ConfigPhase1Phase2() }

func ImplicitConfigAIX() jit.Config {
	c := jit.ConfigAIXWriteImplicit()
	c.Name = "WriteImplicit"
	c.Speculation = false
	return c
}

// CompileVariant builds w's pristine program, keys it by content plus the
// speculation and demotion sets (jit.KeyDemote), and compiles it through
// the cache: a hit returns the stored artifact without compiling. It is the
// recompile hook the tier ladder and the trap-storm governor run on.
func CompileVariant(cache *jit.Cache, w *workloads.Workload, cfg jit.Config, model *arch.Model,
	spec jit.SpecSet, demote jit.DemoteSet) (*ir.Program, error) {
	p, _ := w.Build()
	entry, _, err := cache.GetOrCompile(jit.KeyDemote(p, cfg, model, spec, demote), false, func() (*jit.CacheEntry, error) {
		res, err := jit.CompileProgramWith(p, cfg, model, jit.CompileOptions{Spec: spec, Demote: demote})
		if err != nil {
			return nil, err
		}
		return &jit.CacheEntry{Program: p, Result: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return entry.Program, nil
}

// PolicyCell is one (workload, policy) measurement.
type PolicyCell struct {
	Workload string
	Policy   string
	Reps     int
	// FirstCycles is invocation 1's simulated cost (promotion and demotion
	// transients included); SteadyCycles is the final invocation's and
	// TotalCycles the sum over all invocations.
	FirstCycles  int64
	SteadyCycles int64
	TotalCycles  int64
	// SteadyTraps / SteadyChecks are the final invocation's hardware traps
	// and dynamic explicit checks.
	SteadyTraps  int64
	SteadyChecks int64
	// CompileToPeak is host time: initial jit compile + up-front closure
	// compiles (eager) + tier promotions and deopt recompiles (tiered).
	CompileToPeak time.Duration
	// Tier and Governor are the machine's controller reports after the last
	// invocation; a controller the policy never enabled reports zero.
	Tier     machine.TierReport
	Governor machine.GovernorReport
	// Err marks a failed cell (compile error, checksum mismatch, policy
	// divergence); measurement fields are zero.
	Err string
}

// Failed reports whether the cell is an error entry.
func (c *PolicyCell) Failed() bool { return c.Err != "" }

// promotions counts a tier log's promotions into tier 1 and tier 2.
func promotions(r machine.TierReport) (t1, t2 int) {
	for _, ev := range r.Events {
		switch ev.Kind {
		case "promote-t1":
			t1++
		case "promote-t2":
			t2++
		}
	}
	return t1, t2
}

// PolicyMatrix holds one (model, config) policy sweep.
type PolicyMatrix struct {
	Model *arch.Model
	// Config is the sweep's configuration; rows marked explicit run
	// ExplicitConfig() instead.
	Config    jit.Config
	Workloads []*workloads.Workload
	Policies  []string
	Quick     bool
	Reps      int
	// Cells is indexed [policy][workload name].
	Cells map[string]map[string]*PolicyCell
}

// Cell returns the measurement for (policy, workload).
func (m *PolicyMatrix) Cell(policy, workload string) *PolicyCell {
	if row, ok := m.Cells[policy]; ok {
		return row[workload]
	}
	return nil
}

// RunTiered sweeps the tier policies × workloads for one (model, config).
func RunTiered(model *arch.Model, cfg jit.Config, ws []*workloads.Workload, opts PolicyOptions) (*PolicyMatrix, error) {
	return runPolicySweep(tierTable, model, cfg, ws, opts)
}

// RunDegradation sweeps the degradation policies × workloads for one model.
// implicitCfg is the trap-based configuration the implicit and governed rows
// run on.
func RunDegradation(model *arch.Model, implicitCfg jit.Config, ws []*workloads.Workload, opts PolicyOptions) (*PolicyMatrix, error) {
	return runPolicySweep(degradationTable, model, implicitCfg, ws, opts)
}

// runPolicySweep measures every (workload, policy) cell of one table.
func runPolicySweep(t *policyTable, model *arch.Model, cfg jit.Config, ws []*workloads.Workload, opts PolicyOptions) (*PolicyMatrix, error) {
	t.register(opts.Metrics)
	m := &PolicyMatrix{
		Model:     model,
		Config:    cfg,
		Workloads: ws,
		Quick:     opts.Quick,
		Reps:      t.reps(opts),
		Cells:     make(map[string]map[string]*PolicyCell),
	}
	for _, row := range t.rows {
		m.Policies = append(m.Policies, row.name)
		m.Cells[row.name] = make(map[string]*PolicyCell, len(ws))
	}
	var failures []string
	for _, w := range ws {
		for _, row := range t.rows {
			c := runPolicyCell(t, row, model, cfg, w, opts)
			m.Cells[row.name][w.Name] = c
			if c.Failed() {
				failures = append(failures, fmt.Sprintf("%s/%s: %s", row.name, w.Name, c.Err))
			}
		}
	}
	if len(failures) > 0 {
		return m, fmt.Errorf("bench: %d %s cell(s) failed:\n  %s", len(failures), t.kind, strings.Join(failures, "\n  "))
	}
	return m, nil
}

// runPolicyCell measures one (workload, policy) cell: reps invocations on
// one machine, each checksum-verified. Any error degrades to an error cell.
func runPolicyCell(t *policyTable, row policyRow, model *arch.Model, cfg jit.Config, w *workloads.Workload, opts PolicyOptions) (cell *PolicyCell) {
	errCell := func(reason string) *PolicyCell {
		return &PolicyCell{Workload: w.Name, Policy: row.name, Err: reason}
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
	reps := t.reps(opts)
	if row.explicit {
		cfg = ExplicitConfig()
	}

	// One compile cache per cell keeps the compile-time-to-peak column
	// honest — every policy pays its own initial compile — while still
	// giving the adaptive controllers the miss-then-hit behavior their
	// recompiles are designed around: a deopt's conservative recompile hits
	// the entry the initial compile stored, and replaying a converged
	// demotion set hits instead of recompiling.
	cache := jit.NewCache(0)
	_, entryM := w.Build()
	recompile := func(spec jit.SpecSet, demote jit.DemoteSet) (*ir.Program, error) {
		return CompileVariant(cache, w, cfg, model, spec, demote)
	}

	jitStart := time.Now()
	prog, err := recompile(nil, nil)
	compileToPeak := time.Since(jitStart)
	if err != nil {
		return errCell(failReason(err))
	}
	em := prog.MethodByName(entryM.QualifiedName())
	if em == nil || em.Fn == nil {
		return errCell("compiled program lacks entry method " + entryM.QualifiedName())
	}

	mach := machine.New(model, prog)
	rec := attachRecorder(opts.Timeline, mach, row.attribute)
	if row.setup != nil {
		compileToPeak += row.setup(mach, opts, recompile)
	}

	cellName := row.name + "/" + w.Name
	var tid int64
	var cellStart time.Time
	if opts.Trace != nil {
		tid = opts.Trace.NextTID()
		cellStart = time.Now()
	}
	var wins []repWindow
	// Publish from a defer so even a failed cell lands its recorded strand
	// (and its instant markers) in the timeline.
	defer func() {
		publishRepTimeline(opts.Timeline, opts.Trace, model.Name+"/"+cellName, rec,
			mach.CycleAttribution(), tid, wins)
		if opts.Trace != nil {
			opts.Trace.Span(tid, "cell", cellName, cellStart, time.Since(cellStart), nil)
		}
	}()

	want := w.Ref(n)
	cell = &PolicyCell{Workload: w.Name, Policy: row.name, Reps: reps}
	for rep := 0; rep < reps; rep++ {
		before, beforeTraps, beforeChecks := mach.Cycles, mach.Stats.TrapsTaken, mach.Stats.ExplicitChecks
		stepsBefore := mach.Steps()
		repStart := time.Now()
		out, err := mach.Call(em.Fn, n)
		if opts.Trace != nil {
			dur := time.Since(repStart)
			opts.Trace.Span(tid, "exec", fmt.Sprintf("%s inv %d", cellName, rep+1), repStart, dur,
				map[string]any{"cycles": mach.Cycles - before})
			wins = append(wins, repWindow{repStart, dur, stepsBefore, mach.Steps()})
		}
		if err != nil {
			return errCell(failReason(err))
		}
		if out.Exc != rt.ExcNone {
			return errCell(fmt.Sprintf("unexpected exception %v", out.Exc))
		}
		if out.Value != want {
			return errCell(fmt.Sprintf("checksum mismatch on rep %d: got %d, want %d", rep, out.Value, want))
		}
		d := mach.Cycles - before
		if rep == 0 {
			cell.FirstCycles = d
		}
		cell.SteadyCycles = d
		cell.TotalCycles += d
		cell.SteadyTraps = mach.Stats.TrapsTaken - beforeTraps
		cell.SteadyChecks = mach.Stats.ExplicitChecks - beforeChecks
	}

	cell.Tier = mach.TierReport()
	cell.Governor = mach.GovernorReport()
	cell.CompileToPeak = compileToPeak + cell.Tier.CompileHost
	t.publish(opts.Metrics, cell)
	publishCacheMetrics(opts.Metrics, cache.Stats())
	noteCacheEvents(opts.Timeline, model.Name+"/"+cellName, cache)
	return cell
}

// TieredReport bundles the tiered sweeps of both machines, each under its
// model's best static configuration — the hardest baseline for tier 2 to
// beat.
type TieredReport struct {
	Win *PolicyMatrix // ia32-win, NewNullCheck(Phase1+2)
	AIX *PolicyMatrix // ppc-aix, Speculation
}

// DegradationReport bundles the degradation sweeps of both models.
type DegradationReport struct {
	Win *PolicyMatrix // ia32-win, NewNullCheck(Phase1+2)
	AIX *PolicyMatrix // ppc-aix, WriteImplicit
}

// runBothModels runs one policy table on ia32-win and ppc-aix. Both sweeps
// run to completion even when cells fail.
func runBothModels(t *policyTable, winCfg, aixCfg jit.Config, ws func() []*workloads.Workload,
	opts PolicyOptions) (win, aix *PolicyMatrix, err error) {
	var errs []string
	sweep := func(m *PolicyMatrix, err error) *PolicyMatrix {
		if err != nil {
			errs = append(errs, err.Error())
		}
		return m
	}
	win = sweep(runPolicySweep(t, arch.IA32Win(), winCfg, ws(), opts))
	aix = sweep(runPolicySweep(t, arch.PPCAIX(), aixCfg, ws(), opts))
	if len(errs) > 0 {
		err = fmt.Errorf("%s", strings.Join(errs, "\n  "))
	}
	return win, aix, err
}

// RunTieredAll produces the full tiered report.
func RunTieredAll(opts PolicyOptions) (*TieredReport, error) {
	win, aix, err := runBothModels(tierTable, jit.ConfigPhase1Phase2(), jit.ConfigAIXSpeculation(), TieredWorkloads, opts)
	return &TieredReport{Win: win, AIX: aix}, err
}

// RunDegradationAll produces the full degradation report.
func RunDegradationAll(opts PolicyOptions) (*DegradationReport, error) {
	win, aix, err := runBothModels(degradationTable, ImplicitConfigWin(), ImplicitConfigAIX(), DegradationWorkloads, opts)
	return &DegradationReport{Win: win, AIX: aix}, err
}

// grid renders one row per (workload, policy) cell, workload-major; cols
// formats a healthy cell's columns after the workload and policy.
func (m *PolicyMatrix) grid(title string, header []string, cols func(*PolicyCell) []string, footer ...string) string {
	var rows [][]string
	for _, w := range m.Workloads {
		for _, pol := range m.Policies {
			row := make([]string, len(header))
			row[0], row[1] = w.Name, pol
			switch c := m.Cell(pol, w.Name); {
			case c == nil:
				row[2] = "MISSING"
			case c.Failed():
				row[2] = "ERROR(" + c.Err + ")"
			default:
				copy(row[2:], cols(c))
			}
			rows = append(rows, row)
		}
	}
	return renderGrid(title, header, rows, footer...)
}

// TierTable renders one matrix as the tiering table: steady-state cycles and
// compile-time-to-peak per workload per policy, plus ladder traffic.
func (m *PolicyMatrix) TierTable() string {
	title := fmt.Sprintf("Tiered execution: %s, %s (steady state = last of %d invocations%s)",
		m.Model.Name, m.Config.Name, m.Reps, quickNote(m.Quick))
	header := []string{"workload", "policy", "steady cycles", "first cycles",
		"compile-to-peak (us)", "t1", "t2", "deopts", "spec live"}
	return m.grid(title, header, func(c *PolicyCell) []string {
		t1, t2 := promotions(c.Tier)
		return []string{
			strconv.FormatInt(c.SteadyCycles, 10),
			strconv.FormatInt(c.FirstCycles, 10),
			strconv.FormatInt(int64(c.CompileToPeak/time.Microsecond), 10),
			strconv.Itoa(t1),
			strconv.Itoa(t2),
			strconv.Itoa(c.Tier.Deopts),
			strconv.Itoa(c.Tier.SpecLive),
		}
	},
		"policies: interp = switch interpreter; eager = closure engine, all methods compiled up front;",
		"tiered = adaptive interpreter->closure; tiered-spec = + profile-guided speculation with deopt.",
		"compile-to-peak is host time (jit compile + closure compiles + tier recompiles); cycles are simulated.")
}

// DegradationTable renders one matrix as the graceful-degradation table.
func (m *PolicyMatrix) DegradationTable() string {
	title := fmt.Sprintf("Trap-storm degradation: %s, %s (steady state = last of %d invocations%s)",
		m.Model.Name, m.Config.Name, m.Reps, quickNote(m.Quick))
	header := []string{"workload", "policy", "steady cycles", "first cycles",
		"steady traps", "steady checks", "demotions", "recompiles", "pinned"}
	return m.grid(title, header, func(c *PolicyCell) []string {
		return []string{
			strconv.FormatInt(c.SteadyCycles, 10),
			strconv.FormatInt(c.FirstCycles, 10),
			strconv.FormatInt(c.SteadyTraps, 10),
			strconv.FormatInt(c.SteadyChecks, 10),
			strconv.Itoa(c.Governor.Demotions),
			strconv.Itoa(c.Governor.Recompiles),
			strconv.Itoa(len(c.Governor.Pinned)),
		}
	},
		"policies: implicit = static trap-based checks; explicit = same pipeline, every check explicit;",
		"governed = implicit start + runtime trap-storm governor (demote storming sites, pin on budget).",
		"steady cycles show the governor converging to explicit costs on stormy sites while clean",
		"sites keep their free implicit checks.")
}

func quickNote(quick bool) string {
	if quick {
		return ", quick sizes"
	}
	return ""
}

// Render renders both matrices.
func (r *TieredReport) Render() string {
	return r.Win.TierTable() + "\n" + r.AIX.TierTable()
}

// Render renders both matrices.
func (r *DegradationReport) Render() string {
	return r.Win.DegradationTable() + "\n" + r.AIX.DegradationTable()
}
