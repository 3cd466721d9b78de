package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/randprog"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// policy is how an op's machine executes the compiled program.
type policy uint8

const (
	// untiered runs the closure engine with every method translated up
	// front by PrecompileClosures, so translation is its own measured step.
	untiered policy = iota
	// tieredSpec runs the tier ladder 0→1→2 with profile-guided speculative
	// recompiles and trap-triggered deopts (benchtab -tier's tiered-spec).
	tieredSpec
	// governed runs the trap-storm governor, which demotes storming implicit
	// sites to explicit checks through recompiles (benchtab -degradation's
	// governed row).
	governed
)

// Invocations per adaptive_storm cell: the defaults of benchtab -tier (4)
// and -degradation (3, for the implicit and governed rows alike). Paper
// cells are invoked once.
const (
	tierCalls     = 4
	governorCalls = 3
)

// op is one cell of a workload: build the program, compile it, translate it,
// run it and verify every invocation.
type op struct {
	name   string
	model  *arch.Model
	cfg    jit.Config
	policy policy
	arg    int64
	calls  int
	build  func() (*ir.Program, *ir.Func)
	// want is the expected outcome of every invocation, computed at set-up
	// from an oracle that does not use the compiler under test.
	want machine.Outcome
}

// counts are the exact per-layer counts of one op; they sum over a pass.
type counts struct {
	irInstrs, funcsCompiled, irInstrsOut                   int64
	eliminated, implicit, explicitLeft, bounds, inlined    int64
	instrs, explicitChecks, implicitSites, traps           int64
	cacheLookups, cacheHits                                int64
	promotionsT1, promotionsT2, osrEntries, deopts, tierRC int64
	demotions, govRC, backoffs, pinned                     int64
	attrTotal, attrTrap, attrExplicit                      int64
}

func (c *counts) add(o counts) {
	c.irInstrs += o.irInstrs
	c.funcsCompiled += o.funcsCompiled
	c.irInstrsOut += o.irInstrsOut
	c.eliminated += o.eliminated
	c.implicit += o.implicit
	c.explicitLeft += o.explicitLeft
	c.bounds += o.bounds
	c.inlined += o.inlined
	c.instrs += o.instrs
	c.explicitChecks += o.explicitChecks
	c.implicitSites += o.implicitSites
	c.traps += o.traps
	c.cacheLookups += o.cacheLookups
	c.cacheHits += o.cacheHits
	c.promotionsT1 += o.promotionsT1
	c.promotionsT2 += o.promotionsT2
	c.osrEntries += o.osrEntries
	c.deopts += o.deopts
	c.tierRC += o.tierRC
	c.demotions += o.demotions
	c.govRC += o.govRC
	c.backoffs += o.backoffs
	c.pinned += o.pinned
	c.attrTotal += o.attrTotal
	c.attrTrap += o.attrTrap
	c.attrExplicit += o.attrExplicit
}

// opResult is what one run of an op produced.
type opResult struct {
	// cycles is the simulated cost of all invocations; steady is the last
	// invocation's.
	cycles, steady int64
	// compiles holds the host time of every real CompileProgramWith call;
	// cache hits are not compiles.
	compiles []time.Duration
	// peak is the host time of the initial compile plus every recompile
	// callback.
	peak time.Duration
	counts
	err error
	// trace holds the op's spans when it ran traced.
	trace *opTrace
}

// runOpts selects the traced variant of an op run.
type runOpts struct {
	// tr, when non-nil, records this op's spans.
	tr *opTrace
	// attr enables trap-cost attribution on untiered machines.
	attr bool
}

// run executes one op. A panic anywhere below becomes the op's error.
func (o *op) run(ro runOpts) (res opResult) {
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("panic: %v", r)
		}
	}()
	opSpan := ro.tr.begin("op", 0)
	defer ro.tr.end(opSpan)
	if o.policy == untiered {
		o.runUntiered(ro, opSpan, &res)
	} else {
		o.runAdaptive(ro, opSpan, &res)
	}
	return res
}

func (o *op) buildTraced(ro runOpts, parent int32, res *opResult) (*ir.Program, *ir.Func) {
	sp := ro.tr.begin("build", parent)
	p, fn := o.build()
	ro.tr.end(sp)
	res.irInstrs += programInstrs(p)
	return p, fn
}

// compile runs one real CompileProgramWith call and records it.
func (o *op) compile(ro runOpts, parent int32, res *opResult, p *ir.Program, opts jit.CompileOptions) (*jit.Result, error) {
	sp := ro.tr.beginCompile(parent)
	opts.Observer = ro.tr.observer()
	start := time.Now()
	r, err := jit.CompileProgramWith(p, o.cfg, o.model, opts)
	d := time.Since(start)
	ro.tr.endCompile(sp, r)
	res.compiles = append(res.compiles, d)
	if err != nil {
		return nil, err
	}
	res.funcsCompiled += int64(r.FuncsCompiled)
	res.irInstrsOut += programInstrs(p)
	res.eliminated += int64(r.Checks.Eliminated)
	res.implicit += int64(r.Checks.Implicit)
	res.explicitLeft += int64(r.Checks.ExplicitRemaining)
	res.bounds += int64(r.BoundChecksRemoved)
	res.inlined += int64(r.Inline.Inlined + r.Inline.Devirtualized)
	return r, nil
}

func (o *op) runUntiered(ro runOpts, opSpan int32, res *opResult) {
	p, fn := o.buildTraced(ro, opSpan, res)
	start := time.Now()
	if _, err := o.compile(ro, opSpan, res, p, jit.CompileOptions{}); err != nil {
		res.err = fmt.Errorf("compile: %w", err)
		return
	}
	res.peak = time.Since(start)

	mach := machine.New(o.model, p)
	mach.Engine = machine.EngineClosure
	if ro.attr {
		mach.EnableAttribution()
	}
	sp := ro.tr.begin("translate", opSpan)
	mach.PrecompileClosures()
	ro.tr.end(sp)

	o.invoke(ro, opSpan, res, mach, fn)
	if a := mach.CycleAttribution(); a != nil {
		res.attrTotal += a.TotalCycles
		res.attrTrap += a.TrapCycles
		res.attrExplicit += a.ExplicitCycles
	}
}

// runAdaptive runs a tiered or governed cell: several invocations on one
// machine, with every recompile going through a cache private to the cell,
// as benchtab -tier and -degradation do.
func (o *op) runAdaptive(ro runOpts, opSpan int32, res *opResult) {
	cache := jit.NewCache(0)
	var entryName string
	recompile := func(parent int32, spec jit.SpecSet, demote jit.DemoteSet) (*ir.Program, error) {
		p, fn := o.buildTraced(ro, parent, res)
		entryName = fn.Method.QualifiedName()
		ksp := ro.tr.begin("cache_key", parent)
		var key jit.CacheKey
		if o.policy == governed {
			key = jit.KeyDemote(p, o.cfg, o.model, nil, demote)
		} else {
			key = jit.KeySpec(p, o.cfg, o.model, spec)
		}
		ro.tr.end(ksp)
		lsp := ro.tr.begin("cache_lookup", parent)
		entry, hit, err := cache.GetOrCompile(key, false, func() (*jit.CacheEntry, error) {
			r, cerr := o.compile(ro, lsp, res, p, jit.CompileOptions{Spec: spec, Demote: demote})
			if cerr != nil {
				return nil, cerr
			}
			return &jit.CacheEntry{Program: p, Result: r}, nil
		})
		ro.tr.endLookup(lsp, hit)
		res.cacheLookups++
		if hit {
			res.cacheHits++
		}
		if err != nil {
			return nil, err
		}
		return entry.Program, nil
	}

	start := time.Now()
	prog, err := recompile(opSpan, nil, nil)
	res.peak = time.Since(start)
	if err != nil {
		res.err = fmt.Errorf("compile: %w", err)
		return
	}
	em := prog.MethodByName(entryName)
	if em == nil || em.Fn == nil {
		res.err = fmt.Errorf("compiled program lacks entry method %s", entryName)
		return
	}

	// callback wraps a recompile request from the machine's controller in
	// its own span and charges its host time to time-to-peak.
	callback := func(spec jit.SpecSet, demote jit.DemoteSet) (*ir.Program, error) {
		name := "tier_recompile"
		if o.policy == governed {
			name = "governor_recompile"
		}
		sp := ro.tr.begin(name, opSpan)
		start := time.Now()
		p, err := recompile(sp, spec, demote)
		res.peak += time.Since(start)
		ro.tr.end(sp)
		if o.policy == governed {
			res.govRC++
		} else {
			res.tierRC++
		}
		return p, err
	}
	mach := machine.New(o.model, prog)
	switch o.policy {
	case tieredSpec:
		mach.EnableTiering(machine.DefaultTierPolicy(), func(mask map[string][]int) (*ir.Program, error) {
			return callback(jit.SpecSet(mask), nil)
		})
	case governed:
		mach.EnableGovernor(machine.DefaultGovernorPolicy(), func(demote map[string][]int) (*ir.Program, error) {
			return callback(nil, jit.DemoteSet(demote))
		})
	}
	o.invoke(ro, opSpan, res, mach, em.Fn)

	tr := mach.TierReport()
	for _, ev := range tr.Events {
		switch ev.Kind {
		case "promote-t1":
			res.promotionsT1++
		case "promote-t2":
			res.promotionsT2++
		}
	}
	res.osrEntries += int64(tr.OSREntries)
	res.deopts += int64(tr.Deopts)
	if o.policy == governed {
		gr := mach.GovernorReport()
		res.demotions += int64(gr.Demotions)
		res.backoffs += gr.Backoffs
		res.pinned += int64(len(gr.Pinned))
	}
}

// invoke makes the op's calls on mach, verifying each outcome.
func (o *op) invoke(ro runOpts, opSpan int32, res *opResult, mach *machine.Machine, fn *ir.Func) {
	for i := 0; i < o.calls; i++ {
		before := mach.Cycles
		sp := ro.tr.begin("exec", opSpan)
		out, err := mach.Call(fn, o.arg)
		ro.tr.end(sp)
		if err != nil {
			res.err = fmt.Errorf("invocation %d: %w", i+1, err)
			return
		}
		if err := o.check(out); err != nil {
			res.err = fmt.Errorf("invocation %d: %w", i+1, err)
			return
		}
		res.steady = mach.Cycles - before
	}
	res.cycles = mach.Cycles
	res.instrs += mach.Stats.Instrs
	res.explicitChecks += mach.Stats.ExplicitChecks
	res.implicitSites += mach.Stats.ImplicitSites
	res.traps += mach.Stats.TrapsTaken
}

// check compares an outcome with the oracle's: the same value, or the same
// exception kind when the oracle raised.
func (o *op) check(out machine.Outcome) error {
	if out.Exc != o.want.Exc {
		return fmt.Errorf("exception %v, want %v", out.Exc, o.want.Exc)
	}
	if out.Exc == rt.ExcNone && out.Value != o.want.Value {
		return fmt.Errorf("value %d, want %d", out.Value, o.want.Value)
	}
	return nil
}

func programInstrs(p *ir.Program) int64 {
	var n int64
	for _, m := range p.Methods {
		if m.Fn != nil {
			n += int64(m.Fn.NumInstrs())
		}
	}
	return n
}

// kernelOp is one paper kernel cell, verified against the kernel's pure-Go
// reference.
func kernelOp(model *arch.Model, cfg jit.Config, w *workloads.Workload, arg int64, pol policy, calls int) *op {
	return &op{
		name:   model.Name + "/" + cfg.Name + "/" + w.Name,
		model:  model,
		cfg:    cfg,
		policy: pol,
		arg:    arg,
		calls:  calls,
		build: func() (*ir.Program, *ir.Func) {
			p, m := w.Build()
			return p, m.Fn
		},
		want: machine.Outcome{Value: w.Ref(arg)},
	}
}

// paperCells is the paper's 170 cells: ia32-win × the Table 1/2 rows and
// ppc-aix × the Table 6/7 rows, each over the 17 kernels.
func paperCells(quick bool) []*op {
	var ops []*op
	add := func(model *arch.Model, cfgs []jit.Config) {
		for _, cfg := range cfgs {
			for _, w := range workloads.All() {
				arg := w.N
				if quick {
					arg = w.TestN
				}
				ops = append(ops, kernelOp(model, cfg, w, arg, untiered, 1))
			}
		}
	}
	add(arch.IA32Win(), jit.WindowsConfigs())
	add(arch.PPCAIX(), jit.AIXConfigs())
	return ops
}

// compile_churn draws randprogCount random programs per seed. Program sizes
// are skewed, and compile time follows size, so a plain draw would change
// the compile work of a pass by about 13% from seed to seed. The draw is
// therefore stratified: programs above randprogMaxInstrs pristine IR
// instructions are skipped, randprogCandidates candidate sets are drawn, and
// the set whose total size is closest to randprogTargetInstrs is used.
const (
	randprogCount        = 40
	randprogMaxInstrs    = 160
	randprogCandidates   = 16
	randprogTargetInstrs = 2600
)

// randprogArg is the argument random programs are called with, as in the
// randprog differential tests.
const randprogArg = 5

// legalConfigs pairs each model with its legal configurations. The AIX
// Illegal Implicit row is unsafe on null paths by design, so random
// programs, which reach those paths, do not run it.
func legalConfigs() []struct {
	model *arch.Model
	cfgs  []jit.Config
} {
	var aix []jit.Config
	for _, c := range jit.AIXConfigs() {
		if !c.SkipGuardCheck {
			aix = append(aix, c)
		}
	}
	return []struct {
		model *arch.Model
		cfgs  []jit.Config
	}{
		{arch.IA32Win(), jit.WindowsConfigs()},
		{arch.PPCAIX(), aix},
	}
}

// randprogOps draws the random programs for seed and pairs each with every
// legal configuration. The oracle is the uncompiled program on the switch
// engine.
func randprogOps(seed int64) ([]*op, error) {
	rng := rand.New(rand.NewSource(seed))
	var best []int64
	bestDist := int64(math.MaxInt64)
	for c := 0; c < randprogCandidates; c++ {
		var set []int64
		var size int64
		for len(set) < randprogCount {
			pseed := rng.Int63()
			p, _ := randprog.Generate(randprog.DefaultConfig(pseed))
			if n := programInstrs(p); n <= randprogMaxInstrs {
				set = append(set, pseed)
				size += n
			}
		}
		if d := max(size-randprogTargetInstrs, randprogTargetInstrs-size); d < bestDist {
			best, bestDist = set, d
		}
	}

	var ops []*op
	for _, pseed := range best {
		gen := randprog.DefaultConfig(pseed)
		build := func() (*ir.Program, *ir.Func) { return randprog.Generate(gen) }
		for _, pl := range legalConfigs() {
			p, fn := build()
			ref := machine.New(pl.model, p)
			ref.Engine = machine.EngineSwitch
			want, err := ref.Call(fn, randprogArg)
			if err != nil {
				return nil, fmt.Errorf("randprog %d oracle on %s: %w", pseed, pl.model.Name, err)
			}
			want.ExcRef = 0
			for _, cfg := range pl.cfgs {
				ops = append(ops, &op{
					name:   fmt.Sprintf("%s/%s/rand%d", pl.model.Name, cfg.Name, pseed),
					model:  pl.model,
					cfg:    cfg,
					policy: untiered,
					arg:    randprogArg,
					calls:  1,
					build:  build,
					want:   want,
				})
			}
		}
	}
	return ops, nil
}

// writeImplicitAIX is the governor's starting configuration on ppc-aix, as in
// benchtab -degradation: the legal write-implicit extension with
// speculation off.
func writeImplicitAIX() jit.Config {
	c := jit.ConfigAIXWriteImplicit()
	c.Name = "WriteImplicit"
	c.Speculation = false
	return c
}

// SeededBurst's null share over its full size ranges from about 4% to 48%
// across seeds, and its trap cost dominates adaptive_storm's cycles. The
// benchmark draws burst seeds from the run seed until one lands within
// burstShareTolerance of burstShare, so the seed moves where the bursts fall
// but not how much of the run they cover.
const (
	burstShare          = 0.25
	burstShareTolerance = 0.01
)

func seededBurst(seed int64) *workloads.Workload {
	rng := rand.New(rand.NewSource(seed))
	for {
		w := workloads.SeededBurst(rng.Int63())
		// Each null iteration adds 1 to the checksum, every other adds 2.
		share := float64(2*w.N-w.Ref(w.N)) / float64(w.N)
		if math.Abs(share-burstShare) <= burstShareTolerance {
			return w
		}
	}
}

// adaptiveCells mirrors the (model, config) pairs of benchtab -tier and
// -degradation: tiered-spec over the tiering workloads under each model's
// best static configuration, and implicit plus governed over the storm
// family, including the seed's own SeededBurst, under the implicit
// configurations.
func adaptiveCells(seed int64) []*op {
	tiered := []*workloads.Workload{
		workloads.NumericSort(), workloads.Assignment(), workloads.Compress(),
		workloads.BigOffsetWalk(), workloads.NullStorm(), workloads.LateNullStorm(),
	}
	storms := []*workloads.Workload{
		workloads.TrapStorm(), workloads.FlappingNull(), workloads.PhaseShiftNull(),
		seededBurst(seed),
	}
	var ops []*op
	for _, m := range []struct {
		model         *arch.Model
		best, implCfg jit.Config
	}{
		{arch.IA32Win(), jit.ConfigPhase1Phase2(), jit.ConfigPhase1Phase2()},
		{arch.PPCAIX(), jit.ConfigAIXSpeculation(), writeImplicitAIX()},
	} {
		for _, w := range tiered {
			ops = append(ops, kernelOp(m.model, m.best, w, w.N, tieredSpec, tierCalls))
		}
		for _, w := range storms {
			ops = append(ops, kernelOp(m.model, m.implCfg, w, w.N, untiered, governorCalls))
			ops = append(ops, kernelOp(m.model, m.implCfg, w, w.N, governed, governorCalls))
		}
	}
	for _, o := range ops {
		switch o.policy {
		case tieredSpec:
			o.name += "/tiered-spec"
		case governed:
			o.name += "/governed"
		default:
			o.name += "/implicit"
		}
	}
	return ops
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"paper_full", "compile_churn", "adaptive_storm"}

// buildOps builds one workload's op list for a seed.
func buildOps(workload string, seed int64) ([]*op, error) {
	switch workload {
	case "paper_full":
		return paperCells(false), nil
	case "compile_churn":
		rp, err := randprogOps(seed)
		if err != nil {
			return nil, err
		}
		return append(paperCells(true), rp...), nil
	case "adaptive_storm":
		return adaptiveCells(seed), nil
	}
	return nil, errors.New("unknown workload " + workload)
}
