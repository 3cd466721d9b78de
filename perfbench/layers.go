package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"trapnull/internal/arch"
)

// pipelinePasses are the jit pipeline's pass names, iteration suffix
// stripped; pass.<name>_ms reports each.
var pipelinePasses = []string{
	"inline", "rotate", "phase1", "whaley", "copyprop", "constfold", "boundelim",
	"scalar", "cse", "dce", "phase2", "trapconvert", "trapfold", "cleanup",
}

// perLayer reports the per-layer metrics. Counts come from the warm-up pass,
// which covers every op exactly once; times come from the traced passes.
func perLayer(rep *report, cfg config, warm passRecord, st *loopStats, gc gcSample) error {
	var c counts
	for _, res := range warm.results {
		c.add(res.counts)
	}
	nOps := len(warm.results)
	agg, tracedPasses := st.agg, st.tracedPasses

	count := func(name string, v int64) { rep.add(name, float64(v), "count", nOps) }
	spanMs := func(name, span string) { rep.add(name, agg.meanMs(span), "ms", int(agg.get(span).n)) }
	compiles := agg.get("compile").n

	spanMs("workloads.build_ms", "build")
	count("workloads.ir_instrs", c.irInstrs)

	spanMs("jit.compile_ms", "compile")
	rep.add("jit.nullcheck_frac", ratio(float64(agg.nullNs), float64(agg.compileNs)), "ratio", int(compiles))
	rep.add("jit.allocs_per_compile", ratio(float64(agg.mallocs), float64(compiles)), "count", int(compiles))
	rep.add("jit.kb_per_compile", ratio(float64(agg.allocBytes)/1024, float64(compiles)), "KB", int(compiles))
	count("jit.funcs_compiled", c.funcsCompiled)
	count("jit.ir_instrs_out", c.irInstrsOut)
	for _, p := range pipelinePasses {
		// Per compile, so the passes sum to about jit.compile_ms.
		st := agg.get("pass." + p)
		rep.add("pass."+p+"_ms", ratio(float64(st.dur)/1e6, float64(compiles)), "ms", int(st.n))
	}

	count("nullcheck.eliminated", c.eliminated)
	count("nullcheck.implicit", c.implicit)
	count("nullcheck.explicit_left", c.explicitLeft)
	count("opt.bounds_removed", c.bounds)
	count("opt.inlined", c.inlined)

	lookups := agg.get("cache_lookup")
	count("cache.lookups", c.cacheLookups)
	rep.add("cache.hit_ratio", ratio(float64(c.cacheHits), float64(c.cacheLookups)), "ratio", nOps)
	rep.add("cache.hit_us", ratio(float64(lookups.hitNs)/1e3, float64(lookups.hits)), "us", int(lookups.hits))
	rep.add("cache.miss_ms", ratio(float64(lookups.dur-lookups.hitNs)/1e6, float64(lookups.n-lookups.hits)), "ms", int(lookups.n-lookups.hits))
	rep.add("cache.key_us", agg.meanMs("cache_key")*1e3, "us", int(agg.get("cache_key").n))

	spanMs("machine.translate_ms", "translate")
	spanMs("machine.exec_ms", "exec")
	rep.add("machine.ns_per_instr", ratio(float64(agg.get("exec").dur), float64(agg.instrs)), "ns", int(agg.get("exec").n))
	count("machine.instrs", c.instrs)
	count("machine.explicit_checks", c.explicitChecks)
	count("machine.implicit_sites", c.implicitSites)
	count("machine.traps", c.traps)

	count("tier.promotions_t1", c.promotionsT1)
	count("tier.promotions_t2", c.promotionsT2)
	count("tier.osr_entries", c.osrEntries)
	count("tier.deopts", c.deopts)
	count("tier.recompiles", c.tierRC)
	spanMs("tier.recompile_ms", "tier_recompile")

	count("governor.demotions", c.demotions)
	count("governor.recompiles", c.govRC)
	count("governor.backoffs", c.backoffs)
	count("governor.pinned", c.pinned)
	spanMs("governor.recompile_ms", "governor_recompile")

	rep.add("attr.trap_frac", ratio(float64(c.attrTrap), float64(c.attrTotal)), "ratio", nOps)
	rep.add("attr.explicit_frac", ratio(float64(c.attrExplicit), float64(c.attrTotal)), "ratio", nOps)

	rep.add("gc.cpu_frac", ratio(gc.gcCPU, gc.totalCPU), "ratio", tracedPasses)
	rep.add("gc.count", ratio(gc.cycles, float64(tracedPasses)), "count", tracedPasses)
	rep.add("heap.alloc_mb_per_op", ratio(gc.allocBytes/1e6, float64(agg.ops)), "MB", int(agg.ops))

	// Tracing adds this share of host time to a pass; equal numbers of
	// traced and untraced passes run.
	rep.add("trace.overhead_frac", ratio(float64(st.tracedWall), float64(st.wall-st.tracedWall))-1, "ratio", tracedPasses)

	probe, err := probeTrap()
	if err != nil {
		return fmt.Errorf("host trap probe: %w", err)
	}
	model := arch.IA32Win()
	rep.add("trap.host_fault_ns", probe.faultNs, "ns", probe.batches)
	rep.add("trap.host_load_ns", probe.loadNs, "ns", probe.batches)
	rep.add("trap.host_ratio", probe.faultNs/probe.loadNs, "ratio", probe.batches)
	rep.add("trap.model_ratio", float64(model.TrapDispatchCycles)/float64(model.LoadCycles), "ratio", 1)

	agg.writeSelfTimes(rep.out)
	return writeSpanFile(cfg, agg, rep.out)
}

func writeSpanFile(cfg config, agg *traceAgg, out io.Writer) error {
	if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
		return err
	}
	f, err := os.Create(cfg.spans)
	if err != nil {
		return err
	}
	if err := agg.writeSpans(f, cfg.workload, cfg.seed); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", cfg.spans, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", cfg.spans, err)
	}
	fmt.Fprintf(out, "spans written to %s\n", cfg.spans)
	return nil
}
