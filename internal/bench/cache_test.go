package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/workloads"
)

// TestCompileCacheDeterminism is the cache acceptance gate: a cache-on sweep
// and a cache-off sweep must render byte-identical timing-free artifacts and
// identical per-cell simulated measurements, static statistics, and fate
// histograms. Only host compile timings may differ (each sweep keeps its
// own fastest rep).
func TestCompileCacheDeterminism(t *testing.T) {
	on, err := RunAll(Options{Quick: true, CompileReps: 2, Parallelism: 4,
		CompileCache: CacheOn, Remarks: true})
	if err != nil {
		t.Fatalf("cache-on sweep: %v", err)
	}
	off, err := RunAll(Options{Quick: true, CompileReps: 2, Parallelism: 4,
		CompileCache: CacheOff, Remarks: true})
	if err != nil {
		t.Fatalf("cache-off sweep: %v", err)
	}

	onArts, offArts := on.Artifacts(), off.Artifacts()
	for _, name := range timingFreeArtifacts {
		if o, f := onArts[name](), offArts[name](); o != f {
			t.Errorf("%s differs with the compile cache on:\n--- on ---\n%s\n--- off ---\n%s", name, o, f)
		}
	}

	pairs := []struct {
		name    string
		on, off *Matrix
	}{
		{"WinJB", on.WinJB, off.WinJB},
		{"WinSpec", on.WinSpec, off.WinSpec},
		{"AIXJB", on.AIXJB, off.AIXJB},
		{"AIXSpec", on.AIXSpec, off.AIXSpec},
	}
	for _, pr := range pairs {
		if pr.on.CompileCache == nil {
			t.Errorf("%s: cache-on matrix has no cache stats", pr.name)
		} else if want := int64(len(pr.on.Configs) * len(pr.on.Workloads)); pr.on.CompileCache.Misses != want {
			// Every cell is a distinct (program, projection) pair, so every
			// cell compiles exactly once — deterministic miss count.
			t.Errorf("%s: %d misses, want %d (one per cell)", pr.name, pr.on.CompileCache.Misses, want)
		}
		if pr.off.CompileCache != nil {
			t.Errorf("%s: cache-off matrix carries cache stats", pr.name)
		}
		for _, cfg := range pr.on.Configs {
			for _, w := range pr.on.Workloads {
				oc, fc := pr.on.Cell(cfg.Name, w.Name), pr.off.Cell(cfg.Name, w.Name)
				if oc == nil || fc == nil {
					t.Fatalf("%s %s/%s: missing cell", pr.name, cfg.Name, w.Name)
				}
				if oc.Cycles != fc.Cycles || oc.Exec != fc.Exec {
					t.Errorf("%s %s/%s: cached cell measured differently: cycles %d vs %d",
						pr.name, cfg.Name, w.Name, oc.Cycles, fc.Cycles)
				}
				os, fs := oc.Static, fc.Static
				if os.Checks != fs.Checks || os.Inline != fs.Inline || os.Scalar != fs.Scalar ||
					os.BoundChecksRemoved != fs.BoundChecksRemoved || os.FuncsCompiled != fs.FuncsCompiled {
					t.Errorf("%s %s/%s: static stats differ with cache on:\n%+v\nvs\n%+v",
						pr.name, cfg.Name, w.Name, os, fs)
				}
				if !reflect.DeepEqual(oc.Fates, fc.Fates) {
					t.Errorf("%s %s/%s: fate histograms differ with cache on:\n%+v\nvs\n%+v",
						pr.name, cfg.Name, w.Name, oc.Fates, fc.Fates)
				}
			}
		}
	}
}

// TestCompileCacheFateReattribution pins the no-double-count contract: when
// several cells hit one cached entry, each cell's fate histogram is
// re-derived from the shared immutable ledger, not accumulated into it. Two
// configs differing only in display name share every cache key, so the
// second config's cells are guaranteed hits.
func TestCompileCacheFateReattribution(t *testing.T) {
	model := arch.IA32Win()
	base := jit.ConfigPhase1Phase2()
	clone := base
	clone.Name = base.Name + "-clone"
	clone.Verify = !base.Verify // projection-excluded field: still the same key
	ws := workloads.JBYTEmark()[:3]

	m, err := Run(model, []jit.Config{base, clone}, ws,
		Options{Quick: true, CompileReps: 1, CompileCache: CacheOn, Remarks: true})
	if err != nil {
		t.Fatal(err)
	}
	st := m.CompileCache
	if st == nil {
		t.Fatal("no cache stats")
	}
	if want := int64(len(ws)); st.Misses != want || st.Hits != want {
		t.Fatalf("stats = %+v, want %d misses and %d hits (clone cells all hit)", *st, want, want)
	}
	for _, w := range ws {
		b, c := m.Cell(base.Name, w.Name), m.Cell(clone.Name, w.Name)
		if b == nil || c == nil || b.Fates == nil || c.Fates == nil {
			t.Fatalf("%s: missing cell or fates", w.Name)
		}
		// Identical histograms — and in particular NOT doubled on the hit.
		if *b.Fates != *c.Fates {
			t.Errorf("%s: hit cell's fates differ from miss cell's:\nmiss %+v\nhit  %+v", w.Name, b.Fates, c.Fates)
		}
		if b.Cycles != c.Cycles || b.Exec != c.Exec {
			t.Errorf("%s: hit cell measured differently from miss cell", w.Name)
		}
	}
}

// TestCompileCacheMissTimesAllReps pins the compile-time measurement under
// the cache: a miss times CompileReps fresh build+compile reps, as the
// uncached path does, and a hit compiles nothing and replays the stored
// best-of-N times.
func TestCompileCacheMissTimesAllReps(t *testing.T) {
	const reps = 3
	base := jit.ConfigPhase1Phase2()
	clone := base
	clone.Name = base.Name + "-clone" // same key: its cell hits
	w := *workloads.JBYTEmark()[0]
	build, builds := w.Build, 0
	w.Build = func() (*ir.Program, *ir.Method) {
		builds++
		return build()
	}

	m, err := Run(arch.IA32Win(), []jit.Config{base, clone}, []*workloads.Workload{&w},
		Options{Quick: true, CompileReps: reps, Parallelism: 1, CompileCache: CacheOn})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.CompileCache; st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want one miss and one hit", *st)
	}
	// The miss builds once per rep; the hit builds once to key its lookup.
	if builds != reps+1 {
		t.Fatalf("%d builds, want %d (%d timed reps on the miss, 1 for the hit)", builds, reps+1, reps)
	}
	miss, hit := m.Cell(base.Name, w.Name), m.Cell(clone.Name, w.Name)
	if miss.CompileNull != hit.CompileNull || miss.CompileOther != hit.CompileOther {
		t.Fatalf("hit did not replay the miss's times: miss %v+%v, hit %v+%v",
			miss.CompileNull, miss.CompileOther, hit.CompileNull, hit.CompileOther)
	}
}

// TestCompileCacheEntryImmutable deep-freezes a cache entry and verifies
// that consuming it the way runOneCached does — executing the program,
// re-deriving statistics — leaves every byte of it untouched.
func TestCompileCacheEntryImmutable(t *testing.T) {
	model := arch.IA32Win()
	cfg := jit.ConfigPhase1Phase2()
	w, err := workloads.ByName("Assignment")
	if err != nil {
		t.Fatal(err)
	}
	cache := jit.NewCache(0)
	p, entryM := w.Build()
	entry, _, err := cache.GetOrCompile(jit.Key(p, cfg, model), false, func() (*jit.CacheEntry, error) {
		res, cerr := jit.CompileProgram(p, cfg, model)
		if cerr != nil {
			return nil, cerr
		}
		return &jit.CacheEntry{Program: p, Result: res}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	freeze := func() (string, string) {
		var sb strings.Builder
		for _, m := range entry.Program.Methods {
			if m.Fn != nil {
				sb.WriteString(m.Fn.String())
			}
		}
		return sb.String(), fmt.Sprintf("%+v", *entry.Result)
	}
	irBefore, resBefore := freeze()

	for i := 0; i < 2; i++ { // two consumers, as two hit cells would be
		mach := machine.New(model, entry.Program)
		out, err := mach.Call(entry.Program.MethodByName(entryM.QualifiedName()).Fn, w.TestN)
		if err != nil {
			t.Fatal(err)
		}
		if want := w.Ref(w.TestN); out.Value != want {
			t.Fatalf("checksum mismatch: got %d, want %d", out.Value, want)
		}
		derived := *entry.Result // per-cell stats are copies
		derived.FuncsCompiled++  // mutate the copy, never the entry
		_ = derived
	}

	irAfter, resAfter := freeze()
	if irBefore != irAfter {
		t.Error("executing a cached program mutated its IR")
	}
	if resBefore != resAfter {
		t.Errorf("consuming a cached Result mutated it:\nbefore %s\nafter  %s", resBefore, resAfter)
	}
}

// TestCompileCacheJSONGating: the compile_cache JSON block appears exactly
// when the cache ran, so cache-off JSON stays byte-compatible with the
// pre-cache shape.
func TestCompileCacheJSONGating(t *testing.T) {
	on, err := RunAll(Options{Quick: true, CompileReps: 1, Parallelism: 4, CompileCache: CacheOn})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunAll(Options{Quick: true, CompileReps: 1, Parallelism: 4, CompileCache: CacheOff})
	if err != nil {
		t.Fatal(err)
	}
	jOn, err := on.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jOff, err := off.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"compile_cache"`, `"lookups"`, `"misses"`} {
		if !strings.Contains(string(jOn), want) {
			t.Errorf("cache-on JSON missing %s", want)
		}
	}
	if strings.Contains(string(jOff), `"compile_cache"`) {
		t.Error("cache-off JSON contains compile_cache; the block must be omitted")
	}
}

// TestCompileCacheEnvSwitch: TRAPNULL_COMPILE_CACHE governs CacheAuto.
func TestCompileCacheEnvSwitch(t *testing.T) {
	t.Setenv("TRAPNULL_COMPILE_CACHE", "off")
	if (Options{}).cacheEnabled() {
		t.Error("TRAPNULL_COMPILE_CACHE=off ignored by CacheAuto")
	}
	if !(Options{CompileCache: CacheOn}).cacheEnabled() {
		t.Error("CacheOn must override the environment")
	}
	t.Setenv("TRAPNULL_COMPILE_CACHE", "1")
	if !(Options{}).cacheEnabled() {
		t.Error("TRAPNULL_COMPILE_CACHE=1 should leave the cache on")
	}
	if (Options{CompileCache: CacheOff}).cacheEnabled() {
		t.Error("CacheOff must override the environment")
	}
}
