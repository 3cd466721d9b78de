package bench

import (
	"fmt"
	"strings"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/machine"
	"trapnull/internal/obs"
	"trapnull/internal/workloads"
)

// TestCompileCacheDeterminism is the cache acceptance gate: every cell of a
// quick sweep, compiled through the sweep's cache, must measure exactly what
// a direct cache-free compile and run of the same cell measures — cycles,
// dynamic counters, static statistics and fate histograms. Only host
// compile timings may differ.
func TestCompileCacheDeterminism(t *testing.T) {
	rep, err := RunAll(Options{Quick: true, CompileReps: 2, Parallelism: 4, Remarks: true})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, mx := range []struct {
		name string
		m    *Matrix
	}{
		{"WinJB", rep.WinJB},
		{"WinSpec", rep.WinSpec},
		{"AIXJB", rep.AIXJB},
		{"AIXSpec", rep.AIXSpec},
	} {
		m := mx.m
		// Every cell is a distinct (program, projection) pair, so every cell
		// compiles exactly once — deterministic miss count.
		if want := int64(len(m.Configs) * len(m.Workloads)); m.CompileCache.Misses != want {
			t.Errorf("%s: %d misses, want %d (one per cell)", mx.name, m.CompileCache.Misses, want)
		}
		for _, cfg := range m.Configs {
			for _, w := range m.Workloads {
				id := mx.name + " " + cfg.Name + "/" + w.Name
				c := m.Cell(cfg.Name, w.Name)
				if c == nil || c.Failed() {
					t.Fatalf("%s: missing or failed cell: %+v", id, c)
				}

				p, entryM := w.Build()
				rem := obs.NewRemarks()
				res, err := jit.CompileProgramWith(p, cfg, m.Model,
					jit.CompileOptions{Observer: &jit.Observer{Remarks: rem}})
				if err != nil {
					t.Fatalf("%s: direct compile: %v", id, err)
				}
				mach := machine.New(m.Model, p)
				if _, err := mach.Call(entryM.Fn, w.TestN); err != nil {
					t.Fatalf("%s: direct run: %v", id, err)
				}

				if c.Cycles != mach.Cycles || c.Exec != mach.Stats {
					t.Errorf("%s: cached cell measured differently: cycles %d vs direct %d",
						id, c.Cycles, mach.Cycles)
				}
				cs := c.Static
				if cs.Checks != res.Checks || cs.Inline != res.Inline || cs.Scalar != res.Scalar ||
					cs.BoundChecksRemoved != res.BoundChecksRemoved || cs.FuncsCompiled != res.FuncsCompiled {
					t.Errorf("%s: static stats differ from the direct compile:\n%+v\nvs\n%+v", id, cs, *res)
				}
				if fc := rem.Totals(); c.Fates == nil || *c.Fates != fc {
					t.Errorf("%s: fate histogram differs from the direct compile:\n%+v\nvs\n%+v", id, c.Fates, fc)
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
		Options{Quick: true, CompileReps: 1, Remarks: true})
	if err != nil {
		t.Fatal(err)
	}
	if st, want := m.CompileCache, int64(len(ws)); st.Misses != want || st.Hits != want {
		t.Fatalf("stats = %+v, want %d misses and %d hits (clone cells all hit)", st, want, want)
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
// the cache: a miss times CompileReps fresh build+compile reps, and a hit
// compiles nothing and replays the stored best-of-N times.
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
		Options{Quick: true, CompileReps: reps, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.CompileCache; st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want one miss and one hit", st)
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
// that consuming it the way runOne does — executing the program,
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

// TestCompileCacheJSONGating: every sweep runs through the compile cache,
// so the JSON report always carries its compile_cache block.
func TestCompileCacheJSONGating(t *testing.T) {
	rep, err := RunAll(Options{Quick: true, CompileReps: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"compile_cache"`, `"lookups"`, `"misses"`} {
		if !strings.Contains(string(j), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}
