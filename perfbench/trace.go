package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"trapnull/internal/jit"
	"trapnull/internal/obs"
)

// span is one timed interval of a traced op. Times are nanoseconds since the
// run's clock origin.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
	// Hit marks a cache lookup answered from the cache.
	Hit bool `json:"hit,omitempty"`
}

// opTrace records the spans of one traced op run. Perfbench opens a span
// around every call it makes into a layer; per-pass spans come from the
// jit.Observer trace the pipeline already emits. A nil *opTrace records
// nothing, so untraced runs take the same code path.
type opTrace struct {
	origin time.Time
	op     int64
	spans  []span
	// jitTrace receives the pipeline's function and pass spans; jitOffset
	// places its clock on the run's.
	jitTrace  *obs.Trace
	jitOffset int64

	// Compile-side totals taken around each CompileProgramWith call.
	nullNs, compileNs   int64
	mallocs, allocBytes uint64
	ms                  runtime.MemStats
}

func newOpTrace(origin time.Time, op int64) *opTrace {
	t := &opTrace{origin: origin, op: op}
	t.jitOffset = int64(time.Since(origin))
	t.jitTrace = obs.NewTrace()
	return t
}

func (t *opTrace) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: int32(len(t.spans) + 1), Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.origin)),
	})
	return int32(len(t.spans))
}

func (t *opTrace) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.Dur = int64(time.Since(t.origin)) - s.Start
}

func (t *opTrace) endLookup(id int32, hit bool) {
	if t == nil {
		return
	}
	t.end(id)
	t.spans[id-1].Hit = hit
}

// beginCompile opens a compile span and snapshots the allocator counters.
// The snapshot is taken before the span starts so its cost stays outside.
func (t *opTrace) beginCompile(parent int32) int32 {
	if t == nil {
		return 0
	}
	runtime.ReadMemStats(&t.ms)
	t.mallocs -= t.ms.Mallocs
	t.allocBytes -= t.ms.TotalAlloc
	return t.begin("compile", parent)
}

func (t *opTrace) endCompile(id int32, r *jit.Result) {
	if t == nil {
		return
	}
	t.end(id)
	runtime.ReadMemStats(&t.ms)
	t.mallocs += t.ms.Mallocs
	t.allocBytes += t.ms.TotalAlloc
	if r != nil {
		t.nullNs += int64(r.Times.NullCheckOpt)
		t.compileNs += int64(r.Times.Total())
	}
}

func (t *opTrace) observer() *jit.Observer {
	if t == nil {
		return nil
	}
	return &jit.Observer{Trace: t.jitTrace, TID: t.op}
}

// finish folds the pipeline's function and pass spans into the op's spans,
// each under the innermost span whose interval holds its midpoint, and
// derives every span's self time.
func (t *opTrace) finish() {
	events := t.jitTrace.Events()
	// Outer spans first, so a pass finds its function already placed.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].Dur > events[j].Dur
	})
	own := t.spans // perfbench's own spans; jit spans nest inside them
	var fn int32   // latest pipeline function span
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		start := t.jitOffset + int64(ev.TS*1e3)
		dur := int64(ev.Dur * 1e3)
		mid := start + dur/2
		name := "jit.func"
		var parent int32
		if ev.Cat == "pass" {
			name = "pass." + passName(ev.Name)
			if fn != 0 && holds(t.spans[fn-1], mid) {
				parent = fn
			}
		}
		if parent == 0 {
			for i := range own {
				if holds(own[i], mid) && (parent == 0 || own[i].Dur < own[parent-1].Dur) {
					parent = own[i].ID
				}
			}
		}
		t.spans = append(t.spans, span{
			ID: int32(len(t.spans) + 1), Parent: parent, Op: t.op, Name: name,
			Start: start, Dur: dur,
		})
		if ev.Cat != "pass" {
			fn = int32(len(t.spans))
		}
	}
	t.jitTrace = nil
	selfTimes(t.spans)
}

func holds(s span, t int64) bool { return s.Start <= t && t <= s.Start+s.Dur }

// passName strips the iteration suffix: phase1#2 is phase 1's third round.
func passName(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sets each span's self time: its duration minus the part of its
// interval that its children cover. IDs are 1-based positions.
func selfTimes(spans []span) {
	children := make(map[int32][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	for i := range spans {
		s := &spans[i]
		lo, hi := s.Start, s.Start+s.Dur
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), lo
		for _, k := range kids {
			a, b := max(k.Start, reach), min(k.Start+k.Dur, hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		s.Self = max(s.Dur-covered, 0)
	}
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	n           int64
	dur, self   int64
	hits, hitNs int64
}

// traceAgg accumulates the traced ops of a run.
type traceAgg struct {
	byName map[string]*spanTotals
	// kept holds the spans of the first traced pass, written out at the end.
	kept                []span
	nullNs, compileNs   int64
	mallocs, allocBytes uint64
	instrs              int64
	ops                 int64
}

func newTraceAgg() *traceAgg { return &traceAgg{byName: make(map[string]*spanTotals)} }

func (a *traceAgg) add(t *opTrace, instrs int64, keep bool) {
	for _, s := range t.spans {
		st := a.byName[s.Name]
		if st == nil {
			st = &spanTotals{}
			a.byName[s.Name] = st
		}
		st.n++
		st.dur += s.Dur
		st.self += s.Self
		if s.Hit {
			st.hits++
			st.hitNs += s.Dur
		}
	}
	if keep {
		a.kept = append(a.kept, t.spans...)
	}
	a.nullNs += t.nullNs
	a.compileNs += t.compileNs
	a.mallocs += t.mallocs
	a.allocBytes += t.allocBytes
	a.instrs += instrs
	a.ops++
}

func (a *traceAgg) get(name string) spanTotals {
	if st := a.byName[name]; st != nil {
		return *st
	}
	return spanTotals{}
}

// meanMs is the mean duration of the named spans in milliseconds.
func (a *traceAgg) meanMs(name string) float64 {
	st := a.get(name)
	return ratio(float64(st.dur), float64(st.n)) / 1e6
}

// writeSelfTimes prints the self time of every span name, largest first.
func (a *traceAgg) writeSelfTimes(w io.Writer) {
	names := make([]string, 0, len(a.byName))
	for n := range a.byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		si, sj := a.byName[names[i]].self, a.byName[names[j]].self
		if si != sj {
			return si > sj
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "self time by span over %d traced ops:\n", a.ops)
	for _, n := range names {
		st := a.byName[n]
		fmt.Fprintf(w, "  %-26s n=%-8d self=%10.3f ms  total=%10.3f ms\n", n, st.n, float64(st.self)/1e6, float64(st.dur)/1e6)
	}
}

// writeSpans writes the kept spans as one JSON document.
func (a *traceAgg) writeSpans(w io.Writer, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{workload, seed, "spans of the first traced pass; id and parent number spans within one op, and parent 0 marks the op's root span", a.kept}
	return json.NewEncoder(w).Encode(doc)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
