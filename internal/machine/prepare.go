package machine

import (
	"math"

	"trapnull/internal/ir"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
)

// This file implements the prepared-instruction tables of the exec loop.
// Operand classification (the switch over Operand.Kind the interpreter used
// to re-run on every dynamic instruction) is hoisted to a once-per-function
// decode: each operand becomes a pOp that either names a local slot or
// carries both integer and float views of its constant, and each block gets
// a pInstr slice parallel to its Instrs. Tables are cached per *ir.Func and
// invalidated by pointer identity — every compilation builds fresh Func
// values, so a stale table cannot be observed as long as a function's IR is
// not mutated between Calls on the same Machine (nothing in this repository
// does; compilation always completes before execution starts).

// pOp is a pre-decoded operand: a local slot index, or a constant carried in
// both of the views the exec loop needs.
type pOp struct {
	varIdx  int32 // local slot, or -1 for constants
	isFloat bool  // float-kinded (float constant or float-kinded local)
	i64     int64 // constant as the integer word val() yields
	f64     float64
}

// pInstr pairs an instruction with its pre-decoded operands. chk is the
// per-check profile cell, bound once at prepare time for OpNullCheck when a
// profile is attached, so the hot path pays plain field increments and never
// a map lookup.
type pInstr struct {
	in   *ir.Instr
	args []pOp
	chk  *obs.CheckCounts
}

// pFunc holds one function's prepared blocks, dense by Block.ID.
type pFunc struct {
	blocks [][]pInstr
}

func decodeOperand(fn *ir.Func, o ir.Operand) pOp {
	switch o.Kind {
	case ir.OperVar:
		return pOp{varIdx: int32(o.Var), isFloat: fn.Locals[o.Var].Kind == ir.KindFloat}
	case ir.OperConstInt:
		return pOp{varIdx: -1, i64: o.Int, f64: float64(o.Int)}
	case ir.OperConstFloat:
		return pOp{varIdx: -1, isFloat: true, i64: int64(math.Float64bits(o.Float)), f64: o.Float}
	default: // null (and the invalid zero operand): the zero word
		return pOp{varIdx: -1}
	}
}

// maxPreparedFuncs bounds both per-function caches (prepared tables and
// closure-compiled functions). The caches are keyed by *ir.Func identity and
// every compilation builds fresh Func values, so long triage/fuzz sessions
// that push thousands of distinct functions through one Machine would
// otherwise grow them without limit. Hitting the bound evicts one cold entry
// per insertion (second chance, see fncache.go); a working set slightly
// larger than the bound no longer drops everything and re-prepares from
// scratch each lap.
const maxPreparedFuncs = 512

// ResetPrepared drops all cached per-function tables (prepared operands and
// closure-compiled code). Callers that replay many distinct Func values on
// one Machine — triage's bisection replays, long fuzz loops — call it
// between replays to keep the caches from retaining dead functions. Tables
// still referenced by an in-flight exec remain valid; only the cache entries
// are dropped.
func (m *Machine) ResetPrepared() {
	if m.prepared != nil {
		m.prepared.reset()
	}
	if m.compiledFns != nil {
		m.compiledFns.reset()
	}
	m.heapLo = max(rt.HeapBase, m.Arch.TrapAreaBytes)
	// Tier state indexes compiled artifacts by *ir.Func identity too; a replay
	// that swaps Func values must not dispatch through a stale speculative
	// closure, so the controller rebuilds from the current program.
	if m.tier != nil {
		m.tier.reset()
	}
}

// prepare returns fn's prepared table, building and caching it on first use.
func (m *Machine) prepare(fn *ir.Func) *pFunc {
	if m.prepared == nil {
		m.prepared = newFnCache[*pFunc](maxPreparedFuncs)
	}
	if pf, ok := m.prepared.get(fn); ok {
		return pf
	}
	pf := &pFunc{blocks: make([][]pInstr, fn.MaxBlockID()+1)}
	for _, b := range fn.Blocks {
		pins := make([]pInstr, len(b.Instrs))
		for i, in := range b.Instrs {
			args := make([]pOp, len(in.Args))
			for j, o := range in.Args {
				args[j] = decodeOperand(fn, o)
			}
			pins[i] = pInstr{in: in, args: args}
			if in.Op == ir.OpNullCheck && m.Profile != nil {
				pins[i].chk = m.Profile.CheckCounter(in)
			}
			if m.attrSites && in.ExcSite && m.Profile != nil {
				// Attribution counts executions at implicit sites too; the
				// governor bind below overrides with its canonical cell when
				// both are somehow enabled, so traps are never double-counted.
				pins[i].chk = m.Profile.CheckCounter(in)
			}
			if m.tier != nil && m.tier.gov != nil {
				// Governed machines profile trap sites (and demoted checks)
				// through canonical per-(method, ordinal) cells that survive
				// artifact generations; see governor.bind.
				m.tier.gov.bind(m.tier, fn, &pins[i])
			}
		}
		pf.blocks[b.ID] = pins
	}
	m.prepared.put(fn, pf)
	return pf
}
