package machine

import (
	"fmt"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/rt"
)

// Pattern-based differential test of the closure engine's block endings.
// Every terminator shape — the ones the block loop evaluates in line and the
// ones that stay step closures — is placed after every block shape that
// changes how the engine runs the block, and each resulting function runs on
// both engines over inputs that drive each branch both ways, with the step
// limit off and placed one before, on and one after the terminator.

// termShape emits the entry block's terminator. thenB and elseB return 1
// and 2. decoded says whether the block loop should evaluate it in line.
type termShape struct {
	name    string
	void    bool // the function returns nothing
	decoded bool
	edges   int // how many of then/else it can branch to
	emit    func(b *ir.Builder, ps termParams, thenB, elseB *ir.Block)
}

// termParams are the parameters every generated function takes.
type termParams struct {
	x, y, f, obj, arr, exc, z ir.VarID
}

// blockShape emits the entry block's body before its terminator.
// segmented marks a block the engine splits at a call, whose terminator
// therefore stays a closure.
type blockShape struct {
	name      string
	segmented bool
	emit      func(b *ir.Builder, ps termParams, c *ir.Class, callee *ir.Method)
}

var termConds = []ir.Cond{ir.CondEQ, ir.CondNE, ir.CondLT, ir.CondLE, ir.CondGT, ir.CondGE}

func termShapes() []termShape {
	var shapes []termShape
	shapes = append(shapes, termShape{name: "jump", decoded: true, edges: 1,
		emit: func(b *ir.Builder, ps termParams, thenB, _ *ir.Block) { b.Jump(thenB) }})
	for _, c := range termConds {
		c := c
		shapes = append(shapes,
			termShape{name: "if-" + c.String() + "-vk", decoded: true, edges: 2,
				emit: func(b *ir.Builder, ps termParams, thenB, elseB *ir.Block) {
					b.If(c, ir.Var(ps.x), ir.ConstInt(5), thenB, elseB)
				}},
			termShape{name: "if-" + c.String() + "-vv", decoded: true, edges: 2,
				emit: func(b *ir.Builder, ps termParams, thenB, elseB *ir.Block) {
					b.If(c, ir.Var(ps.x), ir.Var(ps.y), thenB, elseB)
				}})
	}
	shapes = append(shapes,
		termShape{name: "return-var", decoded: true,
			emit: func(b *ir.Builder, ps termParams, _, _ *ir.Block) { b.Return(ir.Var(ps.x)) }},
		termShape{name: "return-const", decoded: true,
			emit: func(b *ir.Builder, ps termParams, _, _ *ir.Block) { b.Return(ir.ConstInt(7)) }},
		termShape{name: "return-void", void: true, decoded: true,
			emit: func(b *ir.Builder, ps termParams, _, _ *ir.Block) { b.ReturnVoid() }},
		// The shapes below stay step closures.
		termShape{name: "if-float", edges: 2,
			emit: func(b *ir.Builder, ps termParams, thenB, elseB *ir.Block) {
				b.If(ir.CondLT, ir.Var(ps.f), ir.ConstFloat(2.5), thenB, elseB)
			}},
		termShape{name: "if-const-lhs", edges: 2,
			emit: func(b *ir.Builder, ps termParams, thenB, elseB *ir.Block) {
				b.If(ir.CondLT, ir.ConstInt(5), ir.Var(ps.x), thenB, elseB)
			}},
		termShape{name: "throw",
			emit: func(b *ir.Builder, ps termParams, _, _ *ir.Block) { b.Throw(ps.exc) }},
		termShape{name: "cmp-if-fused", edges: 2,
			emit: func(b *ir.Builder, ps termParams, thenB, elseB *ir.Block) {
				c := b.Temp(ir.KindInt)
				b.Cmp(c, ir.CondLE, ir.Var(ps.x), ir.Var(ps.y))
				b.If(ir.CondNE, ir.Var(c), ir.ConstInt(0), thenB, elseB)
			}},
	)
	return shapes
}

func blockShapes() []blockShape {
	return []blockShape{
		{name: "term-only", emit: func(*ir.Builder, termParams, *ir.Class, *ir.Method) {}},
		{name: "stretch", emit: func(b *ir.Builder, ps termParams, _ *ir.Class, _ *ir.Method) {
			v := b.Temp(ir.KindInt)
			b.Binop(ir.OpAdd, v, ir.Var(ps.x), ir.ConstInt(1))
			b.Binop(ir.OpMul, v, ir.Var(v), ir.Var(ps.y))
			b.Binop(ir.OpSub, v, ir.Var(v), ir.ConstInt(3))
		}},
		// nullcheck;getfield on the same base fuses into one closure.
		{name: "nullcheck-pair", emit: func(b *ir.Builder, ps termParams, c *ir.Class, _ *ir.Method) {
			v := b.Temp(ir.KindInt)
			b.GetField(v, ps.obj, c.FieldByName("f"))
		}},
		// nullcheck;arraylength and boundcheck;arrayload both fuse.
		{name: "boundcheck-pair", emit: func(b *ir.Builder, ps termParams, _ *ir.Class, _ *ir.Method) {
			v := b.Temp(ir.KindInt)
			b.ArrayLoad(v, ps.arr, ir.Var(ps.x))
		}},
		// A call, then a stretch long enough to be charged on its own.
		{name: "after-call", segmented: true, emit: func(b *ir.Builder, ps termParams, _ *ir.Class, callee *ir.Method) {
			v := b.Temp(ir.KindInt)
			b.CallStatic(v, callee, ir.Var(ps.x))
			b.Binop(ir.OpAdd, v, ir.Var(v), ir.ConstInt(1))
			b.Binop(ir.OpAdd, v, ir.Var(v), ir.ConstInt(2))
			b.Binop(ir.OpAdd, v, ir.Var(v), ir.ConstInt(3))
		}},
		// In a try region (set up by buildTermFunc): the division raises
		// when z is 0, before the terminator is reached.
		{name: "try-raise", emit: func(b *ir.Builder, ps termParams, _ *ir.Class, _ *ir.Method) {
			v := b.Temp(ir.KindInt)
			b.Binop(ir.OpAdd, v, ir.Var(ps.x), ir.ConstInt(1))
			b.Binop(ir.OpDiv, v, ir.ConstInt(100), ir.Var(ps.z))
			b.Binop(ir.OpAdd, v, ir.Var(v), ir.ConstInt(1))
		}},
	}
}

// buildTermFunc builds one function: entry runs bs then ts; the then/else
// blocks return 1 and 2 (or return nothing in a void function); a
// try-raise entry is covered by a handler that returns -1.
func buildTermFunc(bs blockShape, ts termShape, c *ir.Class, callee *ir.Method) *ir.Func {
	b := ir.NewFunc(bs.name+"/"+ts.name, false)
	ps := termParams{
		x:   b.Param("x", ir.KindInt),
		y:   b.Param("y", ir.KindInt),
		f:   b.Param("f", ir.KindFloat),
		obj: b.Param("obj", ir.KindRef),
		arr: b.Param("arr", ir.KindRef),
		exc: b.Param("exc", ir.KindRef),
		z:   b.Param("z", ir.KindInt),
	}
	if !ts.void {
		b.Result(ir.KindInt)
	}
	ret := func(v int64) {
		if ts.void {
			b.ReturnVoid()
		} else {
			b.Return(ir.ConstInt(v))
		}
	}
	entry := b.Block("entry")
	thenB := b.DeclareBlock("then")
	elseB := b.DeclareBlock("else")
	handler := b.DeclareBlock("handler")
	exc := b.Local("caught", ir.KindRef)
	b.SetBlock(entry)
	bs.emit(b, ps, c, callee)
	ts.emit(b, ps, thenB, elseB)
	b.SetBlock(thenB)
	ret(1)
	b.SetBlock(elseB)
	ret(2)
	b.SetBlock(handler)
	ret(-1)
	f := b.F
	if bs.name == "try-raise" {
		entry.Try = f.NewRegion(handler, exc).ID
	}
	f.RecomputeEdges()
	if err := ir.Validate(f); err != nil {
		panic(fmt.Sprintf("%s: %v", f.Name, err))
	}
	return f
}

// termCase is one input vector of the generated functions.
type termCase struct {
	x       int64
	nullObj bool
	z       int64
}

func (tc termCase) args(m *Machine, c *ir.Class) []int64 {
	var obj int64
	if !tc.nullObj {
		obj = m.Heap.AllocObject(c)
		m.Heap.Store(obj+int64(c.FieldByName("f").Offset), 11)
	}
	arr := m.Heap.AllocArray(8)
	exc := m.Heap.AllocException(rt.ExcArithmetic)
	return []int64{tc.x, 5, fbits(float64(tc.x) / 2), obj, arr, exc, tc.z}
}

// termCases: x in {4, 5, 6} against 5 takes and skips every condition's
// branch (and the float if's, which compares x/2 with 2.5); a null obj
// raises in the nullcheck pair; z = 0 raises in the try region.
func termCases() []termCase {
	var cases []termCase
	for _, x := range []int64{4, 5, 6} {
		for _, nullObj := range []bool{false, true} {
			for _, z := range []int64{1, 0} {
				cases = append(cases, termCase{x, nullObj, z})
			}
		}
	}
	return cases
}

func TestTerminatorPatternsAgree(t *testing.T) {
	p, c := prog()
	cb := ir.NewFunc("inc", false)
	a := cb.Param("a", ir.KindInt)
	cb.Result(ir.KindInt)
	cb.Block("entry")
	r := cb.Temp(ir.KindInt)
	cb.Binop(ir.OpAdd, r, ir.Var(a), ir.ConstInt(1))
	cb.Return(ir.Var(r))
	callee := p.AddMethod(nil, "inc", cb.Finish(), false)

	for _, am := range []*arch.Model{arch.IA32Win(), arch.PPCAIX()} {
		for _, bs := range blockShapes() {
			for _, ts := range termShapes() {
				fn := buildTermFunc(bs, ts, c, callee)
				name := am.Name + "/" + fn.Name

				// The shape must take the path this test means to cover.
				m := New(am, p)
				got := m.compiled(fn).blocks[fn.Entry.ID].term.kind != tClosure
				if want := ts.decoded && !bs.segmented; got != want {
					t.Fatalf("%s: terminator decoded = %v, want %v", name, got, want)
				}

				branches := map[int64]bool{}
				for _, tc := range termCases() {
					setup := func(m *Machine) []int64 { return tc.args(m, c) }
					out, err := assertEnginesAgree(t, am, p, fn, 0, setup)
					if err != nil {
						t.Fatalf("%s %+v: %v", name, tc, err)
					}
					branches[out.Value] = true

					// Place the step limit around the terminator: the entry
					// block's instructions (plus the callee's) come first,
					// and the then/else block's single return comes after.
					rm := New(am, p)
					rm.Engine = EngineSwitch
					if _, err := rm.Call(fn, tc.args(rm, c)...); err != nil {
						t.Fatal(err)
					}
					termStep := rm.Stats.Instrs
					if ts.edges > 0 && (out.Value == 1 || out.Value == 2) {
						termStep--
					}
					for _, limit := range []int64{termStep - 1, termStep, termStep + 1} {
						assertEnginesAgree(t, am, p, fn, limit, setup)
					}
				}
				if ts.edges == 2 && !(branches[1] && branches[2]) {
					t.Fatalf("%s: branch outcomes %v, want both edges taken", name, branches)
				}
			}
		}
	}
}
