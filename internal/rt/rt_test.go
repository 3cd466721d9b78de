package rt

import (
	"testing"
	"testing/quick"

	"trapnull/internal/ir"
)

func TestAllocObjectLayout(t *testing.T) {
	h := NewHeap(0)
	cls := &ir.Class{Name: "C", ID: 7, SizeBytes: 24}
	addr := h.AllocObject(cls)
	if addr != HeapBase {
		t.Fatalf("first allocation at %#x, want HeapBase %#x", addr, HeapBase)
	}
	if got := h.ClassIDOf(addr); got != 7 {
		t.Fatalf("header = %d, want class ID 7", got)
	}
	// Fields start zeroed.
	if v, ok := h.Peek(addr + 8); !ok || v != 0 {
		t.Fatalf("field not zeroed: %d ok=%v", v, ok)
	}
}

func TestAllocArrayLengthSlot(t *testing.T) {
	h := NewHeap(0)
	arr := h.AllocArray(5)
	if v, ok := h.Peek(arr); !ok || v != 5 {
		t.Fatalf("length slot = %d ok=%v, want 5", v, ok)
	}
	h.Store(arr+ir.ArrayHeaderBytes+3*ir.WordBytes, 99)
	if got := h.Load(arr + ir.ArrayHeaderBytes + 3*ir.WordBytes); got != 99 {
		t.Fatalf("element = %d, want 99", got)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	h := NewHeap(0)
	a := h.AllocArray(4) // 5 words
	b := h.AllocArray(4)
	if b < a+5*ir.WordBytes {
		t.Fatalf("allocations overlap: %#x then %#x", a, b)
	}
	h.Store(a+ir.ArrayHeaderBytes, 1)
	h.Store(b+ir.ArrayHeaderBytes, 2)
	if h.Load(a+ir.ArrayHeaderBytes) != 1 {
		t.Fatal("write to b clobbered a")
	}
}

func TestClassifyRegions(t *testing.T) {
	h := NewHeap(0)
	addr := h.AllocArray(2)
	const trapArea = 4096
	cases := []struct {
		addr int64
		want AccessResult
	}{
		{0, AccessTrapCandidate},
		{8, AccessTrapCandidate},
		{trapArea - 8, AccessTrapCandidate},
		{trapArea, AccessGarbage},
		{HeapBase - 8, AccessGarbage},
		{addr, AccessOK},
		{addr + 16, AccessOK},
		{h.next, AccessGarbage}, // just past the bump pointer
	}
	for _, c := range cases {
		if got := h.Classify(c.addr, trapArea); got != c.want {
			t.Fatalf("Classify(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestExceptionObjects(t *testing.T) {
	h := NewHeap(0)
	for _, k := range []ExcKind{ExcNullPointer, ExcArrayIndexOutOfBounds, ExcArithmetic, ExcNegativeArraySize} {
		ref := h.AllocException(k)
		if got := h.ExcKindOf(ref); got != k {
			t.Fatalf("ExcKindOf = %v, want %v", got, k)
		}
	}
	// Non-exception objects report ExcNone.
	cls := &ir.Class{Name: "C", ID: 1, SizeBytes: 16}
	obj := h.AllocObject(cls)
	if h.ExcKindOf(obj) != ExcNone {
		t.Fatal("plain object classified as exception")
	}
	if h.ExcKindOf(0) != ExcNone {
		t.Fatal("null classified as exception")
	}
}

func TestResetClearsHeap(t *testing.T) {
	h := NewHeap(0)
	h.AllocArray(10)
	h.Reset()
	if n := len(h.Live()); n != 0 {
		t.Fatalf("%d live words after Reset", n)
	}
	if addr := h.AllocArray(1); addr != HeapBase {
		t.Fatalf("allocation after Reset at %#x, want HeapBase", addr)
	}
}

func TestExcKindStrings(t *testing.T) {
	if ExcNullPointer.String() != "NullPointerException" {
		t.Fatalf("got %q", ExcNullPointer.String())
	}
	if ExcNone.String() != "none" {
		t.Fatalf("got %q", ExcNone.String())
	}
}

func TestQuickLoadStoreRoundTrip(t *testing.T) {
	h := NewHeap(0)
	arr := h.AllocArray(64)
	f := func(idx uint8, v int64) bool {
		i := int64(idx % 64)
		addr := arr + ir.ArrayHeaderBytes + i*ir.WordBytes
		h.Store(addr, v)
		return h.Load(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocationAlwaysInHeapRegion(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := NewHeap(0)
		const trapArea = 4096
		for _, s := range sizes {
			addr := h.AllocWords(int64(s%32) + 1)
			if h.Classify(addr, trapArea) != AccessOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
