// Package rt implements the simulated runtime the compiled code runs
// against: a flat word-addressed heap with the address-space layout the
// paper's trap mechanism depends on, object and array allocation, and the
// exception kinds of the source language.
//
// Address space:
//
//	[0, trapArea)        protected page(s): an access here is a hardware
//	                     trap candidate — whether it actually traps depends
//	                     on the architecture model and the access kind
//	[trapArea, HeapBase) unprotected gap: models memory a big-offset access
//	                     through a null reference could hit without any
//	                     trap (Figure 5(1)); reads yield zero, writes are
//	                     swallowed
//	[HeapBase, ...)      the real heap, bump-allocated
package rt

import (
	"fmt"

	"trapnull/internal/ir"
)

// HeapBase is the address of the first heap word. It exceeds the largest
// field offset the source language permits (512 KB, JVM spec §4 as cited by
// the paper), so a null-based big-offset access always lands in the
// unprotected gap, never on a live object.
const HeapBase = int64(1) << 20

// ExcKind enumerates the exceptions the runtime can raise.
type ExcKind int32

const (
	ExcNone ExcKind = iota
	ExcNullPointer
	ExcArrayIndexOutOfBounds
	ExcArithmetic
	ExcNegativeArraySize
)

func (k ExcKind) String() string {
	switch k {
	case ExcNone:
		return "none"
	case ExcNullPointer:
		return "NullPointerException"
	case ExcArrayIndexOutOfBounds:
		return "ArrayIndexOutOfBoundsException"
	case ExcArithmetic:
		return "ArithmeticException"
	case ExcNegativeArraySize:
		return "NegativeArraySizeException"
	}
	return fmt.Sprintf("exc(%d)", int32(k))
}

// excClassBase distinguishes exception object headers from user class IDs
// (user class IDs are small positive numbers).
const excClassBase = int64(1) << 40

// Heap is the simulated memory.
type Heap struct {
	words []int64 // heap cells; words[i] is address HeapBase + 8*i
	next  int64   // bump pointer (address)
}

// NewHeap returns an empty heap with the given initial capacity in words.
func NewHeap(capWords int) *Heap {
	if capWords < 1024 {
		capWords = 1024
	}
	return &Heap{words: make([]int64, 0, capWords), next: HeapBase}
}

// Reset discards all allocations.
func (h *Heap) Reset() {
	h.words = h.words[:0]
	h.next = HeapBase
}

// AllocWords allocates n zeroed words and returns the base address.
func (h *Heap) AllocWords(n int64) int64 {
	if n < 0 {
		panic("rt: negative allocation")
	}
	addr := h.next
	h.next += n * ir.WordBytes
	need := (h.next - HeapBase) / ir.WordBytes
	if old := int64(len(h.words)); old < need {
		if need <= int64(cap(h.words)) {
			// Reset keeps capacity, so re-extended cells hold stale values
			// from the previous run and must be re-zeroed.
			h.words = h.words[:need]
			clear(h.words[old:])
		} else {
			newCap := 2 * int64(cap(h.words))
			if newCap < need {
				newCap = need
			}
			grown := make([]int64, need, newCap)
			copy(grown, h.words)
			h.words = grown
		}
	}
	return addr
}

// AllocObject allocates an object of the given class: header word holding
// the class ID, then its fields, zeroed.
func (h *Heap) AllocObject(c *ir.Class) int64 {
	n := int64(c.SizeBytes) / ir.WordBytes
	if int64(c.SizeBytes)%ir.WordBytes != 0 {
		n++
	}
	addr := h.AllocWords(n)
	h.store(addr, int64(c.ID))
	return addr
}

// AllocArray allocates an array of length words: the length slot at offset
// zero, then the elements.
func (h *Heap) AllocArray(length int64) int64 {
	addr := h.AllocWords(length + 1)
	h.store(addr, length)
	return addr
}

// AllocException allocates an exception object for kind k.
func (h *Heap) AllocException(k ExcKind) int64 {
	addr := h.AllocWords(2)
	h.store(addr, excClassBase+int64(k))
	return addr
}

// ExcKindOf returns the exception kind of the object at ref, or ExcNone.
func (h *Heap) ExcKindOf(ref int64) ExcKind {
	if ref < HeapBase {
		return ExcNone
	}
	hdr, ok := h.Peek(ref)
	if !ok || hdr < excClassBase {
		return ExcNone
	}
	return ExcKind(hdr - excClassBase)
}

// ClassIDOf returns the header word of the object at ref.
func (h *Heap) ClassIDOf(ref int64) int64 {
	v, _ := h.Peek(ref)
	return v
}

// Peek reads a heap word without access semantics (for inspection only).
func (h *Heap) Peek(addr int64) (int64, bool) {
	i := (addr - HeapBase) / ir.WordBytes
	if addr < HeapBase || i >= int64(len(h.words)) {
		return 0, false
	}
	return h.words[i], true
}

// store writes a heap word, ignoring out-of-range addresses (the caller has
// validated allocation).
func (h *Heap) store(addr, v int64) {
	i := (addr - HeapBase) / ir.WordBytes
	if addr >= HeapBase && i < int64(len(h.words)) {
		h.words[i] = v
	}
}

// AccessResult describes the outcome of a memory access.
type AccessResult int

const (
	// AccessOK: the access hit live heap.
	AccessOK AccessResult = iota
	// AccessTrapCandidate: the address lies in the protected area; whether
	// the machine turns it into a trap depends on the model.
	AccessTrapCandidate
	// AccessGarbage: the address lies in the unprotected gap or past the
	// heap: reads yield zero, writes vanish, no trap ever fires.
	AccessGarbage
)

// Classify reports what region an access to addr touches given the
// protected-area size.
func (h *Heap) Classify(addr, trapArea int64) AccessResult {
	switch {
	case addr >= 0 && addr < trapArea:
		return AccessTrapCandidate
	case addr >= HeapBase && (addr-HeapBase)/ir.WordBytes < int64(len(h.words)):
		return AccessOK
	default:
		return AccessGarbage
	}
}

// Load reads the word at addr assuming Classify returned AccessOK.
func (h *Heap) Load(addr int64) int64 {
	return h.words[(addr-HeapBase)/ir.WordBytes]
}

// Store writes the word at addr assuming Classify returned AccessOK.
func (h *Heap) Store(addr, v int64) {
	h.words[(addr-HeapBase)/ir.WordBytes] = v
}

// Live returns the allocated words: Live()[i] is the word at address
// HeapBase + 8*i. An address at or above both HeapBase and the trap area is
// AccessOK exactly when its index falls inside this slice. The slice is
// valid until the next allocation or Reset.
func (h *Heap) Live() []int64 { return h.words }
