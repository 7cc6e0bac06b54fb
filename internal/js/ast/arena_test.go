package ast

import "testing"

// TestArenaDistinctNodes: every call hands out a fresh slot holding exactly
// the value passed in.
func TestArenaDistinctNodes(t *testing.T) {
	var a Arena
	seen := make(map[*Identifier]bool)
	for i := 0; i < 4*arenaChunkMin; i++ {
		id := New(&a, Identifier{Name: "x"})
		if id == nil {
			t.Fatalf("alloc %d: nil node", i)
		}
		if seen[id] {
			t.Fatalf("alloc %d: pointer %p handed out twice", i, id)
		}
		seen[id] = true
		if id.Name != "x" || (id.Range() != Range{}) {
			t.Fatalf("alloc %d: wrong value: %+v", i, *id)
		}
		id.Name = "dirty" // must not leak into the next slot
	}
}

// TestArenaPointerStability: growing the slab must not move nodes already
// handed out — later writes through old pointers must remain visible.
func TestArenaPointerStability(t *testing.T) {
	var a Arena
	const n = 10 * arenaChunkMax // force many chunk growths
	ptrs := make([]*Literal, n)
	for i := range ptrs {
		ptrs[i] = New(&a, Literal{Raw: "r"})
	}
	for i, p := range ptrs {
		p.Raw = "w" // write through the original pointer after all growths
		if ptrs[i].Raw != "w" {
			t.Fatalf("node %d moved during growth", i)
		}
	}
	for i := 1; i < n; i++ {
		if ptrs[i] == ptrs[i-1] {
			t.Fatalf("allocs %d and %d share a pointer", i-1, i)
		}
	}
}

// TestArenaChunkSizing: chunks double from min to max and then stay capped.
func TestArenaChunkSizing(t *testing.T) {
	if got := cap(arenaGrow([]Program(nil))); got != arenaChunkMin {
		t.Fatalf("first chunk cap = %d, want %d", got, arenaChunkMin)
	}
	if got := cap(arenaGrow(make([]Program, 0, 64))); got != 128 {
		t.Fatalf("doubling chunk cap = %d, want 128", got)
	}
	if got := cap(arenaGrow(make([]Program, 0, arenaChunkMax))); got != arenaChunkMax {
		t.Fatalf("capped chunk cap = %d, want %d", got, arenaChunkMax)
	}
}

// TestArenaPerKindIsolation: slabs are per node type; interleaved allocs of
// different kinds never overlap.
func TestArenaPerKindIsolation(t *testing.T) {
	var a Arena
	id := New(&a, Identifier{Name: "a"})
	lit := New(&a, Literal{Raw: "1"})
	bin := New(&a, BinaryExpression{Operator: "+", Left: id, Right: lit})
	if id.Name != "a" || lit.Raw != "1" || bin.Operator != "+" {
		t.Fatalf("interleaved allocations clobbered each other: %+v %+v %+v", id, lit, bin)
	}
	if bin.Left != Node(id) || bin.Right != Node(lit) {
		t.Fatalf("arena node lost its children")
	}
}

// TestArenaListExactLength: List copies its items at exact length, so an
// append to one list reallocates instead of overwriting the next list in
// the same chunk; an empty list is nil and a list past the chunk size gets
// its own storage.
func TestArenaListExactLength(t *testing.T) {
	var a Arena
	if got := a.List(nil); got != nil {
		t.Fatalf("empty list = %v, want nil", got)
	}
	x, y := New(&a, Identifier{Name: "x"}), New(&a, Identifier{Name: "y"})
	var lists [][]Node
	for n := 1; n <= 2*arenaChunkMax+1; n = 2*n + 1 {
		items := make([]Node, n)
		for i := range items {
			items[i] = x
		}
		l := a.List(items)
		if len(l) != n || cap(l) != n {
			t.Fatalf("list of %d: len %d cap %d", n, len(l), cap(l))
		}
		items[0] = y // the list owns a copy
		lists = append(lists, l)
	}
	for _, l := range lists {
		_ = append(l, y)
	}
	for i, l := range lists {
		for j, n := range l {
			if n != x {
				t.Fatalf("list %d item %d = %v, want x", i, j, n)
			}
		}
	}
}
