package ast

// Arena is a per-kind slab allocator for AST nodes. The parser allocates
// every node of one file out of one Arena instead of minting ~100 distinct
// heap objects per statement: each node type draws from its own backing
// slice, so a file's nodes live in a few dozen contiguous chunks rather
// than hundreds of thousands of individual allocations.
//
// Ownership: an Arena belongs to exactly one parse and dies with the
// parser.Result built from it — the nodes keep their backing chunks alive
// through ordinary GC reachability, so the arena needs no explicit free and
// nothing downstream may retain node pointers past the Result they came
// from. An Arena must never be reset or reused for a second file: handing
// out a previous file's node storage again would corrupt any still-live
// AST. The zero value is ready to use.
//
// Pointer stability: alloc never moves previously returned nodes. When a
// chunk fills up, grow abandons it in place (the nodes already handed out
// pin it) and starts a fresh, larger one.
type Arena struct {
	// slabs[k] holds the *slab[T] of the node type whose NodeKind is k,
	// created the first time the file uses that kind.
	slabs [KindCount]any

	// count is the total number of nodes handed out, across every slab.
	// StampIDs uses it (via NodeCount) to pre-size the dense ID table and
	// the parse-order kind stream exactly.
	count int

	// lists is the chunk List carves node lists from.
	lists []Node
}

// slab is one node type's storage: the chunk being filled and the first
// chunk, allocated together so a kind's first node costs one allocation.
type slab[T any] struct {
	buf   []T
	first [arenaChunkMin]T
}

// NodeCount reports how many nodes this arena has allocated.
func (a *Arena) NodeCount() int { return a.count }

// Slab chunk sizing: chunks double from arenaChunkMin nodes up to
// arenaChunkMax, so tiny files pay for a handful of nodes while big
// minified bundles settle into large chunks with O(log n) growths.
const (
	arenaChunkMin = 16
	arenaChunkMax = 1024
)

// arenaAlloc returns a node slot from the chunk, growing it when full. The
// amortized cost is one bump and one bounds check per node.
//
//jslint:hotpath
func arenaAlloc[T any](count *int, chunk *[]T) *T {
	buf := *chunk
	if len(buf) == cap(buf) {
		buf = arenaGrow(buf)
	}
	buf = buf[:len(buf)+1]
	*chunk = buf
	*count++
	return &buf[len(buf)-1]
}

// arenaGrow starts a fresh, larger chunk. The filled chunk is abandoned
// rather than copied: the nodes already handed out keep it reachable, and
// copying would move them out from under their pointers.
func arenaGrow[T any](old []T) []T {
	n := 2 * cap(old)
	if n < arenaChunkMin {
		n = arenaChunkMin
	}
	if n > arenaChunkMax {
		n = arenaChunkMax
	}
	return make([]T, 0, n)
}

// New copies v into arena-owned storage and returns the stable pointer, so
// a call site reads exactly like the &T{...} literal it replaces. The node
// type's kind picks its slab; NodeKind is valid on a nil receiver.
//
//jslint:hotpath
func New[T any, P interface {
	*T
	NodeKind() Kind
}](a *Arena, v T) *T {
	k := P(nil).NodeKind()
	s, _ := a.slabs[k].(*slab[T])
	if s == nil {
		s = newSlab[T]()
		a.slabs[k] = s
	}
	n := arenaAlloc(&a.count, &s.buf)
	*n = v
	return n
}

// newSlab starts a node type's slab on its embedded first chunk.
func newSlab[T any]() *slab[T] {
	s := new(slab[T])
	s.buf = s.first[:0]
	return s
}

// List copies items into arena-owned storage and returns an exact-length
// slice of it (nil for no items). The slice's capacity equals its length,
// so a later append reallocates instead of overwriting a neighbouring
// list. Lists share chunks that double like the node slabs; a list longer
// than arenaChunkMax gets its own allocation.
func (a *Arena) List(items []Node) []Node {
	n := len(items)
	if n == 0 {
		return nil
	}
	if n > arenaChunkMax {
		return append([]Node(nil), items...)
	}
	buf := a.lists
	if cap(buf)-len(buf) < n {
		buf = arenaGrow(buf)
		if cap(buf) < n {
			buf = make([]Node, 0, arenaChunkMax)
		}
	}
	at := len(buf)
	buf = buf[:at+n]
	copy(buf[at:], items)
	a.lists = buf
	return buf[at : at+n : at+n]
}
