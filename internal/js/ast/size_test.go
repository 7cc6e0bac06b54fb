package ast

import (
	"testing"
	"unsafe"
)

// TestNodeSizes pins the size of the node header and of the most common
// nodes on a 64-bit platform. A node carries a 32-bit byte range and its
// dense ID (12 bytes); line and column live in Lines, not in every node, so
// a field added to base or a hot node shows up here as a deliberate change.
func TestNodeSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"base", unsafe.Sizeof(base{}), 12},
		{"Identifier", unsafe.Sizeof(Identifier{}), 32},
		{"Literal", unsafe.Sizeof(Literal{}), 104},
		{"MemberExpression", unsafe.Sizeof(MemberExpression{}), 56},
		{"CallExpression", unsafe.Sizeof(CallExpression{}), 64},
		{"BinaryExpression", unsafe.Sizeof(BinaryExpression{}), 64},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
