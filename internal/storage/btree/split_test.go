package btree

import (
	"bytes"
	"testing"
)

// TestLeafSplitFitsLargeCell: inserting a maximal value just past a
// leaf's byte midpoint must still split into two pages that fit. On a
// 512-byte page the cells below are 150, 200, 251 and 110 bytes: the
// byte-balanced split point falls after the 251-byte cell, which would
// leave a 601-byte left half.
func TestLeafSplitFitsLargeCell(t *testing.T) {
	tr := newTestTree(t, 512, 1<<20)
	vals := map[uint64][]byte{
		1: bytes.Repeat([]byte{1}, 130),
		2: bytes.Repeat([]byte{2}, 180),
		4: bytes.Repeat([]byte{4}, 90),
		3: bytes.Repeat([]byte{3}, tr.maxVal),
	}
	for _, k := range []uint64{1, 2, 4, 3} {
		if err := tr.Put(U64Key(k, 0), vals[k]); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	for k, want := range vals {
		got, err := tr.Get(U64Key(k, 0))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d) = %d bytes, %v; want %d bytes", k, len(got), err, len(want))
		}
	}
}
