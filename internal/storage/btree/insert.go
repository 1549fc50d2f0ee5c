package btree

import (
	"bytes"
	"fmt"
)

// In-memory cell forms used while rebuilding a page. Rebuild-per-insert
// keeps the split logic simple; a page is at most a few hundred cells.

type leafCell struct {
	key Key
	val []byte
}

type internalCell struct {
	key   Key
	child int64
}

func decodeLeaf(p []byte, pageSize int) []leafCell {
	n := nkeys(p)
	cells := make([]leafCell, n)
	for i := 0; i < n; i++ {
		off := cellOff(p, pageSize, i)
		var c leafCell
		copy(c.key[:], p[off:off+KeySize])
		vl := getU16(p, off+KeySize)
		c.val = make([]byte, vl)
		copy(c.val, p[off+leafCellOverhead:off+leafCellOverhead+vl])
		cells[i] = c
	}
	return cells
}

func leafBytes(cells []leafCell) int {
	total := 0
	for _, c := range cells {
		total += leafCellOverhead + len(c.val) + slotSize
	}
	return total
}

func encodeLeaf(p []byte, pageSize int, cells []leafCell, next int64) error {
	if pageHeaderSize+leafBytes(cells) > pageSize {
		return fmt.Errorf("btree: leaf overflow (%d cells, %d bytes)", len(cells), leafBytes(cells))
	}
	for i := range p {
		p[i] = 0
	}
	p[0] = pageTypeLeaf
	setNkeys(p, len(cells))
	setLink(p, next)
	off := pageHeaderSize
	for i, c := range cells {
		copy(p[off:], c.key[:])
		putU16(p, off+KeySize, len(c.val))
		copy(p[off+leafCellOverhead:], c.val)
		setCellOff(p, pageSize, i, off)
		off += leafCellOverhead + len(c.val)
	}
	setFreeStart(p, off)
	return nil
}

func decodeInternal(p []byte, pageSize int) (left int64, cells []internalCell) {
	n := nkeys(p)
	cells = make([]internalCell, n)
	for i := 0; i < n; i++ {
		off := cellOff(p, pageSize, i)
		var c internalCell
		copy(c.key[:], p[off:off+KeySize])
		c.child = getU32(p, off+KeySize)
		cells[i] = c
	}
	return link(p), cells
}

func encodeInternal(p []byte, pageSize int, left int64, cells []internalCell) error {
	need := pageHeaderSize + len(cells)*(internalCellSize+slotSize)
	if need > pageSize {
		return fmt.Errorf("btree: internal overflow (%d cells)", len(cells))
	}
	for i := range p {
		p[i] = 0
	}
	p[0] = pageTypeInternal
	setNkeys(p, len(cells))
	setLink(p, left)
	off := pageHeaderSize
	for i, c := range cells {
		copy(p[off:], c.key[:])
		putU32(p, off+KeySize, c.child)
		setCellOff(p, pageSize, i, off)
		off += internalCellSize
	}
	setFreeStart(p, off)
	return nil
}

// Put inserts or replaces the value for k.
func (t *Tree) Put(k Key, v []byte) error {
	if len(v) > t.maxVal {
		return fmt.Errorf("btree: value of %d bytes exceeds max %d", len(v), t.maxVal)
	}
	sep, newPage, added, err := t.insert(t.root, k, v)
	if err != nil {
		return err
	}
	if newPage != 0 {
		// Root split: make a new internal root.
		newRoot, err := t.allocPage(pageTypeInternal)
		if err != nil {
			return err
		}
		h, err := t.cache.Get(t.space, newRoot)
		if err != nil {
			return err
		}
		err = encodeInternal(h.Data(), t.pageSize, t.root, []internalCell{{key: sep, child: newPage}})
		h.MarkDirty()
		if rerr := h.Release(); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		t.root = newRoot
	}
	if added {
		t.count++
	}
	return nil
}

// insert descends into pid. On split it returns the separator key and the
// new right-sibling page id; otherwise newPage is 0.
func (t *Tree) insert(pid int64, k Key, v []byte) (sep Key, newPage int64, added bool, err error) {
	h, err := t.cache.Get(t.space, pid)
	if err != nil {
		return Key{}, 0, false, err
	}
	p := h.Data()

	switch p[0] {
	case pageTypeLeaf:
		defer h.Release()
		idx, found := search(p, t.pageSize, k)

		// Fast path: in-place replacement when the new value fits the old
		// cell, or slot repoint into free space otherwise. Dead cells are
		// reclaimed by the compacting rebuild when the page fills.
		if found {
			off := cellOff(p, t.pageSize, idx)
			if getU16(p, off+KeySize) >= len(v) {
				putU16(p, off+KeySize, len(v))
				copy(p[off+leafCellOverhead:], v)
				h.MarkDirty()
				return Key{}, 0, false, nil
			}
			if freeBytes(p, t.pageSize) >= leafCellOverhead+len(v) {
				noff := freeStart(p)
				copy(p[noff:], k[:])
				putU16(p, noff+KeySize, len(v))
				copy(p[noff+leafCellOverhead:], v)
				setCellOff(p, t.pageSize, idx, noff)
				setFreeStart(p, noff+leafCellOverhead+len(v))
				h.MarkDirty()
				return Key{}, 0, false, nil
			}
		}
		// Fast path: append into free space without a rebuild.
		if !found && freeBytes(p, t.pageSize) >= leafCellOverhead+len(v)+slotSize {
			n := nkeys(p)
			off := freeStart(p)
			copy(p[off:], k[:])
			putU16(p, off+KeySize, len(v))
			copy(p[off+leafCellOverhead:], v)
			// Shift slots idx..n-1 down by one to keep order.
			for i := n; i > idx; i-- {
				setCellOff(p, t.pageSize, i, cellOff(p, t.pageSize, i-1))
			}
			setCellOff(p, t.pageSize, idx, off)
			setNkeys(p, n+1)
			setFreeStart(p, off+leafCellOverhead+len(v))
			h.MarkDirty()
			return Key{}, 0, true, nil
		}

		// Slow path: rebuild, possibly splitting.
		cells := decodeLeaf(p, t.pageSize)
		if found {
			cells[idx].val = append([]byte(nil), v...)
		} else {
			cells = append(cells, leafCell{})
			copy(cells[idx+1:], cells[idx:])
			cells[idx] = leafCell{key: k, val: append([]byte(nil), v...)}
			added = true
		}
		next := link(p)
		if pageHeaderSize+leafBytes(cells) <= t.pageSize {
			if err := encodeLeaf(p, t.pageSize, cells, next); err != nil {
				return Key{}, 0, false, err
			}
			h.MarkDirty()
			return Key{}, 0, added, nil
		}
		// Split by bytes, then move the split point until both halves
		// fit: a large cell just past the byte midpoint can push the
		// balanced left half over a page. A fitting split always exists,
		// since no cell exceeds half a page.
		half := leafBytes(cells) / 2
		mid, acc := 0, 0
		for mid = 0; mid < len(cells)-1; mid++ {
			acc += leafCellOverhead + len(cells[mid].val) + slotSize
			if acc >= half {
				mid++
				break
			}
		}
		room := t.pageSize - pageHeaderSize
		for mid > 1 && leafBytes(cells[:mid]) > room {
			mid--
		}
		for mid < len(cells)-1 && leafBytes(cells[mid:]) > room {
			mid++
		}
		rightID, err := t.allocPage(pageTypeLeaf)
		if err != nil {
			return Key{}, 0, false, err
		}
		rh, err := t.cache.Get(t.space, rightID)
		if err != nil {
			return Key{}, 0, false, err
		}
		rerr := encodeLeaf(rh.Data(), t.pageSize, cells[mid:], next)
		rh.MarkDirty()
		if relErr := rh.Release(); rerr == nil {
			rerr = relErr
		}
		if rerr != nil {
			return Key{}, 0, false, rerr
		}
		if err := encodeLeaf(p, t.pageSize, cells[:mid], rightID); err != nil {
			return Key{}, 0, false, err
		}
		h.MarkDirty()
		return cells[mid].key, rightID, added, nil

	case pageTypeInternal:
		child := childFor(p, t.pageSize, k)
		if err := h.Release(); err != nil {
			return Key{}, 0, false, err
		}
		csep, cnew, cadded, err := t.insert(child, k, v)
		if err != nil || cnew == 0 {
			return Key{}, 0, cadded, err
		}
		// Child split: insert (csep -> cnew) here.
		h, err := t.cache.Get(t.space, pid)
		if err != nil {
			return Key{}, 0, false, err
		}
		defer h.Release()
		p := h.Data()
		left, cells := decodeInternal(p, t.pageSize)
		idx, _ := search(p, t.pageSize, csep)
		cells = append(cells, internalCell{})
		copy(cells[idx+1:], cells[idx:])
		cells[idx] = internalCell{key: csep, child: cnew}
		need := pageHeaderSize + len(cells)*(internalCellSize+slotSize)
		if need <= t.pageSize {
			if err := encodeInternal(p, t.pageSize, left, cells); err != nil {
				return Key{}, 0, false, err
			}
			h.MarkDirty()
			return Key{}, 0, cadded, nil
		}
		// Internal split: promote the middle key.
		mid := len(cells) / 2
		promoted := cells[mid].key
		rightLeft := cells[mid].child
		rightID, err := t.allocPage(pageTypeInternal)
		if err != nil {
			return Key{}, 0, false, err
		}
		rh, err := t.cache.Get(t.space, rightID)
		if err != nil {
			return Key{}, 0, false, err
		}
		rerr := encodeInternal(rh.Data(), t.pageSize, rightLeft, append([]internalCell(nil), cells[mid+1:]...))
		rh.MarkDirty()
		if relErr := rh.Release(); rerr == nil {
			rerr = relErr
		}
		if rerr != nil {
			return Key{}, 0, false, rerr
		}
		if err := encodeInternal(p, t.pageSize, left, cells[:mid]); err != nil {
			return Key{}, 0, false, err
		}
		h.MarkDirty()
		return promoted, rightID, cadded, nil

	default:
		h.Release()
		return Key{}, 0, false, fmt.Errorf("btree: page %d has bad type %d", pid, p[0])
	}
}

// compareKeys is exposed for tests.
func compareKeys(a, b Key) int { return bytes.Compare(a[:], b[:]) }
