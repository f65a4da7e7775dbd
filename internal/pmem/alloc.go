package pmem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Persistent heap. Objects are carved from the region after the undo
// log, each preceded by a 64-byte block header so that data offsets are
// 64-byte aligned (cache-line alignment, and sufficient for Float64s
// views). The free list is volatile and rebuilt on open by walking the
// block chain on media; headers are persisted at every state change so
// the walk is always well-formed after a crash. A crash between header
// persist and caller visibility can at worst leak one block — the same
// failure window PMDK closes with its redo log and detects with pmempool
// check; our Check performs the equivalent leak scan.
//
// A free block's body is never read from the view: alloc rewrites the
// whole block (header, data, zero padding) before its one persist, and
// free, a split, Check and Objects touch headers only. So the open-time
// walk loads free blocks by header alone, and whatever a free body
// holds on media — a freed object, a torn allocation — never shows.

const (
	// blockHeaderSize precedes every block; 64 keeps data aligned.
	blockHeaderSize = 64
	// heapAlign aligns the heap start.
	heapAlign = 64
	// minSplit is the smallest free remainder worth splitting off.
	minSplit = blockHeaderSize + 64

	blockMagic uint32 = 0xB10C_0DE5

	flagAllocated uint64 = 1 << 0
)

// block header layout (offsets within the 64-byte header):
//
//	0:4   magic
//	4:8   reserved
//	8:16  block size including header (u64)
//	16:24 flags (u64)
//	24:32 requested (user) size (u64)
const (
	bhMagic = 0
	bhSize  = 8
	bhFlags = 16
	bhUser  = 24
)

type heap struct {
	p     *Pool
	start uint64 // first block header offset
	end   uint64 // one past the heap

	// freeIdx lists the free blocks in ascending offset order (volatile
	// index, rebuilt on open). Offset order makes the first entry that
	// fits the lowest-addressed fit, so allocation is a short scan and
	// free finds its place by binary search.
	freeIdx []freeBlock
}

// freeBlock is one free-index entry: a block's header offset and size.
type freeBlock struct{ off, size uint64 }

func newHeap(p *Pool, heapOff, poolSize uint64) *heap {
	return &heap{p: p, start: heapOff, end: poolSize}
}

// format writes a single free block covering the whole heap.
func (h *heap) format() error {
	if h.start+blockHeaderSize >= h.end {
		return &PoolError{Op: "format", Layout: h.p.layout, Why: "no room for heap"}
	}
	h.writeHeader(h.start, h.end-h.start, 0, 0)
	if err := h.p.persistRaw(int64(h.start), blockHeaderSize); err != nil {
		return err
	}
	h.freeIdx = []freeBlock{{h.start, h.end - h.start}}
	return nil
}

// openReadahead is how far past the bytes it needs the open-time heap
// walk reads at once: twice the CXL root port's bulk part, the smallest
// read its bulk path fans out across virtual channels.
const openReadahead = 2 << 20

// rebuild reconstructs the volatile free index by walking the block
// chain on media, loading the view past loaded as it goes: each
// allocated block is read whole, each free block by its header only
// (see the file comment), in reads of at least openReadahead bytes. The
// walk visits blocks in offset order, so appending keeps the index
// sorted.
func (h *heap) rebuild(loaded uint64) error {
	h.freeIdx = h.freeIdx[:0]
	// view[:loaded) holds what the media holds, except for free block
	// bodies the walk skipped.
	load := func(need uint64) error {
		if need <= loaded {
			return nil
		}
		hi := min(h.end, max(need, loaded+openReadahead))
		if err := h.p.region.ReadAt(h.p.view[loaded:hi], int64(loaded)); err != nil {
			return err
		}
		loaded = hi
		return nil
	}
	for off := h.start; off < h.end; {
		if h.end-off < blockHeaderSize {
			return &PoolError{Op: "rebuild", Layout: h.p.layout, Why: fmt.Sprintf("truncated block header at %#x", off)}
		}
		if err := load(off + blockHeaderSize); err != nil {
			return err
		}
		magic, size, flags, _ := h.readHeader(off)
		if magic != blockMagic || size < blockHeaderSize || size > h.end-off {
			return &PoolError{Op: "rebuild", Layout: h.p.layout, Why: fmt.Sprintf("corrupt block header at %#x", off)}
		}
		if flags&flagAllocated != 0 {
			if err := load(off + size); err != nil {
				return err
			}
		} else {
			h.freeIdx = append(h.freeIdx, freeBlock{off, size})
			loaded = max(loaded, off+size)
		}
		off += size
	}
	return nil
}

func (h *heap) writeHeader(off, size, flags, user uint64) {
	b := h.p.view[off : off+blockHeaderSize]
	clear(b)
	binary.LittleEndian.PutUint32(b[bhMagic:], blockMagic)
	binary.LittleEndian.PutUint64(b[bhSize:], size)
	binary.LittleEndian.PutUint64(b[bhFlags:], flags)
	binary.LittleEndian.PutUint64(b[bhUser:], user)
}

func (h *heap) readHeader(off uint64) (magic uint32, size, flags, user uint64) {
	b := h.p.view[off : off+blockHeaderSize]
	return binary.LittleEndian.Uint32(b[bhMagic:]),
		binary.LittleEndian.Uint64(b[bhSize:]),
		binary.LittleEndian.Uint64(b[bhFlags:]),
		binary.LittleEndian.Uint64(b[bhUser:])
}

// alloc returns the data offset of an n-byte object holding data
// (len(data) <= n), zero-padded to the block's end: a nil data gives
// a zeroed object, as with the pmemobj_zalloc semantics we adopt.
func (h *heap) alloc(n uint64, data []byte) (uint64, error) {
	need := alignUp64(n, 64) + blockHeaderSize
	// First fit: the lowest-addressed free block that is large enough,
	// which keeps the layout deterministic.
	i := 0
	for i < len(h.freeIdx) && h.freeIdx[i].size < need {
		i++
	}
	if i == len(h.freeIdx) {
		return 0, &PoolError{Op: "alloc", Layout: h.p.layout, Why: fmt.Sprintf("out of space for %d bytes", n)}
	}
	best, size := h.freeIdx[i].off, h.freeIdx[i].size
	if remainder := size - need; remainder >= minSplit {
		// Split: write the tail free block first, then shrink this
		// block — ordering keeps the walk consistent at any crash
		// point (a crash after the first persist shows a shrunken
		// chain only once both headers agree; until then the old
		// header still covers the full extent).
		tail := best + need
		h.writeHeader(tail, remainder, 0, 0)
		if err := h.p.persistRaw(int64(tail), blockHeaderSize); err != nil {
			h.freeIdx = slices.Delete(h.freeIdx, i, i+1)
			return 0, err
		}
		h.freeIdx[i] = freeBlock{tail, remainder} // still in offset order
		size = need
	} else {
		h.freeIdx = slices.Delete(h.freeIdx, i, i+1)
	}
	// Header and body reach the media in one write. A crash that tears
	// it leaves either a free block (header not yet written) or an
	// allocated block the caller never saw — the one-block leak the
	// comment at the top of this file accepts.
	h.writeHeader(best, size, flagAllocated, n)
	body := h.p.view[best+blockHeaderSize : best+size]
	clear(body[copy(body, data):])
	if err := h.p.persistRaw(int64(best), int64(size)); err != nil {
		return 0, err
	}
	return best + blockHeaderSize, nil
}

// free releases the block whose data starts at dataOff, coalescing with
// the following block when free.
func (h *heap) free(dataOff uint64) error {
	off := dataOff - blockHeaderSize
	magic, size, flags, _ := h.readHeader(off)
	if magic != blockMagic {
		return &PoolError{Op: "free", Layout: h.p.layout, Why: fmt.Sprintf("no block at %#x", dataOff)}
	}
	if flags&flagAllocated == 0 {
		return &PoolError{Op: "free", Layout: h.p.layout, Why: fmt.Sprintf("double free at %#x", dataOff)}
	}
	// i is where off belongs in the index; the free block right after
	// this one, if any, is the entry already there.
	i, _ := slices.BinarySearchFunc(h.freeIdx, off, func(b freeBlock, off uint64) int { return cmp.Compare(b.off, off) })
	merge := i < len(h.freeIdx) && h.freeIdx[i].off == off+size
	if merge {
		size += h.freeIdx[i].size
	}
	h.writeHeader(off, size, 0, 0)
	if err := h.p.persistRaw(int64(off), blockHeaderSize); err != nil {
		return err
	}
	if merge {
		h.freeIdx[i] = freeBlock{off, size}
	} else {
		h.freeIdx = slices.Insert(h.freeIdx, i, freeBlock{off, size})
	}
	return nil
}

// userSize returns the requested size of an allocated block.
func (h *heap) userSize(dataOff uint64) (uint64, error) {
	off := dataOff - blockHeaderSize
	magic, _, flags, user := h.readHeader(off)
	if magic != blockMagic || flags&flagAllocated == 0 {
		return 0, &PoolError{Op: "allocsize", Layout: h.p.layout, Why: fmt.Sprintf("no allocated block at %#x", dataOff)}
	}
	return user, nil
}

// CheckReport is the result of a heap consistency scan.
type CheckReport struct {
	// Blocks walked in total.
	Blocks int
	// AllocatedBlocks currently live.
	AllocatedBlocks int
	// FreeBlocks on the free chain.
	FreeBlocks int
	// FreeBytes available (including headers of free blocks).
	FreeBytes uint64
	// Corrupt headers encountered (the walk stops at the first).
	Corrupt bool
}

// Check walks the heap like `pmempool check`, validating every header
// and summarising occupancy. It never mutates the pool.
func (p *Pool) Check() (CheckReport, error) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if err := p.checkLive("check"); err != nil {
		return CheckReport{}, err
	}
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	var r CheckReport
	off := p.heapOff
	for off < uint64(p.size) {
		magic, size, flags, _ := p.heap.readHeader(off)
		if magic != blockMagic || size < blockHeaderSize || off+size > uint64(p.size) {
			r.Corrupt = true
			return r, &PoolError{Op: "check", Layout: p.layout, Why: fmt.Sprintf("corrupt header at %#x", off)}
		}
		r.Blocks++
		if flags&flagAllocated != 0 {
			r.AllocatedBlocks++
		} else {
			r.FreeBlocks++
			r.FreeBytes += size
		}
		off += size
	}
	return r, nil
}
