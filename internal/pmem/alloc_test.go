package pmem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndZeroing(t *testing.T) {
	p, _ := createPool(t)
	for _, n := range []uint64{1, 7, 64, 100, 4096} {
		oid, err := p.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if oid.Off%64 != 0 {
			t.Errorf("Alloc(%d) offset %#x not 64-byte aligned", n, oid.Off)
		}
		v, err := p.View(oid, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range v {
			if b != 0 {
				t.Fatalf("Alloc(%d) byte %d = %#x, want 0", n, i, b)
			}
		}
	}
}

func TestAllocSizeTracking(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.AllocSize(oid)
	if err != nil || n != 100 {
		t.Errorf("AllocSize = %d, %v; want 100", n, err)
	}
	if err := p.Free(oid); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocSize(oid); err == nil {
		t.Error("AllocSize of freed object accepted")
	}
}

func TestAllocDistinctNonOverlapping(t *testing.T) {
	p, _ := createPool(t)
	type ext struct{ lo, hi uint64 }
	var exts []ext
	for i := 0; i < 50; i++ {
		n := uint64(i*13%257 + 1)
		oid, err := p.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		exts = append(exts, ext{oid.Off, oid.Off + n})
	}
	for i := range exts {
		for j := i + 1; j < len(exts); j++ {
			a, b := exts[i], exts[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("allocations overlap: [%#x,%#x) and [%#x,%#x)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	p, _ := createPool(t)
	oid, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(oid); err != nil {
		t.Fatal(err)
	}
	// Double free rejected (checked before the block is reused).
	if err := p.Free(oid); err == nil {
		t.Error("double free accepted")
	}
	// Freed space is reusable.
	oid2, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	if oid2.Off != oid.Off {
		t.Errorf("first-fit should reuse the freed block: got %#x, had %#x", oid2.Off, oid.Off)
	}
	// Free of a non-block offset rejected.
	if err := p.Free(OID{PoolID: p.PoolID(), Off: oid.Off + 64}); err == nil {
		t.Error("free of interior pointer accepted")
	}
}

func TestForwardCoalescing(t *testing.T) {
	p, _ := createPool(t)
	a, _ := p.Alloc(1024)
	b, _ := p.Alloc(1024)
	// Freeing b then a merges a with b's block, so a 2KiB allocation
	// fits where the two 1KiB ones were.
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	big, err := p.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	if big.Off != a.Off {
		t.Errorf("coalesced block not reused: got %#x, want %#x", big.Off, a.Off)
	}
}

func TestOutOfSpace(t *testing.T) {
	p, _ := createPool(t)
	if _, err := p.Alloc(uint64(testPoolSize)); err == nil {
		t.Error("oversized alloc accepted")
	}
	// Fill the heap with big chunks until exhaustion, then verify the
	// error and that a small allocation still works after freeing.
	var last OID
	for {
		oid, err := p.Alloc(512 << 10)
		if err != nil {
			break
		}
		last = oid
	}
	if _, err := p.Alloc(512 << 10); err == nil {
		t.Error("alloc after exhaustion succeeded")
	}
	if err := p.Free(last); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(1024); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
	if _, err := p.Alloc(0); err == nil {
		t.Error("zero-size alloc accepted")
	}
}

func TestHeapSurvivesReopen(t *testing.T) {
	p, r := createPool(t)
	var oids []OID
	for i := 0; i < 10; i++ {
		oid, err := p.Alloc(256)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := p.View(oid, 256)
		v[0] = byte(i + 1)
		if err := p.Persist(oid, 256); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := p.Free(oids[3]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	// Live objects keep their data.
	for i, oid := range oids {
		if i == 3 {
			continue
		}
		v, err := p2.View(oid, 256)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] != byte(i+1) {
			t.Errorf("object %d byte = %d, want %d", i, v[0], i+1)
		}
	}
	// The freed slot is free again after rebuild: allocating reuses it.
	oid, err := p2.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if oid.Off != oids[3].Off {
		t.Errorf("rebuilt free list did not expose the freed block: got %#x, want %#x", oid.Off, oids[3].Off)
	}
}

func TestCheckReport(t *testing.T) {
	p, _ := createPool(t)
	r0, err := p.Check()
	if err != nil {
		t.Fatal(err)
	}
	if r0.AllocatedBlocks != 0 || r0.FreeBlocks != 1 {
		t.Errorf("fresh pool check = %+v", r0)
	}
	a, _ := p.Alloc(128)
	_, _ = p.Alloc(128)
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	r1, err := p.Check()
	if err != nil {
		t.Fatal(err)
	}
	if r1.AllocatedBlocks != 1 {
		t.Errorf("allocated blocks = %d, want 1", r1.AllocatedBlocks)
	}
	if r1.FreeBytes == 0 || r1.Blocks < 3 {
		t.Errorf("check = %+v", r1)
	}
	// Corruption is detected.
	p.view[p.heapOff] = 0xFF
	if _, err := p.Check(); err == nil {
		t.Error("corrupt heap passed check")
	}
}

// Property: any interleaving of allocs and frees leaves the heap walk
// consistent (Check passes) and live objects' extents disjoint.
func TestHeapConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := createPoolQuick()
		type obj struct {
			oid OID
			n   uint64
		}
		var live []obj
		for step := 0; step < 120; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := p.Free(live[i].oid); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := uint64(rng.Intn(2000) + 1)
			oid, err := p.Alloc(n)
			if err != nil {
				continue // heap full is fine
			}
			live = append(live, obj{oid, n})
		}
		if _, err := p.Check(); err != nil {
			return false
		}
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				a, b := live[i], live[j]
				if a.oid.Off < b.oid.Off+b.n && b.oid.Off < a.oid.Off+a.n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func createPoolQuick() (*Pool, *memRegion) {
	r := newMemRegion(1<<20, true)
	p, err := Create(r, "quick")
	if err != nil {
		panic(err)
	}
	return p, r
}

// heapModel is a brute-force first-fit allocator following the heap's
// block rules: every block in offset order, the lowest free block that
// fits is taken, a remainder of at least minSplit becomes a free tail,
// and free merges with the following block when that one is free.
type heapModel struct{ blocks []modelBlock }

type modelBlock struct {
	off, size uint64
	allocated bool
}

func newHeapModel(p *Pool) *heapModel {
	return &heapModel{blocks: []modelBlock{{off: p.heapOff, size: uint64(p.size) - p.heapOff}}}
}

// alloc returns the data offset the heap must hand out for n bytes, or
// false when nothing fits.
func (m *heapModel) alloc(n uint64) (uint64, bool) {
	need := alignUp64(n, 64) + blockHeaderSize
	for i, b := range m.blocks {
		if b.allocated || b.size < need {
			continue
		}
		if b.size-need >= minSplit {
			m.blocks = slices.Insert(m.blocks, i+1, modelBlock{off: b.off + need, size: b.size - need})
			m.blocks[i].size = need
		}
		m.blocks[i].allocated = true
		return b.off + blockHeaderSize, true
	}
	return 0, false
}

func (m *heapModel) free(dataOff uint64) {
	i := slices.IndexFunc(m.blocks, func(b modelBlock) bool { return b.off+blockHeaderSize == dataOff })
	m.blocks[i].allocated = false
	if i+1 < len(m.blocks) && !m.blocks[i+1].allocated {
		m.blocks[i].size += m.blocks[i+1].size
		m.blocks = slices.Delete(m.blocks, i+1, i+2)
	}
}

func (m *heapModel) report() CheckReport {
	r := CheckReport{Blocks: len(m.blocks)}
	for _, b := range m.blocks {
		if b.allocated {
			r.AllocatedBlocks++
		} else {
			r.FreeBlocks++
			r.FreeBytes += b.size
		}
	}
	return r
}

// Property: random Alloc/AllocFrom/Free sequences, with a close and
// reopen halfway, hand out exactly the offsets the brute-force first-fit
// model picks, Check's accounting matches the model's blocks, and every
// live object still holds its contents, zero-padded to 64 bytes.
func TestHeapMatchesFirstFitModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, r := createPoolQuick()
		m := newHeapModel(p)
		type obj struct {
			oid  OID
			want []byte
		}
		var live []obj
		verify := func(step int) {
			t.Helper()
			got, err := p.Check()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if want := m.report(); got != want {
				t.Fatalf("seed %d step %d: Check = %+v, model %+v", seed, step, got, want)
			}
			for _, o := range live {
				n := alignUp64(uint64(len(o.want)), 64)
				v, err := p.View(o.oid, n)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(v[:len(o.want)], o.want) || !isZero(v[len(o.want):]) {
					t.Fatalf("seed %d step %d: %v lost its contents", seed, step, o.oid)
				}
			}
		}
		const steps = 400
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				verify(step)
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if p, err = Open(r, "quick"); err != nil {
					t.Fatalf("seed %d: reopen: %v", seed, err)
				}
			}
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := p.Free(live[i].oid); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				m.free(live[i].oid.Off)
				live = slices.Delete(live, i, i+1)
				continue
			}
			// Mostly random sizes, with repeats of a few fixed ones so
			// freed blocks are reused exactly as well as split.
			n := uint64(rng.Intn(3000) + 1)
			if rng.Intn(2) == 0 {
				n = []uint64{1, 64, 100, 4096}[rng.Intn(4)]
			}
			want := make([]byte, n)
			var oid OID
			var err error
			if rng.Intn(2) == 0 {
				rng.Read(want)
				oid, err = p.AllocFrom(want)
			} else {
				oid, err = p.Alloc(n)
			}
			off, fits := m.alloc(n)
			if fits != (err == nil) || (fits && oid.Off != off) {
				t.Fatalf("seed %d step %d: alloc(%d) = %v, %v; model %#x, fits %v", seed, step, n, oid, err, off, fits)
			}
			if fits {
				live = append(live, obj{oid, want})
			}
		}
		verify(steps)
	}
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestAllocFrom(t *testing.T) {
	p, r := createPool(t)
	// Leave stale bytes in the heap so the padding below has to be
	// written, not inherited from a fresh region.
	stale, err := p.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.View(stale, 256)
	for i := range v {
		v[i] = 0xEE
	}
	if err := p.Persist(stale, 256); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(stale); err != nil {
		t.Fatal(err)
	}

	// A split (the freed block merged back into the heap's tail): the
	// tail header, then header and body in one persist.
	data := bytes.Repeat([]byte{0x5A}, 100)
	persists := p.Stats().Persists.Load()
	a, err := p.AllocFrom(data)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Stats().Persists.Load() - persists; d != 2 {
		t.Errorf("AllocFrom with a split made %d persists, want 2", d)
	}
	if a.Off != stale.Off {
		t.Errorf("AllocFrom at %#x, want the first fit %#x", a.Off, stale.Off)
	}
	if n, err := p.AllocSize(a); err != nil || n != 100 {
		t.Errorf("AllocSize = %d, %v; want 100", n, err)
	}

	// An exact fit: a freed 256-byte block, fenced by b so it cannot
	// coalesce, takes a 200-byte object without a split.
	c, err := p.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(256); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(c); err != nil {
		t.Fatal(err)
	}
	exact := bytes.Repeat([]byte{0xC3}, 200)
	persists, bytesOut := p.Stats().Persists.Load(), p.Stats().PersistBytes.Load()
	e, err := p.AllocFrom(exact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Off != c.Off {
		t.Errorf("exact fit at %#x, want %#x", e.Off, c.Off)
	}
	if d := p.Stats().Persists.Load() - persists; d != 1 {
		t.Errorf("AllocFrom without a split made %d persists, want 1", d)
	}
	if d := p.Stats().PersistBytes.Load() - bytesOut; d != blockHeaderSize+256 {
		t.Errorf("AllocFrom persisted %d bytes, want the %d-byte block", d, blockHeaderSize+256)
	}

	// Contents and zero padding are on the media, not just in the view.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p, err = Open(r, "stream-arrays")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct {
		oid  OID
		want []byte
	}{{a, data}, {e, exact}} {
		v, err := p.View(o.oid, alignUp64(uint64(len(o.want)), 64))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v[:len(o.want)], o.want) || !isZero(v[len(o.want):]) {
			t.Errorf("%v after reopen: contents or zero padding wrong", o.oid)
		}
	}

	// Rejections: zero length, a crashed pool, a closed pool.
	if _, err := p.AllocFrom(nil); err == nil {
		t.Error("AllocFrom(nil) accepted")
	}
	if _, err := p.AllocFrom([]byte{}); err == nil {
		t.Error("AllocFrom of zero bytes accepted")
	}
	p.SimulateCrash()
	if _, err := p.AllocFrom(data); err == nil {
		t.Error("AllocFrom on a crashed pool accepted")
	}
	closed, _ := createPool(t)
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := closed.AllocFrom(data); err == nil {
		t.Error("AllocFrom on a closed pool accepted")
	}
}
