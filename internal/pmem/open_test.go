package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestOpenRejectsBadGeometry: a header whose checksum is valid but whose
// log or heap offsets do not fit the region is refused with a PoolError
// before anything slices the view by them.
func TestOpenRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		field int
		value uint64
	}{
		{"logOff past region", hdrLogOff, 1 << 40},
		{"logOff inside header", hdrLogOff, headerSize - 8},
		{"logSize past heap", hdrLogSize, 1 << 40},
		{"logSize wrapping", hdrLogSize, ^uint64(0) &^ (TxLanes - 1)},
		{"heapOff past region", hdrHeapOff, testPoolSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, r := createPool(t)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			hdr := r.data[:headerSize]
			binary.LittleEndian.PutUint64(hdr[tc.field:], tc.value)
			binary.LittleEndian.PutUint32(hdr[hdrCRC:], crc32.Checksum(hdr[:hdrCRC], crcTable))
			_, err := Open(r, "stream-arrays")
			var pe *PoolError
			if !errors.As(err, &pe) || !strings.Contains(pe.Why, "geometry") {
				t.Fatalf("Open = %v, want a geometry PoolError", err)
			}
		})
	}
}

// TestOpenRejectsCorruptBlockHeader: a block size that is too small,
// runs past the pool, wraps around, or leaves less than a header before
// the pool's end fails the heap walk with a PoolError.
func TestOpenRejectsCorruptBlockHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		size func(heap uint64) uint64
	}{
		{"below header", func(uint64) uint64 { return blockHeaderSize - 1 }},
		{"past pool", func(heap uint64) uint64 { return heap + 64 }},
		{"wrapping", func(uint64) uint64 { return ^uint64(0) - 63 }},
		{"truncated next header", func(heap uint64) uint64 { return heap - 32 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, r := createPool(t)
			start := p.heapOff
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			// A fresh heap is one free block from start to the pool's end.
			binary.LittleEndian.PutUint64(r.data[start+bhSize:], tc.size(testPoolSize-start))
			_, err := Open(r, "stream-arrays")
			var pe *PoolError
			if !errors.As(err, &pe) || pe.Op != "rebuild" {
				t.Fatalf("Open = %v, want a rebuild PoolError", err)
			}
		})
	}
}

// TestOpenReadsOnlyLiveHeap: Open reads the header probe, the header
// and undo log, the live blocks, and at most one readahead window
// before each free extent it skips and one past the last live block —
// never the free bytes themselves. On a pool with a large free tail
// that is one window in all. Every live object must read back intact.
func TestOpenReadsOnlyLiveHeap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sizes   []int
		fill    bool // one more object takes all the free space left
		free    int  // index of an object freed to leave a hole, or -1
		windows uint64
	}{
		// One object is larger than the readahead window, so the walk
		// loads an allocated block across more than one read.
		{"free tail", []int{4 << 10, 3 << 20, 100, 64 << 10}, false, -1, 1},
		{"free hole", []int{4 << 10, 6 << 20, 64 << 10}, false, 1, 2},
		// The last block is allocated and spans many windows.
		{"dense", []int{4 << 10}, true, -1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const size = 16 << 20
			r := newMemRegion(size, true)
			p, err := Create(r, "stream-arrays")
			if err != nil {
				t.Fatal(err)
			}
			var oids []OID
			var datas [][]byte
			for i, n := range tc.sizes {
				data := bytes.Repeat([]byte{byte(0xA0 + i)}, n)
				oid, err := p.AllocFrom(data)
				if err != nil {
					t.Fatal(err)
				}
				oids, datas = append(oids, oid), append(datas, data)
			}
			if tc.fill {
				rep, _ := p.Check()
				data := bytes.Repeat([]byte{0xEE}, int(rep.FreeBytes-blockHeaderSize))
				oid, err := p.AllocFrom(data)
				if err != nil {
					t.Fatal(err)
				}
				oids, datas = append(oids, oid), append(datas, data)
			}
			if tc.free >= 0 {
				if err := p.Free(oids[tc.free]); err != nil {
					t.Fatal(err)
				}
				oids, datas = slices.Delete(oids, tc.free, tc.free+1), slices.Delete(datas, tc.free, tc.free+1)
			}
			var live uint64
			for _, d := range datas {
				live += alignUp64(uint64(len(d)), 64) + blockHeaderSize
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			cr := &countingRegion{inner: r}
			p2, err := Open(cr, "stream-arrays")
			if err != nil {
				t.Fatal(err)
			}
			max := int64(headerSize + p2.heapOff + live + tc.windows*openReadahead)
			if got := cr.bytesRead.Load(); got > max {
				t.Errorf("Open read %d bytes, want <= %d (probe + log + %d live + %d readahead)", got, max, live, tc.windows)
			}
			for i, oid := range oids {
				v, err := p2.View(oid, uint64(len(datas[i])))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(v, datas[i]) {
					t.Errorf("object %d did not survive the walked open", i)
				}
			}
		})
	}
}

// tearRegion is a memRegion whose next write longer than a block header
// can be torn: the armed write lands only the first tear bytes of its
// body, never its header, and power fails right after. That is an
// AllocFrom whose body prefix reached the media under a header that
// still says free.
type tearRegion struct {
	*memRegion
	tear int  // body bytes the armed write lands; 0 disarms
	torn bool // a write was torn
}

func (r *tearRegion) WriteAt(p []byte, off int64) error {
	if r.tear == 0 || len(p) <= blockHeaderSize {
		return r.memRegion.WriteAt(p, off)
	}
	body := p[blockHeaderSize:]
	n := min(r.tear, len(body))
	r.tear, r.torn = 0, true
	if err := r.memRegion.WriteAt(body[:n], off+blockHeaderSize); err != nil {
		return err
	}
	r.cutoff = r.writes
	return nil
}

// TestWalkedOpenMatchesFullRead is a differential test of Open's heap
// walk, which loads allocated blocks whole and free blocks by header
// only. Seeded random Alloc/AllocFrom/Free/Update/Root sequences end in
// a crash at a random write — sometimes a torn AllocFrom — and the
// walked Open is then compared with a reference whose view reads the
// whole region: every block header and every allocated block's bytes
// must agree, as must Objects and Check. Every free extent, garbage on
// media or not, must then allocate as zeroes.
func TestWalkedOpenMatchesFullRead(t *testing.T) {
	const (
		size   = 8 << 20
		layout = "walk"
		seeds  = 60
	)
	var tornSeeds, garbageSeeds int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := &tearRegion{memRegion: newMemRegion(size, true)}
		p, err := Create(r, layout)
		if err != nil {
			t.Fatal(err)
		}
		objSize := func() uint64 {
			if rng.Intn(6) == 0 {
				return uint64(64<<10 + rng.Intn(1<<20))
			}
			return uint64(1 + rng.Intn(4<<10))
		}
		garbage := func(n uint64) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		rootSize := uint64(64 + rng.Intn(512))
		var live []OID
		step := func() {
			var oid OID
			var err error
			switch op := rng.Intn(5); {
			case op == 0:
				oid, err = p.Alloc(objSize())
			case op == 1:
				oid, err = p.AllocFrom(garbage(objSize()))
			case op == 2 && len(live) > 0:
				i := rng.Intn(len(live))
				err = p.Free(live[i])
				live = slices.Delete(live, i, i+1)
			case op == 3 && len(live) > 0:
				oid := live[rng.Intn(len(live))]
				n, _ := p.AllocSize(oid)
				off := uint64(rng.Int63n(int64(n)))
				span := min(n-off, 1+uint64(rng.Intn(8<<10)))
				err = p.Update(oid, off, span, func(v []byte) error {
					rng.Read(v)
					return nil
				})
			default:
				_, err = p.Root(rootSize)
			}
			if err != nil && !strings.Contains(err.Error(), "out of space") {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err == nil && !oid.IsNull() {
				live = append(live, oid)
			}
		}
		nops := 10 + rng.Intn(40)
		for i := rng.Intn(nops); i > 0; i-- {
			step()
		}
		if rng.Intn(3) == 0 {
			r.tear = 1 + rng.Intn(4<<10)
			_, _ = p.AllocFrom(garbage(objSize()))
		} else {
			r.cutoff = r.writes + rng.Intn(6)
			step()
		}
		p.SimulateCrash()
		r.tear, r.cutoff = 0, -1
		if r.torn {
			tornSeeds++
		}

		walked, sawGarbage := checkWalkedOpen(t, seed, r.memRegion, layout)
		if sawGarbage {
			garbageSeeds++
		}
		// Fill every free extent exactly (first fit takes them in order),
		// then overwrite each new object so the reopen below compares a
		// dense heap of non-zero blocks.
		for _, fb := range slices.Clone(walked.heap.freeIdx) {
			n := fb.size - blockHeaderSize
			oid, err := walked.Alloc(n)
			if err != nil || oid.Off != fb.off+blockHeaderSize {
				t.Fatalf("seed %d: Alloc(%d) = %v, %v; want the extent at %#x", seed, n, oid, err, fb.off)
			}
			v, _ := walked.View(oid, n)
			if !isZero(v) {
				t.Fatalf("seed %d: fresh Alloc over the free extent at %#x is not zeroed", seed, fb.off)
			}
			rng.Read(v)
			if err := walked.Persist(oid, n); err != nil {
				t.Fatal(err)
			}
		}
		if err := walked.Close(); err != nil {
			t.Fatal(err)
		}
		checkWalkedOpen(t, seed, r.memRegion, layout)
	}
	if tornSeeds == 0 || garbageSeeds == 0 {
		t.Errorf("%d torn AllocFroms and %d pools with garbage in a free extent over %d seeds; the test must exercise both", tornSeeds, garbageSeeds, seeds)
	}
}

// checkWalkedOpen opens the pool on r as Open does and a reference copy
// whose view then reads the whole region, and fails t unless every pool
// and block header, every allocated block's bytes, Objects and Check
// agree. It returns the walked pool and whether some free block's body
// holds non-zero bytes on media.
func checkWalkedOpen(t *testing.T, seed int64, r *memRegion, layout string) (*Pool, bool) {
	t.Helper()
	snap := newMemRegion(len(r.data), true)
	copy(snap.data, r.data)
	walked, err := Open(r, layout)
	if err != nil {
		t.Fatalf("seed %d: walked open: %v", seed, err)
	}
	ref, err := Open(snap, layout)
	if err != nil {
		t.Fatalf("seed %d: reference open: %v", seed, err)
	}
	if err := snap.ReadAt(ref.view, 0); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(walked.view[:headerSize], ref.view[:headerSize]) {
		t.Fatalf("seed %d: pool header differs", seed)
	}
	sawGarbage := false
	for off := ref.heapOff; off < uint64(ref.size); {
		_, bsize, flags, _ := ref.heap.readHeader(off)
		n := uint64(blockHeaderSize)
		if flags&flagAllocated != 0 {
			n = bsize
		} else if !isZero(ref.view[off+blockHeaderSize : off+bsize]) {
			sawGarbage = true
		}
		if !bytes.Equal(walked.view[off:off+n], ref.view[off:off+n]) {
			t.Fatalf("seed %d: block at %#x (allocated %v) differs from a full read", seed, off, flags&flagAllocated != 0)
		}
		off += bsize
	}
	wantObjs, err := ref.Objects()
	if err != nil {
		t.Fatal(err)
	}
	gotObjs, err := walked.Objects()
	if err != nil || !reflect.DeepEqual(gotObjs, wantObjs) {
		t.Fatalf("seed %d: Objects = %v, %v; want %v", seed, gotObjs, err, wantObjs)
	}
	wantRep, err := ref.Check()
	if err != nil {
		t.Fatal(err)
	}
	if gotRep, err := walked.Check(); err != nil || gotRep != wantRep {
		t.Fatalf("seed %d: Check = %+v, %v; want %+v", seed, gotRep, err, wantRep)
	}
	return walked, sawGarbage
}
