package checkpoint

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"cxlpmem/internal/pmem"
)

// memRegion is a persistent in-memory pmem.Region. It counts media
// writes; when limit is non-zero, writes after the first limit are
// dropped, as if power failed at that point.
type memRegion struct {
	mu     sync.Mutex
	data   []byte
	writes int
	limit  int
}

func (r *memRegion) ReadAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		return errors.New("out of range")
	}
	copy(p, r.data[off:])
	return nil
}

func (r *memRegion) WriteAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		return errors.New("out of range")
	}
	r.writes++
	if r.limit > 0 && r.writes > r.limit {
		return nil // power was already lost; the store never reached media
	}
	copy(r.data[off:], p)
	return nil
}

func (r *memRegion) Size() int64      { return int64(len(r.data)) }
func (r *memRegion) Persistent() bool { return true }

func newManager(t *testing.T, slots int) (*Manager, *pmem.Pool, *memRegion) {
	t.Helper()
	r := &memRegion{data: make([]byte, 8<<20)}
	pool, err := pmem.Create(r, Layout)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(pool, slots)
	if err != nil {
		t.Fatal(err)
	}
	return m, pool, r
}

func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i%251)
	}
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, _, _ := newManager(t, 4)
	data := pattern(10_000, 1)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	ids, err := m.List()
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("List = %v, %v", ids, err)
	}
}

func TestIncrementalDedup(t *testing.T) {
	m, pool, _ := newManager(t, 4)
	data := pattern(16*ChunkSize, 2)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	allocsAfterFull := pool.Stats().Allocs.Load()
	// Change exactly one chunk and save incrementally.
	data2 := append([]byte(nil), data...)
	data2[5*ChunkSize+10] ^= 0xFF
	if err := m.Save(2, 1, data2); err != nil {
		t.Fatal(err)
	}
	if got := m.LastReused(); got != 15 {
		t.Errorf("reused %d chunks, want 15", got)
	}
	// Only two allocations: one new chunk + one descriptor.
	if delta := pool.Stats().Allocs.Load() - allocsAfterFull; delta != 2 {
		t.Errorf("incremental save allocated %d objects, want 2", delta)
	}
	// Both snapshots load correctly.
	g1, err := m.Load(1)
	if err != nil || !bytes.Equal(g1, data) {
		t.Error("base snapshot corrupted by incremental save")
	}
	g2, err := m.Load(2)
	if err != nil || !bytes.Equal(g2, data2) {
		t.Error("incremental snapshot wrong")
	}
}

func TestDeleteKeepsSharedChunks(t *testing.T) {
	m, _, _ := newManager(t, 4)
	data := pattern(8*ChunkSize, 3)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	data2 := append([]byte(nil), data...)
	data2[0] ^= 1
	if err := m.Save(2, 1, data2); err != nil {
		t.Fatal(err)
	}
	// Deleting the base must not break the incremental snapshot that
	// shares its chunks.
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(2)
	if err != nil || !bytes.Equal(got, data2) {
		t.Errorf("shared chunks freed under live snapshot: %v", err)
	}
	if err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(2); err == nil {
		t.Error("deleted snapshot loads")
	}
	if err := m.Delete(2); err == nil {
		t.Error("double delete accepted")
	}
}

func TestSlotExhaustionAndValidation(t *testing.T) {
	m, _, _ := newManager(t, 2)
	if err := m.Save(1, 0, pattern(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(2, 0, pattern(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(3, 0, pattern(100, 3)); err == nil {
		t.Error("save past slot capacity accepted")
	}
	if err := m.Save(1, 0, pattern(100, 1)); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := m.Save(0, 0, pattern(100, 1)); err == nil {
		t.Error("id 0 accepted")
	}
	if err := m.Save(9, 0, nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	if err := m.Save(9, 7, pattern(100, 1)); err == nil {
		t.Error("missing base accepted")
	}
	if _, err := m.Load(99); err == nil {
		t.Error("missing snapshot loads")
	}
	if m.Slots() != 2 {
		t.Error("Slots")
	}
}

func TestLatest(t *testing.T) {
	m, _, _ := newManager(t, 4)
	if _, _, err := m.Latest(); err == nil {
		t.Error("Latest on empty directory accepted")
	}
	_ = m.Save(3, 0, pattern(64, 3))
	_ = m.Save(7, 0, pattern(64, 7))
	_ = m.Save(5, 0, pattern(64, 5))
	id, data, err := m.Latest()
	if err != nil || id != 7 {
		t.Fatalf("Latest = %d, %v", id, err)
	}
	if !bytes.Equal(data, pattern(64, 7)) {
		t.Error("Latest data wrong")
	}
}

func TestSurvivesCrashAndReopen(t *testing.T) {
	m, pool, region := newManager(t, 4)
	data := pattern(3*ChunkSize+17, 9)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	pool.SimulateCrash()

	pool2, err := pmem.Open(region, Layout)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(pool2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Slots() != 4 {
		t.Errorf("slots after reopen = %d", m2.Slots())
	}
	got, err := m2.Load(1)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("snapshot lost across crash: %v", err)
	}
	// New + same slots also reattaches; different slot count refuses.
	if _, err := New(pool2, 4); err != nil {
		t.Errorf("New reattach: %v", err)
	}
	if _, err := New(pool2, 8); err == nil {
		t.Error("New with mismatched slots accepted")
	}
}

func TestOpenOnForeignPoolFails(t *testing.T) {
	r := &memRegion{data: make([]byte, 4<<20)}
	pool, err := pmem.Create(r, "other-layout")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pool); err == nil {
		t.Error("Open on pool without directory accepted")
	}
	if _, err := New(pool, 0); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := New(pool, MaxSlots+1); err == nil {
		t.Error("oversized slots accepted")
	}
}

func TestCorruptChunkDetected(t *testing.T) {
	m, pool, _ := newManager(t, 4)
	data := pattern(2*ChunkSize, 4)
	if err := m.Save(1, 0, data); err != nil {
		t.Fatal(err)
	}
	// Corrupt a chunk in place through the descriptor.
	refs, _, err := m.loadDescriptor(1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := pool.View(pmem.OID{PoolID: pool.PoolID(), Off: refs[0].off}, 8)
	if err != nil {
		t.Fatal(err)
	}
	v[0] ^= 0xFF
	if _, err := m.Load(1); err == nil {
		t.Error("corrupt chunk passed CRC")
	}
}

// Crash sweep: power fails after every media write of one incremental
// Save, and again after every media write of the Delete that follows.
// After each crash the pool is reopened and must pass Check, Latest must
// be the last published snapshot byte for byte, and the pool must still
// take a new Save.
func TestCrashSweepSaveAndDelete(t *testing.T) {
	s1 := pattern(16*ChunkSize+100, 1)
	s2 := append([]byte(nil), s1...)
	for _, c := range []int{1, 5, 9, 13, 16} { // a quarter of the chunks and the short tail
		s2[c*ChunkSize] ^= 0xFF
	}
	s3 := append([]byte(nil), s2...)
	s3[0] ^= 0xFF
	states := map[uint64][]byte{1: s1, 2: s2}

	// history replays the same writes up to the point under test:
	// snapshot 1, then (when withSave2) the incremental snapshot 2.
	history := func(withSave2 bool) (*Manager, *pmem.Pool, *memRegion) {
		t.Helper()
		r := &memRegion{data: make([]byte, 2<<20)}
		pool, err := pmem.Create(r, Layout)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(pool, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(1, 0, s1); err != nil {
			t.Fatal(err)
		}
		if withSave2 {
			if err := m.Save(2, 1, s2); err != nil {
				t.Fatal(err)
			}
		}
		return m, pool, r
	}
	// recoverAt crashes the pool, reopens the region and checks the
	// invariants; it returns the recovered manager and its Latest id.
	recoverAt := func(what string, k int, pool *pmem.Pool, r *memRegion) (*Manager, uint64) {
		t.Helper()
		pool.SimulateCrash()
		r.limit = 0
		p2, err := pmem.Open(r, Layout)
		if err != nil {
			t.Fatalf("%s, crash after write %d: reopen: %v", what, k, err)
		}
		if _, err := p2.Check(); err != nil {
			t.Fatalf("%s, crash after write %d: %v", what, k, err)
		}
		m2, err := Open(p2)
		if err != nil {
			t.Fatalf("%s, crash after write %d: %v", what, k, err)
		}
		id, data, err := m2.Latest()
		if err != nil || states[id] == nil || !bytes.Equal(data, states[id]) {
			t.Fatalf("%s, crash after write %d: Latest = %d, %v, or its bytes differ from the saved state", what, k, id, err)
		}
		if err := m2.Save(3, id, s3); err != nil {
			t.Fatalf("%s, crash after write %d: Save after recovery: %v", what, k, err)
		}
		if got, err := m2.Load(3); err != nil || !bytes.Equal(got, s3) {
			t.Fatalf("%s, crash after write %d: snapshot saved after recovery reads back wrong: %v", what, k, err)
		}
		return m2, id
	}

	// Control runs count the writes of each step.
	_, _, r := history(false)
	beforeSave := r.writes
	_, _, r = history(true)
	beforeDelete := r.writes
	m, _, r := history(true)
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	saveWrites, deleteWrites := beforeDelete-beforeSave, r.writes-beforeDelete
	if saveWrites < 2 || deleteWrites < 2 {
		t.Fatalf("Save made %d writes and Delete %d; the sweep needs several", saveWrites, deleteWrites)
	}

	published := false
	for k := 0; k <= saveWrites; k++ {
		m, pool, r := history(false)
		r.limit = beforeSave + k
		_ = m.Save(2, 1, s2) // writes past the limit look successful
		_, id := recoverAt("Save", k, pool, r)
		switch {
		case k == 0 && id != 1:
			t.Fatalf("Save, crash before any write: Latest = %d, want 1", id)
		case k == saveWrites && id != 2:
			t.Fatalf("Save, crash after every write: Latest = %d, want 2", id)
		case published && id != 2:
			t.Fatalf("Save, crash after write %d: snapshot 2 published at an earlier cut is gone", k)
		}
		published = id == 2
	}

	deleted := false
	for k := 0; k <= deleteWrites; k++ {
		m, pool, r := history(true)
		r.limit = beforeDelete + k
		_ = m.Delete(1)
		m2, id := recoverAt("Delete", k, pool, r)
		if id != 2 {
			t.Fatalf("Delete, crash after write %d: Latest = %d, want 2", k, id)
		}
		// Snapshot 1 is either still whole or gone, and once gone at
		// one cut it stays gone at every later one.
		got, err := m2.Load(1)
		switch {
		case err == nil && !bytes.Equal(got, s1):
			t.Fatalf("Delete, crash after write %d: snapshot 1 still listed but damaged", k)
		case err == nil && deleted:
			t.Fatalf("Delete, crash after write %d: snapshot 1 reappeared", k)
		case err != nil && k == 0:
			t.Fatalf("Delete, crash before any write: snapshot 1 lost: %v", err)
		case err == nil && k == deleteWrites:
			t.Fatal("Delete, crash after every write: snapshot 1 still listed")
		}
		deleted = err != nil
	}
}
