package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"cxlpmem/internal/checkpoint"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/topology"
)

const (
	ckptPool      = "ckpt.pool"
	ckptSlots     = 4
	ckptKeep      = 3 // snapshots kept after each save
	ckptWays      = 2 // interleave ways of the CXL node
	ckptDirtyFrac = 4 // one chunk in ckptDirtyFrac changes per op
)

// ckptBench is incremental checkpoint/restart on a pool striped over a
// 2-way interleaved CXL node. One op dirties a quarter of the state's
// chunks, saves a snapshot against the previous one, deletes snapshots
// beyond ckptKeep, crashes, reopens the pool (recovery reads the whole
// pool across both legs) and requires Latest to equal the state.
type ckptBench struct {
	ps    *poolStack
	pool  *pmem.Pool
	mgr   *checkpoint.Manager
	rng   *rand.Rand
	state []byte
	id    uint64 // latest saved snapshot

	retired             counters // pool counters of instances closed by a crash
	dirtied, chunks     int64
	reused              int64
	saveLat             hist
	restarts, restartNs int64
	restartLat          hist
	modelRate           float64
	corruptNext         bool
}

func newCkptBench(cfg *config, tr *tracer) (bench, error) {
	rt, err := assemble(tr, topology.Setup1Options{InterleaveWays: ckptWays})
	if err != nil {
		return nil, err
	}
	b := &ckptBench{rng: rand.New(rand.NewPCG(cfg.seed, 0xc4)), state: make([]byte, cfg.sz.ckptState)}
	if b.ps, err = newPoolStack(rt, tr); err != nil {
		return nil, err
	}
	if b.pool, err = b.ps.create(ckptPool, checkpoint.Layout, cfg.sz.ckptPool); err != nil {
		return nil, err
	}
	if b.mgr, err = checkpoint.New(b.pool, ckptSlots); err != nil {
		return nil, err
	}
	randBytes(b.rng, b.state)
	b.id = 1
	if err := b.mgr.Save(b.id, 0, b.state); err != nil {
		return nil, err
	}
	if b.modelRate, err = modelTriadGBps(rt); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *ckptBench) clients() int          { return 1 }
func (b *ckptBench) model() (float64, int) { return b.modelRate, ckptWays }

func (b *ckptBench) op(_ int, rec *recorder) (int64, error) {
	// 1. Dirty a seeded quarter of the chunks.
	nChunks := (len(b.state) + checkpoint.ChunkSize - 1) / checkpoint.ChunkSize
	perm := b.rng.Perm(nChunks)
	for _, c := range perm[:nChunks/ckptDirtyFrac] {
		lo := c * checkpoint.ChunkSize
		randBytes(b.rng, b.state[lo:min(lo+checkpoint.ChunkSize, len(b.state))])
		b.dirtied += int64(min(checkpoint.ChunkSize, len(b.state)-lo))
	}
	// 2. Save incrementally against the previous snapshot.
	t0 := time.Now()
	id := rec.begin("checkpoint.save", len(b.state))
	err := b.mgr.Save(b.id+1, b.id, b.state)
	rec.end(id)
	if err != nil {
		return 0, err
	}
	b.saveLat.add(time.Since(t0).Nanoseconds())
	b.id++
	b.chunks += int64(nChunks)
	b.reused += int64(b.mgr.LastReused())
	if b.corruptNext {
		b.corruptNext = false
		if err := b.corruptLatest(perm[0]); err != nil {
			return 0, err
		}
	}
	// 3. Keep the newest ckptKeep snapshots.
	ids, err := b.mgr.List()
	if err != nil {
		return 0, err
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, old := range ids[:max(0, len(ids)-ckptKeep)] {
		id := rec.begin("checkpoint.delete", 0)
		err := b.mgr.Delete(old)
		rec.end(id)
		if err != nil {
			return 0, err
		}
	}
	// 4-5. Crash, reopen, and verify the latest snapshot byte for byte.
	t1 := time.Now()
	if err := b.restart(rec); err != nil {
		return 0, err
	}
	dt := time.Since(t1).Nanoseconds()
	b.restarts++
	b.restartNs += dt
	b.restartLat.add(dt)
	return int64(len(b.state)), nil
}

func (b *ckptBench) restart(rec *recorder) error {
	b.retired.addPool(b.pool)
	id := rec.begin("pmem.crash", 0)
	b.pool.SimulateCrash()
	rec.end(id)
	pool, err := b.ps.open(rec, ckptPool, checkpoint.Layout)
	if err != nil {
		return err
	}
	b.pool = pool
	if b.mgr, err = checkpoint.Open(pool); err != nil {
		return err
	}
	id = rec.begin("checkpoint.latest", len(b.state))
	got, data, err := b.mgr.Latest()
	rec.end(id)
	if err != nil {
		return err
	}
	if got != b.id {
		return fmt.Errorf("latest snapshot is %d, saved %d", got, b.id)
	}
	if !bytes.Equal(data, b.state) {
		return fmt.Errorf("snapshot %d differs from the saved state", got)
	}
	return nil
}

// finish is the gate: one more restart and byte-compare of Latest (every
// op already ran one).
func (b *ckptBench) finish(rec *recorder) error {
	if b.corruptNext {
		// The corruption hook armed after the last op: run one op so the
		// flipped byte reaches a restart.
		_, err := b.op(0, rec)
		return err
	}
	return b.restart(rec)
}

// corrupt arms the next op to flip one byte of a chunk its save wrote.
func (b *ckptBench) corrupt() error {
	b.corruptNext = true
	return nil
}

// corruptLatest flips a byte of chunk c's stored copy on media, finding
// it by content in the pool file.
func (b *ckptBench) corruptLatest(c int) error {
	img := make([]byte, b.pool.Size())
	f, err := b.ps.mnt.Open(ckptPool)
	if err != nil {
		return err
	}
	if err := f.ReadAt(img, 0); err != nil {
		return err
	}
	lo := c * checkpoint.ChunkSize
	at := bytes.Index(img, b.state[lo:lo+64])
	if at < 0 {
		return fmt.Errorf("chunk %d not found on media", c)
	}
	return b.ps.flipByte(ckptPool, int64(at+7), 0x10)
}

func (b *ckptBench) counters() counters {
	c := b.retired
	c.addPool(b.pool)
	c.userBytes = b.dirtied
	c.chunks, c.reused = b.chunks, b.reused
	c.restarts, c.restartNs = b.restarts, b.restartNs
	b.ps.counters(&c)
	return c
}

func (b *ckptBench) report(ls *loopStats) (float64, []metric) {
	gbps := div(float64(len(b.state)), b.saveLat.quantile(0.5))
	return gbps, []metric{
		{name: "ckpt_GBps", value: gbps, unit: "GB/s", note: "= payload_GBps: snapshot bytes over the median Save time"},
		{name: "restart_ms", value: b.restartLat.quantile(0.5) / 1e6, unit: "ms",
			note: fmt.Sprintf("median crash -> verified Latest, n=%d", b.restartLat.n)},
	}
}
