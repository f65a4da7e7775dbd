package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"cxlpmem/internal/pmem"
	"cxlpmem/internal/topology"
)

const (
	txClients = 2    // nproc on the reference machine; each owns half the objects
	txObjSize = 1024 // bytes per object
	txPool    = "tx.pool"
	txLayout  = "pmem-tx"
	txZipfS   = 1.1
)

// txRanges are the update sizes; with seeded byte offsets they produce
// unaligned and sub-line ranges (partial-line writes on the wire).
var txRanges = [...]int{8, 64, 256, 1024}

// txBench is Setup #1 with a pool on /mnt/pmem2 holding small objects,
// split between txClients clients so every object has a single writer.
// Each client runs Pool.Update in a closed loop on a zipf-chosen object
// of its own. A shadow copy of every object records what each committed
// update wrote.
type txBench struct {
	ps        *poolStack
	pool      *pmem.Pool
	oids      []pmem.OID
	shadow    []byte // txObjSize bytes per object
	cls       []*txClient
	retired   counters // pool counters of instances closed by a crash
	modelRate float64
	corruptAt int64
}

type txClient struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	objs    []int // this client's objects, hottest first
	buf     [txObjSize]byte
	written int64
}

func newTxBench(cfg *config, tr *tracer) (bench, error) {
	rt, err := assemble(tr, topology.Setup1Options{})
	if err != nil {
		return nil, err
	}
	b := &txBench{}
	if b.ps, err = newPoolStack(rt, tr); err != nil {
		return nil, err
	}
	if b.pool, err = b.ps.create(txPool, txLayout, cfg.sz.txPool); err != nil {
		return nil, err
	}
	n := cfg.sz.txObjects
	b.oids = make([]pmem.OID, n)
	b.shadow = make([]byte, n*txObjSize)
	fill := rand.New(rand.NewPCG(cfg.seed, 0x7f))
	for i := range b.oids {
		oid, err := b.pool.Alloc(txObjSize)
		if err != nil {
			return nil, fmt.Errorf("object %d: %w", i, err)
		}
		b.oids[i] = oid
		v, err := b.pool.View(oid, txObjSize)
		if err != nil {
			return nil, err
		}
		obj := b.shadow[i*txObjSize : (i+1)*txObjSize]
		randBytes(fill, obj)
		copy(v, obj)
		if err := b.pool.Persist(oid, txObjSize); err != nil {
			return nil, err
		}
	}
	b.pool.Drain()
	for c := 0; c < txClients; c++ {
		rng := rand.New(rand.NewPCG(cfg.seed, uint64(0x100+c)))
		cl := &txClient{rng: rng}
		for i := c; i < n; i += txClients {
			cl.objs = append(cl.objs, i)
		}
		rng.Shuffle(len(cl.objs), func(i, j int) { cl.objs[i], cl.objs[j] = cl.objs[j], cl.objs[i] })
		cl.zipf = rand.NewZipf(rng, txZipfS, 1, uint64(len(cl.objs)-1))
		b.cls = append(b.cls, cl)
	}
	if b.modelRate, err = modelTriadGBps(rt); err != nil {
		return nil, err
	}
	return b, nil
}

// randBytes fills p from r.
func randBytes(r *rand.Rand, p []byte) {
	for i := 0; i < len(p); i += 8 {
		v := r.Uint64()
		for j := i; j < i+8 && j < len(p); j++ {
			p[j] = byte(v)
			v >>= 8
		}
	}
}

func (b *txBench) clients() int          { return txClients }
func (b *txBench) model() (float64, int) { return b.modelRate, 1 }

func (b *txBench) op(c int, rec *recorder) (int64, error) {
	cl := b.cls[c]
	obj := cl.objs[cl.zipf.Uint64()]
	size := txRanges[cl.rng.IntN(len(txRanges))]
	off := cl.rng.IntN(txObjSize - size + 1)
	data := cl.buf[:size]
	randBytes(cl.rng, data)
	id := rec.begin("pmem.update", size)
	err := b.pool.Update(b.oids[obj], uint64(off), uint64(size), func(v []byte) error {
		copy(v, data)
		return nil
	})
	rec.end(id)
	if err != nil {
		return 0, err
	}
	copy(b.shadow[obj*txObjSize+off:], data)
	cl.written += int64(size)
	return int64(size), nil
}

// finish is the gate: crash, reopen (running undo-log recovery), check
// the heap, and compare every object with the shadow.
func (b *txBench) finish(rec *recorder) error {
	b.retired.addPool(b.pool)
	id := rec.begin("pmem.crash", 0)
	b.pool.SimulateCrash()
	rec.end(id)
	if b.corruptAt > 0 {
		if err := b.ps.flipByte(txPool, b.corruptAt, 0x01); err != nil {
			return err
		}
	}
	pool, err := b.ps.open(rec, txPool, txLayout)
	if err != nil {
		return err
	}
	b.pool = pool
	rep, err := pool.Check()
	if err != nil {
		return err
	}
	if rep.AllocatedBlocks < len(b.oids) {
		return fmt.Errorf("heap holds %d allocated blocks, want at least %d", rep.AllocatedBlocks, len(b.oids))
	}
	for i, oid := range b.oids {
		v, err := pool.View(oid, txObjSize)
		if err != nil {
			return err
		}
		if want := b.shadow[i*txObjSize : (i+1)*txObjSize]; !bytes.Equal(v, want) {
			return fmt.Errorf("object %d differs from the shadow after restart", i)
		}
	}
	return nil
}

// corrupt arranges for the gate to flip one bit of object 0 on media
// after the crash.
func (b *txBench) corrupt() error {
	b.corruptAt = int64(b.oids[0].Off) + txObjSize/2
	return nil
}

func (b *txBench) counters() counters {
	c := b.retired
	c.addPool(b.pool)
	for _, cl := range b.cls {
		c.userBytes += cl.written
	}
	b.ps.counters(&c)
	return c
}

func (b *txBench) report(ls *loopStats) (float64, []metric) {
	return ls.payloadGBps(), nil
}
