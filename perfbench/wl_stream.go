package main

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"unsafe"

	"cxlpmem/internal/core"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/stream"
	"cxlpmem/internal/topology"
)

// streamWorkers is the kernel thread count: nproc on the reference
// 2-vCPU machine, fixed so runs on other machines do the same work.
const streamWorkers = 2

// streamValidateEvery bounds the iterations between validations: STREAM's
// values grow by (2s + s²) per iteration, so they must be reset long
// before float64 overflows (about 220 iterations at s = 4).
const streamValidateEvery = 32

const streamPool = "stream.pool"

// streamBench is the paper's Listing 2 on Setup #1: three persistent
// arrays in a pool on /mnt/pmem2. One op runs Copy, Scale, Add and Triad
// with streamWorkers threads over the pool view, then persists the
// arrays.
type streamBench struct {
	rt     *core.Runtime
	ps     *poolStack
	pool   *pmem.Pool
	arr    *stream.PmemArrays
	scalar float64 // drawn from the seed; STREAM's canonical value is 3
	iters  int     // iterations since the arrays were last initialised
	// persisted counts array bytes the ops asked to persist.
	persisted int64
	modelRate float64
	// corruptAt, when > 0, is a pool offset the gate flips on media.
	corruptAt int64
}

func newStreamBench(cfg *config, tr *tracer) (bench, error) {
	rt, err := assemble(tr, topology.Setup1Options{})
	if err != nil {
		return nil, err
	}
	b := &streamBench{rt: rt, scalar: 2 + 2*rand.New(rand.NewPCG(cfg.seed, 0x57)).Float64()}
	if b.ps, err = newPoolStack(rt, tr); err != nil {
		return nil, err
	}
	n := cfg.sz.streamN
	size := int64(3*(n*8+4096)) + pmem.MinPoolSize + 1<<20
	size = (size + 4095) &^ 4095
	if b.pool, err = b.ps.create(streamPool, stream.Layout, size); err != nil {
		return nil, err
	}
	if b.arr, err = stream.AllocPmemArrays(b.pool, n); err != nil {
		return nil, err
	}
	if err := b.reinit(); err != nil {
		return nil, err
	}
	if b.modelRate, err = modelTriadGBps(rt); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *streamBench) reinit() error {
	stream.Init(b.arr)
	b.iters = 0
	b.persisted += 3 * 8 * int64(b.arr.N())
	return b.arr.Persist()
}

func (b *streamBench) clients() int          { return 1 }
func (b *streamBench) model() (float64, int) { return b.modelRate, 1 }

// streamBytes is what STREAM counts for one iteration of all four
// kernels: 16 B per element for Copy and Scale, 24 B for Add and Triad.
func streamBytes(n int) int64 {
	var per int64
	for _, k := range stream.Ops {
		per += int64(k.BytesPerElement())
	}
	return per * int64(n)
}

func (b *streamBench) op(_ int, rec *recorder) (int64, error) {
	n := b.arr.N()
	for _, k := range stream.Ops {
		id := rec.begin("stream.execute", k.BytesPerElement()*n)
		err := stream.Execute(k, b.arr, b.scalar, streamWorkers)
		rec.end(id)
		if err != nil {
			return 0, err
		}
	}
	id := rec.begin("pmem.persist", 3*8*n)
	err := b.arr.Persist()
	rec.end(id)
	if err != nil {
		return 0, err
	}
	b.iters++
	b.persisted += 3 * 8 * int64(n)
	return streamBytes(n), nil
}

// maintain validates and resets the arrays every streamValidateEvery
// iterations, outside the timed ops.
func (b *streamBench) maintain() error {
	if b.iters < streamValidateEvery {
		return nil
	}
	if err := stream.Validate(b.arr, b.iters, b.scalar); err != nil {
		return err
	}
	return b.reinit()
}

func float64Bytes(s []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
}

func (b *streamBench) checksum(arr *stream.PmemArrays) uint32 {
	h := crc32.NewIEEE()
	for _, s := range [][]float64{arr.A(), arr.B(), arr.C()} {
		h.Write(float64Bytes(s))
	}
	return h.Sum32()
}

// finish is the gate: Validate, crash, reopen the pool and the arrays,
// Validate again, and require the reopened arrays to be bit-identical
// to the persisted ones.
func (b *streamBench) finish(rec *recorder) error {
	if err := stream.Validate(b.arr, b.iters, b.scalar); err != nil {
		return err
	}
	want := b.checksum(b.arr)
	b.crash(rec)
	if b.corruptAt > 0 {
		if err := b.ps.flipByte(streamPool, b.corruptAt, 0x40); err != nil {
			return err
		}
	}
	pool, err := b.ps.open(rec, streamPool, stream.Layout)
	if err != nil {
		return err
	}
	b.pool = pool
	if b.arr, err = stream.OpenPmemArrays(pool); err != nil {
		return err
	}
	if err := stream.Validate(b.arr, b.iters, b.scalar); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	if got := b.checksum(b.arr); got != want {
		return fmt.Errorf("after restart: arrays crc %08x, persisted %08x", got, want)
	}
	return nil
}

func (b *streamBench) crash(rec *recorder) {
	id := rec.begin("pmem.crash", 0)
	b.pool.SimulateCrash()
	rec.end(id)
}

// corrupt arranges for the gate to flip the exponent byte of a[n/2] on
// media after the crash.
func (b *streamBench) corrupt() error {
	oa, _, _ := b.arr.OIDs()
	b.corruptAt = int64(oa.Off) + int64(b.arr.N()/2)*8 + 7
	return nil
}

func (b *streamBench) counters() counters {
	var c counters
	c.addPool(b.pool)
	c.userBytes = b.persisted
	b.ps.counters(&c)
	return c
}

func (b *streamBench) report(ls *loopStats) (float64, []metric) {
	gbps := div(float64(streamBytes(b.arr.N())), ls.lat.quantile(0.5))
	return gbps, []metric{
		{name: "stream_GBps", value: gbps, unit: "GB/s", note: "= payload_GBps: STREAM-counted bytes over the median iteration time, persist included"},
		{name: "scalar", value: b.scalar, unit: "1", note: "drawn from the seed"},
		{name: "array_MiB", value: float64(b.arr.N()*8) / (1 << 20), unit: "MiB", note: "per array, 3 arrays"},
	}
}
