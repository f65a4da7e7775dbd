package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"cxlpmem/internal/memdev"
	"cxlpmem/internal/tiering"
	"cxlpmem/internal/topology"
)

const (
	tierZipfS       = 1.3
	tierReadPerMil  = 750 // 3 reads : 1 write
	tierRotateEvery = 10  // epochs between hot-set rotations
	tierLine        = 64
)

// tierBench is the memtier policy daemon over DDR5 (4 pages), the CXL
// card (8) and a DCPMM module (16). Pages start cold, on DCPMM. One
// goroutine issues 64 B accesses; every epochEvery accesses the access
// that crosses the boundary also runs Daemon.RunEpoch inline. The hot
// set is permuted afresh every tierRotateEvery epochs so migrations go
// on after warm-up. Every read is checked against a shadow of all
// writes.
type tierBench struct {
	mgr     *tiering.Manager
	daemon  *tiering.Daemon
	machine *topology.Machine
	core    topology.Core
	tr      *tracer
	devs    []memdev.Device

	rng    *rand.Rand
	zipf   *rand.Zipf
	pages  []tiering.PageID
	perm   []int // hot-set rank -> page index
	shadow []byte

	epochEvery, horizon int
	accesses, writes    int64
	epochs              int
	moved, deferred     int64
	fastHits, traced    int64
	buf                 [tierLine]byte
	modelRate           float64

	// Simulated statistics at the model horizon, identical for a seed.
	atHorizon *tierHorizon
}

// tierHorizon is the simulated state when the horizon epoch starts.
type tierHorizon struct {
	modelAccessNs                   float64
	promotions, demotions, migrated int64
	mediaWritten, mediaRead         int64
}

func newTierBench(cfg *config, tr *tracer) (bench, error) {
	rt, err := assemble(tr, topology.Setup1Options{})
	if err != nil {
		return nil, err
	}
	mgr, hybrid, err := tiering.NewDDR5CXLDCPMMHierarchy(rt.Machine, 4, 8, cfg.sz.tierPages)
	if err != nil {
		return nil, err
	}
	b := &tierBench{mgr: mgr, machine: hybrid, tr: tr,
		rng: rand.New(rand.NewPCG(cfg.seed, 0x3e)), epochEvery: cfg.sz.epochEvery, horizon: cfg.sz.modelHorizon}
	b.core = hybrid.CoresOn(0)[0]
	for _, t := range mgr.Tiers() {
		b.devs = append(b.devs, t.Node.Device)
		if tr != nil {
			layer := "memdev"
			if t.Node.Kind == topology.NodeCXL {
				layer = "cxl"
			}
			t.IO = newTracedIO(t.IO, tr, layer)
		}
	}
	// The default watermarks (8 and 1 accesses) are absolute: at
	// epochEvery accesses per epoch every page of a 16-page zipf counts
	// as hot, none is ever demoted, and migrations stop once the fast
	// tiers fill. Scaled to the epoch's access count, a page is hot
	// from about 5 % of an epoch's accesses (decayed heat is twice the
	// per-epoch count) and cold below 2 %, so each hot-set rotation
	// moves pages both ways.
	dcfg := tiering.DaemonConfig{
		PromoteWatermark: float64(cfg.sz.epochEvery) / 10,
		DemoteWatermark:  float64(cfg.sz.epochEvery) / 25,
	}
	if b.daemon, err = tiering.NewDaemon(mgr, dcfg); err != nil {
		return nil, err
	}
	page := make([]byte, tiering.PageSize)
	b.shadow = make([]byte, cfg.sz.tierPages*tiering.PageSize)
	for i := 0; i < cfg.sz.tierPages; i++ {
		id, err := mgr.Alloc()
		if err != nil {
			return nil, err
		}
		b.pages = append(b.pages, id)
		randBytes(b.rng, page)
		copy(b.shadow[i*tiering.PageSize:], page)
		if err := mgr.Write(id, page, 0); err != nil {
			return nil, err
		}
	}
	b.perm = b.rng.Perm(len(b.pages))
	b.zipf = rand.NewZipf(b.rng, tierZipfS, 1, uint64(len(b.pages)-1))
	if b.modelRate, err = modelTriadGBps(rt); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *tierBench) clients() int          { return 1 }
func (b *tierBench) model() (float64, int) { return b.modelRate, 1 }

func (b *tierBench) op(_ int, rec *recorder) (int64, error) {
	if err := b.access(rec); err != nil {
		return 0, err
	}
	return tierLine, nil
}

func (b *tierBench) access(rec *recorder) error {
	pi := b.perm[b.zipf.Uint64()]
	id := b.pages[pi]
	off := int64(b.rng.IntN(tiering.PageSize/tierLine)) * tierLine
	want := b.shadow[int64(pi)*tiering.PageSize+off:][:tierLine]
	if b.tr != nil {
		if t, err := b.mgr.TierOf(id); err == nil && t == 0 {
			b.fastHits++
		}
		b.traced++
	}
	var err error
	if b.rng.IntN(1000) < tierReadPerMil {
		sid := rec.begin("tiering.read", tierLine)
		err = b.mgr.Read(id, b.buf[:], off)
		rec.end(sid)
		if err == nil && !bytes.Equal(b.buf[:], want) {
			err = fmt.Errorf("page %d offset %d: read differs from the last write", pi, off)
		}
	} else {
		randBytes(b.rng, b.buf[:])
		sid := rec.begin("tiering.write", tierLine)
		err = b.mgr.Write(id, b.buf[:], off)
		rec.end(sid)
		if err == nil {
			copy(want, b.buf[:])
			b.writes++
		}
	}
	b.accesses++
	if b.accesses%int64(b.epochEvery) == 0 {
		b.epoch(rec)
	}
	return err
}

// epoch runs one policy epoch, first taking the simulated statistics
// when it is the horizon epoch.
func (b *tierBench) epoch(rec *recorder) {
	if b.epochs+1 == b.horizon {
		b.snapshotHorizon()
	}
	id := rec.begin("tiering.epoch", 0)
	st := b.daemon.RunEpoch()
	rec.end(id)
	b.epochs++
	b.moved += int64(st.Promoted + st.Demoted)
	b.deferred += int64(st.Deferred)
	if b.epochs%tierRotateEvery == 0 {
		b.perm = b.rng.Perm(len(b.pages))
	}
}

func (b *tierBench) snapshotHorizon() {
	h := &tierHorizon{}
	if lat, err := b.mgr.AvgAccessLatency(b.machine, b.core); err == nil {
		h.modelAccessNs = lat.Ns()
	}
	st := b.mgr.Stats()
	h.promotions, h.demotions, h.migrated = int64(st.Promotions), int64(st.Demotions), st.BytesMigrated
	var c counters
	c.addDevices(b.devs)
	h.mediaWritten, h.mediaRead = c.mediaWritten, c.mediaRead
	b.atHorizon = h
}

// finish is the gate: it runs on to the model horizon if the timed run
// stopped short of it, then reads every page back whole and compares it
// with the shadow.
func (b *tierBench) finish(rec *recorder) error {
	for b.atHorizon == nil {
		if err := b.access(rec); err != nil {
			return err
		}
	}
	page := make([]byte, tiering.PageSize)
	for i, id := range b.pages {
		if err := b.mgr.Read(id, page, 0); err != nil {
			return err
		}
		if !bytes.Equal(page, b.shadow[i*tiering.PageSize:(i+1)*tiering.PageSize]) {
			return fmt.Errorf("page %d differs from the shadow", i)
		}
	}
	return nil
}

// corrupt writes one byte of page 0 behind the shadow's back, as a lost
// or misdirected write would.
func (b *tierBench) corrupt() error {
	var one [1]byte
	if err := b.mgr.Read(b.pages[0], one[:], 100); err != nil {
		return err
	}
	one[0] ^= 0x80
	return b.mgr.Write(b.pages[0], one[:], 100)
}

func (b *tierBench) counters() counters {
	var c counters
	st := b.mgr.Stats()
	c.promotions, c.demotions, c.migrated = int64(st.Promotions), int64(st.Demotions), st.BytesMigrated
	c.moved, c.deferred = b.moved, b.deferred
	c.accesses, c.fastHits = b.traced, b.fastHits
	c.userBytes = b.writes * tierLine
	c.addDevices(b.devs)
	for _, t := range b.mgr.Tiers() {
		if t.Node.Kind == topology.NodeCXL {
			c.addPorts(t.Node.Ports)
		}
	}
	if b.atHorizon != nil {
		c.modelAccessNs = b.atHorizon.modelAccessNs
	}
	return c
}

func (b *tierBench) report(ls *loopStats) (float64, []metric) {
	h := b.atHorizon
	if h == nil {
		h = &tierHorizon{}
	}
	note := fmt.Sprintf("SIMULATED, taken before epoch %d (%d accesses)", b.horizon, b.horizon*b.epochEvery-b.epochEvery)
	return ls.payloadGBps(), []metric{
		{name: "model_access_ns", value: h.modelAccessNs, unit: "ns-sim", note: note},
		{name: "horizon_promotions", value: float64(h.promotions), unit: "count", note: "at the model horizon"},
		{name: "horizon_demotions", value: float64(h.demotions), unit: "count", note: "at the model horizon"},
		{name: "horizon_migrated_MiB", value: float64(h.migrated) / (1 << 20), unit: "MiB", note: "at the model horizon"},
		{name: "horizon_media_written_MiB", value: float64(h.mediaWritten) / (1 << 20), unit: "MiB", note: "at the model horizon, all tiers"},
		{name: "horizon_media_read_MiB", value: float64(h.mediaRead) / (1 << 20), unit: "MiB", note: "at the model horizon, all tiers"},
		{name: "epochs", value: float64(b.epochs), unit: "count"},
	}
}
