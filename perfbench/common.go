package main

import (
	"fmt"
	"time"

	"cxlpmem/internal/core"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/numa"
	"cxlpmem/internal/perf"
	"cxlpmem/internal/pmem"
	"cxlpmem/internal/pmemfs"
	"cxlpmem/internal/stream"
	"cxlpmem/internal/streamer"
	"cxlpmem/internal/topology"
)

// bench is one workload, set up and ready to run.
type bench interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// op runs one operation for client c and returns the payload bytes
	// it moved.
	op(c int, rec *recorder) (int64, error)
	// finish is the workload's end-of-run correctness gate.
	finish(rec *recorder) error
	// counters snapshots the program's own counters.
	counters() counters
	// report gives payload_GBps and the workload's own figures.
	report(ls *loopStats) (payloadGBps float64, extra []metric)
	// model is the simulated App-Direct Triad rate of the workload's
	// CXL node and that node's interleave ways.
	model() (gbps float64, ways int)
	// corrupt damages one byte of the workload's output so that the
	// next gate must fail (tests only).
	corrupt() error
}

// maintainer is a single-client bench with untimed work between ops.
type maintainer interface {
	maintain() error
}

// counters are the program's own counters, read at layer boundaries.
type counters struct {
	// pmem.Pool.Stats, summed over every pool instance of the run.
	persists, drains, commits, aborts int64
	// RootPort.Stats, summed over the CXL node's ports.
	issued, doorbells, retries, timeouts, cqOverflows int64
	legIssued                                         []int64
	// memdev.Stats, summed over every device the workload touches.
	mediaWritten, mediaRead int64
	// userBytes is what the workload itself asked to write.
	userBytes int64
	// checkpoint.
	chunks, reused, restarts, restartNs int64
	// tiering.
	promotions, demotions, migrated int64
	moved, deferred                 int64
	accesses, fastHits              int64
	// modelAccessNs is a level, not a count: the simulated average
	// access latency at the model horizon.
	modelAccessNs float64
}

// sub returns c - o for every count; levels keep c's value.
func (c counters) sub(o counters) counters {
	d := c
	d.persists -= o.persists
	d.drains -= o.drains
	d.commits -= o.commits
	d.aborts -= o.aborts
	d.issued -= o.issued
	d.doorbells -= o.doorbells
	d.retries -= o.retries
	d.timeouts -= o.timeouts
	d.cqOverflows -= o.cqOverflows
	d.legIssued = make([]int64, len(c.legIssued))
	for i := range c.legIssued {
		d.legIssued[i] = c.legIssued[i]
		if i < len(o.legIssued) {
			d.legIssued[i] -= o.legIssued[i]
		}
	}
	d.mediaWritten -= o.mediaWritten
	d.mediaRead -= o.mediaRead
	d.userBytes -= o.userBytes
	d.chunks -= o.chunks
	d.reused -= o.reused
	d.restarts -= o.restarts
	d.restartNs -= o.restartNs
	d.promotions -= o.promotions
	d.demotions -= o.demotions
	d.migrated -= o.migrated
	d.moved -= o.moved
	d.deferred -= o.deferred
	d.accesses -= o.accesses
	d.fastHits -= o.fastHits
	return d
}

func (c *counters) addPool(p *pmem.Pool) {
	if p == nil {
		return
	}
	st := p.Stats()
	c.persists += st.Persists.Load()
	c.drains += st.Drains.Load()
	c.commits += st.TxCommits.Load()
	c.aborts += st.TxAborts.Load()
}

func (c *counters) addPorts(ports []*cxl.RootPort) {
	for _, rp := range ports {
		st := rp.Stats()
		c.issued += st.Issued
		c.doorbells += st.Doorbells
		c.retries += st.Retries
		c.timeouts += st.Timeouts
		c.cqOverflows += st.CQOverflows
		c.legIssued = append(c.legIssued, st.Issued)
	}
}

func (c *counters) addDevices(devs []memdev.Device) {
	for _, d := range devs {
		_, _, rd, wr := d.Stats().Snapshot()
		c.mediaRead += rd
		c.mediaWritten += wr
	}
}

// cxlMedia returns the media behind each of a CXL node's ports.
func cxlMedia(n *topology.Node) ([]memdev.Device, error) {
	var out []memdev.Device
	for _, rp := range n.Ports {
		ep, ok := rp.Endpoint().(interface{ Media() memdev.Device })
		if !ok {
			return nil, fmt.Errorf("port %s: endpoint exposes no media", rp.Name())
		}
		out = append(out, ep.Media())
	}
	return out, nil
}

// assemble builds Setup #1 through core, recording the time on a
// traced run for core.setup_ms.
func assemble(tr *tracer, opts topology.Setup1Options) (*core.Runtime, error) {
	t0 := time.Now()
	rt, err := core.NewSetup1(opts)
	if tr != nil {
		tr.setupNs = time.Since(t0).Nanoseconds()
	}
	return rt, err
}

// modelTriadGBps is the performance engine's App-Direct Triad rate of
// the runtime's CXL node with 10 threads on socket 0: the Fig 8
// quantity of the paper.
func modelTriadGBps(rt *core.Runtime) (float64, error) {
	n, ok := rt.CXLNode()
	if !ok {
		return 0, fmt.Errorf("machine has no CXL node")
	}
	cores, err := numa.PlaceOnSocket(rt.Machine, 0, 10)
	if err != nil {
		return 0, err
	}
	r, err := rt.Engine.StreamBandwidth(cores, n.ID, stream.Triad.Mix(), perf.AppDirect)
	if err != nil {
		return 0, err
	}
	return r.Total.GBps(), nil
}

// checkModel is the simulated-statistics gate: every §4 summary claim
// of the model holds, and model_GBps is exactly the Fig 8 point
// (socket0 pmem#2, 10 threads) on a single-card machine and no lower on
// a striped one.
func checkModel(gbps float64, ways int) error {
	h, err := streamer.NewHarness()
	if err != nil {
		return err
	}
	claims, err := h.SummaryClaims()
	if err != nil {
		return err
	}
	for _, c := range claims {
		if !c.Pass {
			return fmt.Errorf("model claim %s fails: paper %s, model %s", c.ID, c.Paper, c.Measured)
		}
	}
	fig, err := h.Figure(8)
	if err != nil {
		return err
	}
	series := fig.Groups[streamer.Group1b]
	for i := range series {
		if series[i].Label != "socket0 pmem#2" {
			continue
		}
		want, ok := series[i].At(10)
		switch {
		case !ok:
			return fmt.Errorf("fig 8 has no 10-thread point")
		case ways == 1 && gbps != want:
			return fmt.Errorf("model_GBps %v differs from the fig 8 value %v", gbps, want)
		case ways > 1 && gbps < want:
			return fmt.Errorf("model_GBps %v of a %d-way node is below the single-card fig 8 value %v", gbps, ways, want)
		}
		return nil
	}
	return fmt.Errorf("fig 8 has no socket0 pmem#2 series")
}

// poolStack creates and opens pools on the CXL node's mount
// (/mnt/pmem2). Untraced it calls core.Runtime.CreatePool/OpenPool.
// Traced it repeats their composition — a pmemfs mount over the node's
// data path and a region over the file that forwards PowerCycle to the
// node's media — with the data path and the region wrapped, because
// the runtime's own mount cannot be reached from outside core.
type poolStack struct {
	rt   *core.Runtime
	node *topology.Node
	devs []memdev.Device // media behind the node's ports
	tr   *tracer
	mnt  *pmemfs.Mount
}

func newPoolStack(rt *core.Runtime, tr *tracer) (*poolStack, error) {
	node, ok := rt.CXLNode()
	if !ok {
		return nil, fmt.Errorf("machine has no CXL node")
	}
	devs, err := cxlMedia(node)
	if err != nil {
		return nil, err
	}
	s := &poolStack{rt: rt, node: node, devs: devs, tr: tr}
	if tr == nil {
		s.mnt, err = rt.MountFor(node.ID)
	} else {
		s.mnt, err = pmemfs.NewMount(fmt.Sprintf("/mnt/pmem%d", node.ID),
			newTracedIO(node.DataPath(), tr, "cxl"), int64(node.Window.Size), node.Persistent())
	}
	return s, err
}

func (s *poolStack) region(f *pmemfs.File) pmem.Region {
	return &tracedRegion{File: f, dev: s.node.Device, tr: s.tr}
}

func (s *poolStack) create(name, layout string, size int64) (*pmem.Pool, error) {
	if s.tr == nil {
		return s.rt.CreatePool(s.node.ID, name, layout, size)
	}
	f, err := s.mnt.Create(name, size)
	if err != nil {
		return nil, err
	}
	return pmem.Create(s.region(f), layout)
}

// open reopens a pool, running recovery, as span "core.openpool" with
// "pmem.open" inside it.
func (s *poolStack) open(rec *recorder, name, layout string) (*pmem.Pool, error) {
	id := rec.begin("core.openpool", 0)
	defer rec.end(id)
	if s.tr == nil {
		return s.rt.OpenPool(s.node.ID, name, layout)
	}
	f, err := s.mnt.Open(name)
	if err != nil {
		return nil, err
	}
	oid := rec.begin("pmem.open", int(f.Size()))
	defer rec.end(oid)
	return pmem.Open(s.region(f), layout)
}

// flipByte corrupts one byte of a pool file's media in place, for the
// gate tests: it stands in for a defect that loses or mangles data.
func (s *poolStack) flipByte(name string, off int64, mask byte) error {
	f, err := s.mnt.Open(name)
	if err != nil {
		return err
	}
	var b [1]byte
	if err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= mask
	return f.WriteAt(b[:], off)
}

func (s *poolStack) counters(c *counters) {
	c.addPorts(s.node.Ports)
	c.addDevices(s.devs)
}
