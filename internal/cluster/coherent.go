package cluster

import (
	"fmt"
	"sync"
	"time"

	"cxlpmem/internal/coherency"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/units"
)

// Coherent shared segment over the pooled fabric. PR 2's RunParallel
// drives k hosts against DISJOINT MLD partitions; this file opens the
// scenario the repo previously could not express: k hosts hammering ONE
// shared segment with hardware coherence. The segment lives on a
// dedicated G-FAM-style appliance (the per-host appliance is carved
// exactly, Remaining() == 0 by invariant) attached to the SAME switch:
// every host reaches it through its own root port and a write-back
// CoherentCache, and the device-side directory back-invalidates over
// the switch before any conflicting grant.

// CoherentSegment is a shared, hardware-coherent region attached to
// every cluster host.
type CoherentSegment struct {
	// GFAM is the shared appliance; LD is the partition backing the
	// segment.
	GFAM *cxl.MLD
	LD   *cxl.LogicalDevice
	// Directory is the device-owned MESI directory.
	Directory *coherency.Directory
	// Caches holds one coherent cached view per cluster host.
	Caches []*coherency.CoherentCache
	// Ports holds the per-host root ports attached to the shared LD.
	Ports []*cxl.RootPort
	// Segment is the segment geometry (segment-relative).
	Segment coherency.Segment
}

// coherentWindowBase places the shared windows well clear of the
// enumerated per-host partition windows; coherentWindowStride
// separates the per-host windows (and caps the segment size — larger
// would make the windows overlap and alias across hosts).
const (
	coherentWindowBase   = uint64(0x40_0000_0000)
	coherentWindowStride = uint64(0x1_0000_0000)
)

// AttachCoherent stands up a shared segment of the given size and
// attaches every host to it coherently: a G-FAM appliance MLD joins
// the switch as a new downstream, the segment is carved from it, and
// each host gets a shared binding, a snooper registration, a root port
// with its own decoder window, and a CoherentCache of cacheLines
// lines — with the device-side directory arbitrating it all.
func (c *Cluster) AttachCoherent(size units.Size, cacheLines int) (*CoherentSegment, error) {
	if size <= 0 || size%units.CacheLine != 0 {
		return nil, fmt.Errorf("cluster: coherent segment size %d not a positive multiple of %d", size, units.CacheLine)
	}
	if uint64(size) > coherentWindowStride {
		return nil, fmt.Errorf("cluster: coherent segment %v exceeds the %v per-host window stride", size, units.Size(coherentWindowStride))
	}
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               "gfam-ddr4",
		Rate:               3200,
		Channels:           1,
		CapacityPerChannel: size,
		IdleLatency:        units.Nanoseconds(105),
		BatteryBacked:      true,
	})
	if err != nil {
		return nil, err
	}
	gfam, err := cxl.NewMLD("gfam", media)
	if err != nil {
		return nil, err
	}
	ld, err := gfam.Carve("ld-shared", size)
	if err != nil {
		return nil, err
	}
	const dsp = "dsp-shared"
	if err := c.Switch.AddDownstream(dsp, ld); err != nil {
		return nil, err
	}
	seg := coherency.Segment{Base: 0, Size: int64(size)}
	cs := &CoherentSegment{GFAM: gfam, LD: ld, Segment: seg}

	vppbs := make([]string, len(c.Hosts))
	accs := make([]coherency.Accessor, len(c.Hosts))
	for i := range c.Hosts {
		vppb := fmt.Sprintf("coh%d", i)
		if err := c.Switch.BindShared(vppb, dsp); err != nil {
			return nil, err
		}
		ep, ok := c.Switch.EndpointFor(vppb)
		if !ok {
			return nil, fmt.Errorf("cluster: vPPB %s lost its binding", vppb)
		}
		base := coherentWindowBase + uint64(i)*coherentWindowStride
		if err := ld.ProgramDecoder(&cxl.HDMDecoder{Base: base, Size: uint64(size)}); err != nil {
			return nil, err
		}
		link, err := interconnect.NewPCIe(fmt.Sprintf("pcie-coh%d", i), interconnect.KindPCIe5, 16, units.Nanoseconds(290))
		if err != nil {
			return nil, err
		}
		rp := cxl.NewRootPort(fmt.Sprintf("rp-coh%d", i), link)
		if err := rp.Attach(ep); err != nil {
			return nil, err
		}
		vppbs[i] = vppb
		accs[i] = cxl.NewWindowIO(rp, base)
		cs.Ports = append(cs.Ports, rp)
	}

	dir, err := coherency.NewDirectory(seg, c.Switch, vppbs)
	if err != nil {
		return nil, err
	}
	cs.Directory = dir
	for i := range c.Hosts {
		cache, err := coherency.NewCoherentCache(i, dir, accs[i], seg, cacheLines)
		if err != nil {
			return nil, err
		}
		if err := c.Switch.RegisterSnooper(vppbs[i], cache); err != nil {
			return nil, err
		}
		cs.Caches = append(cs.Caches, cache)
	}
	return cs, nil
}

// CoherentPoint is one measured row of the coherent scale-out run.
type CoherentPoint struct {
	// Hosts driven concurrently.
	Hosts int
	// OpsPerHost performed by each host (fetch-adds on the shared
	// counter plus slot writes and remote-slot reads).
	OpsPerHost int
	// Elapsed wall-clock time.
	Elapsed time.Duration
	// OpsPerSec is the aggregate coherent-operation rate.
	OpsPerSec float64
	// Counter is the final shared-counter value (must equal
	// Hosts×OpsPerHost — no lost updates).
	Counter uint64
	// Snoops and Writebacks snapshot the directory activity the run
	// generated.
	Snoops, Writebacks int64
}

// RunParallelCoherent drives the first k hosts concurrently over the
// shared coherent segment: every host fetch-adds one shared counter
// opsPerHost times, publishes a per-host progress slot and reads a
// neighbour's slot — classic true/false-sharing traffic with NO
// application-level locking or flushing. The directory's back-
// invalidate flow is what keeps the counter exact; the returned point
// carries the proof (Counter) and the snoop bill for it.
func (c *Cluster) RunParallelCoherent(cs *CoherentSegment, k, opsPerHost int) (*CoherentPoint, error) {
	if cs == nil || len(cs.Caches) != len(c.Hosts) {
		return nil, fmt.Errorf("cluster: coherent segment not attached to this cluster")
	}
	if k < 1 || k > len(c.Hosts) {
		return nil, fmt.Errorf("cluster: coherent host count %d outside 1..%d", k, len(c.Hosts))
	}
	if opsPerHost < 1 {
		return nil, fmt.Errorf("cluster: ops per host %d, want >= 1", opsPerHost)
	}
	// Layout: counter at 0; host i's progress slot at 64*(1+i) (one
	// line per slot — the neighbour reads make it genuine shared-read
	// traffic, the counter line is the contended one).
	if need := int64(64 * (1 + len(c.Hosts))); cs.Segment.Size < need {
		return nil, fmt.Errorf("cluster: coherent segment %d bytes, need >= %d", cs.Segment.Size, need)
	}
	snoops0 := cs.Directory.Stats().Snoops.Load()
	wbs0 := cs.Directory.Stats().Writebacks.Load()

	errs := make([]error, k)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cache := cs.Caches[i]
			slot := int64(64 * (1 + i))
			peer := int64(64 * (1 + (i+1)%k))
			for j := 0; j < opsPerHost; j++ {
				if _, err := cache.FetchAdd(0, 1); err != nil {
					errs[i] = err
					return
				}
				if err := cache.Store(slot, uint64(j+1)); err != nil {
					errs[i] = err
					return
				}
				if _, err := cache.Load(peer); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	counter, err := cs.Caches[0].Load(0)
	if err != nil {
		return nil, err
	}
	pt := &CoherentPoint{
		Hosts:      k,
		OpsPerHost: opsPerHost,
		Elapsed:    elapsed,
		OpsPerSec:  float64(3*k*opsPerHost) / elapsed.Seconds(),
		Counter:    counter,
		Snoops:     cs.Directory.Stats().Snoops.Load() - snoops0,
		Writebacks: cs.Directory.Stats().Writebacks.Load() - wbs0,
	}
	if counter != uint64(k*opsPerHost) {
		return pt, fmt.Errorf("cluster: coherent counter = %d, want %d (lost updates)", counter, k*opsPerHost)
	}
	return pt, nil
}
