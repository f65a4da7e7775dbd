package cxlpmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/ras"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/units"
)

// RAS fault matrix: the full detection→recovery pipeline — patrol
// scrub finds latent poison, thresholds degrade the device, the stripe
// evacuates its leg onto spare headroom, the drained port is
// hot-removed and a replacement hot-added, and the restripe restores
// full width — is replayed once per cut point, with a recoverable CRC
// fault storm raging on the victim's link from that phase onward and
// foreground tenant traffic running throughout. This is the crashmatrix
// discipline applied to the RAS plane: instead of a power cut after
// every media write, a link-degradation onset before every pipeline
// phase.
//
// Invariants asserted after every cut:
//   - zero data loss: the static seed and the foreground writer's
//     mirror both read back byte-exact through the restriped set;
//   - no stuck tenant: every foreground op completes (the writer
//     fails the test on any error, and the run joins it);
//   - full width: N-way striping is restored with the replacement in
//     the victim's slot and no leftover spare decoders;
//   - truthful plane: the victim ends Offline with its poison count,
//     the replacement ends Healthy.

const (
	rasWays    = 3
	rasGranule = 4096
	// rasShare caps each leg's striped bytes well below its 16 MiB
	// HDM, leaving the headroom BeginEvacuation borrows for spares.
	// Small enough that all nine cuts sweep quickly under -race.
	rasShare  = uint64(512) << 10
	rasVictim = 1
)

// rasLeg bundles one stripe leg's media, endpoint and trained port.
type rasLeg struct {
	media memdev.Device
	dev   *cxl.Type3Device
	port  *cxl.RootPort
}

func rasMatrixLeg(tb testing.TB, name string) rasLeg {
	tb.Helper()
	media, err := memdev.NewDRAM(memdev.DRAMConfig{
		Name:               name + "-ddr4",
		Rate:               1333,
		Channels:           2,
		CapacityPerChannel: 8 * units.MiB,
		BatteryBacked:      true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := cxl.NewType3(name, 0x8086, 0x0D93, media)
	if err != nil {
		tb.Fatal(err)
	}
	link, err := interconnect.NewPCIe(name+"-pcie", interconnect.KindPCIe5, 16, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rp := cxl.NewRootPort(name+"-rp", link)
	if err := rp.Attach(dev); err != nil {
		tb.Fatal(err)
	}
	return rasLeg{media: media, dev: dev, port: rp}
}

func rasMatrixSet(tb testing.TB) (*cxl.InterleaveSet, []rasLeg) {
	tb.Helper()
	legs := make([]rasLeg, rasWays)
	ports := make([]*cxl.RootPort, rasWays)
	for i := range legs {
		legs[i] = rasMatrixLeg(tb, fmt.Sprintf("ras-leg%d", i))
		ports[i] = legs[i].port
	}
	s, err := cxl.NewInterleaveSetOpts("ras-stripe", cxl.InterleaveOptions{
		Base:    cxl.DefaultCXLWindowBase,
		Granule: rasGranule,
		Share:   rasShare,
	}, ports...)
	if err != nil {
		tb.Fatal(err)
	}
	return s, legs
}

// rasInjectPoison plants latent poison on the victim's media at DPAs
// above the striped share — a fault patrol must find before any demand
// access would (the data path never touches that headroom).
func rasInjectPoison(tb testing.TB, mbox *cxl.Mailbox, lines int) {
	tb.Helper()
	for i := 0; i < lines; i++ {
		var dpa [8]byte
		binary.LittleEndian.PutUint64(dpa[:], rasShare+uint64(i)*rasGranule)
		if _, status := mbox.Execute(cxl.OpInjectPoison, dpa[:]); status != cxl.MboxSuccess {
			tb.Fatalf("inject poison %d: %v", i, status)
		}
	}
}

func TestRASMatrixFaultAtEveryPhase(t *testing.T) {
	// Phase names double as cut labels: cut=k means the CRC storm on
	// the victim's link starts just before phase k; cut=len(phases) is
	// the storm-free control run.
	phases := []string{
		"patrol-scrub", "evaluate", "begin-evacuation",
		"evacuate-front", "evacuate-tail",
		"hot-remove", "hot-add", "restripe",
	}
	for cut := 0; cut <= len(phases); cut++ {
		label := "control"
		if cut < len(phases) {
			label = "storm@" + phases[cut]
		}
		t.Run(label, func(t *testing.T) { runRASMatrixCut(t, cut) })
	}
}

func runRASMatrixCut(t *testing.T, cut int) {
	s, legs := rasMatrixSet(t)
	repl := rasMatrixLeg(t, "ras-repl")

	mbox, err := cxl.NewMailbox(legs[rasVictim].dev, "ras-fw1")
	if err != nil {
		t.Fatal(err)
	}
	rasInjectPoison(t, mbox, 3)

	// Link retries are expected under the storm, so only the error
	// counters drive degradation here.
	plane := ras.NewPlane(ras.Thresholds{MaxCorrectable: 3, MaxUncorrectable: 1}, ras.ScrubConfig{})
	if err := plane.Register("victim", legs[rasVictim].media, ras.DeviceOptions{
		Poisoned: mbox.IsPoisoned,
		Ranges: func() []memdev.Range {
			// Committed footprint: the striped share plus the headroom
			// band holding the injected poison.
			return []memdev.Range{{Base: 0, Size: rasShare + 64*rasGranule}}
		},
	}); err != nil {
		t.Fatal(err)
	}

	// For the storm-from-the-start cut, telemetry watches the victim's
	// port with sampling effectively off — the flight recorder then
	// holds only CRC-failed flits (error capture bypasses sampling) —
	// and the recorder is attached to the plane, so the Degraded
	// transition must snapshot the faulty wire history into its event.
	var victimRec *telemetry.FlightRecorder
	if cut == 0 {
		reg := telemetry.NewRegistry()
		victimRec = legs[rasVictim].port.EnableTelemetry(reg, cxl.TelemetryOptions{
			SampleN: 1 << 30, RecorderSlots: 4096,
		})
		if err := plane.AttachFlightRecorder("victim", victimRec.Dump); err != nil {
			t.Fatal(err)
		}
	}

	// Static seed over the whole window except the foreground band.
	base, total := s.Base(), rasWays*rasShare
	const fgOff, fgLen = uint64(256) << 10, 64 << 10
	seed := make([]byte, total)
	for i := range seed {
		seed[i] = byte(i*13 + 7)
	}
	if err := s.WriteBurst(base, seed); err != nil {
		t.Fatal(err)
	}

	// Foreground tenant: writes rounds of a distinct pattern into its
	// band, verifies read-own-write every round, and mirrors the last
	// committed round for the final readback check.
	var (
		mirrorMu sync.Mutex
		mirror   = make([]byte, fgLen)
		started  = make(chan struct{})
		stop     = make(chan struct{})
		fgDone   = make(chan struct{})
		once     sync.Once
	)
	copy(mirror, seed[fgOff:fgOff+fgLen])
	go func() {
		defer close(fgDone)
		buf := make([]byte, fgLen)
		out := make([]byte, fgLen)
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range buf {
				buf[i] = byte(round) ^ byte(i*31)
			}
			if err := s.WriteBurst(base+fgOff, buf); err != nil {
				t.Errorf("foreground write round %d: %v", round, err)
				return
			}
			mirrorMu.Lock()
			copy(mirror, buf)
			mirrorMu.Unlock()
			if err := s.ReadBurst(base+fgOff, out); err != nil {
				t.Errorf("foreground read round %d: %v", round, err)
				return
			}
			if !bytes.Equal(buf, out) {
				t.Errorf("foreground round %d: read-own-write mismatch", round)
				return
			}
			once.Do(func() { close(started) })
		}
	}()
	<-started

	// The storm: transient CRC corruption on the victim's link, inside
	// the LRSM retry budget, from phase `cut` onward.
	var stormMu sync.Mutex
	stormN := 0
	storm := func() {
		legs[rasVictim].port.SetFault(func(f cxl.Flit) cxl.Flit {
			stormMu.Lock()
			defer stormMu.Unlock()
			stormN++
			if stormN%5 == 3 {
				return f.Corrupt(13)
			}
			return f
		})
	}

	phases := []func() error{
		func() error { // patrol-scrub
			n, err := plane.ScrubPass("victim")
			if err == nil && n == 0 {
				return fmt.Errorf("patrol scrubbed nothing")
			}
			return err
		},
		func() error { // evaluate
			st, err := plane.Evaluate("victim")
			if err == nil && st != ras.Degraded {
				return fmt.Errorf("victim state %v after poisoned pass, want degraded", st)
			}
			return err
		},
		func() error { // begin-evacuation
			if err := plane.MarkEvacuating("victim", "draining degraded leg"); err != nil {
				return err
			}
			return s.BeginEvacuation(rasVictim)
		},
		func() error { // evacuate-front
			_, err := s.EvacuateStep(100)
			return err
		},
		func() error { return s.EvacuateDrain() }, // evacuate-tail
		func() error { // hot-remove
			rp, err := s.DetachEvacuated()
			if err != nil {
				return err
			}
			if rp != legs[rasVictim].port {
				return fmt.Errorf("detached %v, want the victim port", rp)
			}
			return plane.MarkOffline("victim", "drained and removed")
		},
		func() error { // hot-add
			if err := s.Reattach(repl.port); err != nil {
				return err
			}
			return plane.Register("replacement", repl.media, ras.DeviceOptions{})
		},
		func() error { return s.RestripeDrain() }, // restripe
	}
	for i, run := range phases {
		if i == cut {
			storm()
			if victimRec != nil {
				// Let the foreground writer trip at least one CRC fault
				// before the pipeline advances toward the Degraded
				// transition, so the dump assertion below is deterministic.
				for deadline := time.Now().Add(10 * time.Second); victimRec.Recorded() == 0; {
					if time.Now().After(deadline) {
						t.Fatal("storm produced no recorded error flit")
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
		if err := run(); err != nil {
			t.Fatalf("cut=%d phase %d: %v", cut, i, err)
		}
	}
	if cut == len(phases) {
		storm() // control run: storm only after the pipeline completes
	}

	close(stop)
	<-fgDone
	legs[rasVictim].port.SetFault(nil)

	// Full width restored, replacement in the victim's slot, spares
	// unwound.
	if s.Ways() != rasWays {
		t.Errorf("ways = %d after hot-add, want %d", s.Ways(), rasWays)
	}
	if got := s.Ports()[rasVictim]; got != repl.port {
		t.Errorf("leg %d port = %v, want the replacement", rasVictim, got)
	}
	for i, leg := range legs {
		if i == rasVictim {
			continue
		}
		if n := len(leg.dev.Decoders()); n != 1 {
			t.Errorf("healthy leg %d holds %d decoders after restripe, want 1", i, n)
		}
	}
	if n := len(repl.dev.Decoders()); n != 1 {
		t.Errorf("replacement holds %d decoders, want 1", n)
	}

	// Zero data loss: static seed outside the foreground band, mirror
	// inside it.
	out := make([]byte, total)
	if err := s.ReadBurst(base, out); err != nil {
		t.Fatalf("full readback: %v", err)
	}
	if !bytes.Equal(out[:fgOff], seed[:fgOff]) {
		t.Error("static prefix corrupted across the pipeline")
	}
	if !bytes.Equal(out[fgOff+fgLen:], seed[fgOff+fgLen:]) {
		t.Error("static suffix corrupted across the pipeline")
	}
	mirrorMu.Lock()
	if !bytes.Equal(out[fgOff:fgOff+fgLen], mirror) {
		t.Error("foreground band diverged from the writer's mirror")
	}
	mirrorMu.Unlock()

	// Flight-recorder dump: the Degraded transition captured the wire
	// history, and it contains the storm's CRC-failed flits.
	if victimRec != nil {
		var degraded ras.Event
		for _, ev := range plane.Events() {
			if ev.Device == "victim" && ev.Kind == ras.EventStateChange && ev.To == ras.Degraded {
				degraded = ev
			}
		}
		if degraded.Device == "" {
			t.Fatal("no Degraded transition recorded for the victim")
		}
		if len(degraded.Flits) == 0 {
			t.Fatal("Degraded transition captured no flight-recorder dump")
		}
		errFlits := 0
		for _, f := range degraded.Flits {
			if f.Err {
				errFlits++
			}
		}
		if errFlits == 0 {
			t.Error("flight dump at Degraded carries no CRC-failed flits from the storm")
		}
	}

	// Truthful plane: the victim's history survived, the replacement
	// starts clean.
	if h := plane.Health("victim"); h.State != ras.Offline || h.PoisonedLines != 3 {
		t.Errorf("victim health = %v/%d poisoned, want offline/3", h.State, h.PoisonedLines)
	}
	if st, err := plane.Evaluate("replacement"); err != nil || st != ras.Healthy {
		t.Errorf("replacement state = %v (%v), want healthy", st, err)
	}
}
