package cxl

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// evacSet builds a ways-wide set with Share headroom left on every
// member for spare windows.
func evacSet(t *testing.T, ways int, granule, share uint64) (*InterleaveSet, []*Type3Device) {
	t.Helper()
	ports := make([]*RootPort, ways)
	devs := make([]*Type3Device, ways)
	for i := range ports {
		dev, err := NewType3(fmt.Sprintf("evac-dev%d", i), 0x8086, 0x0D93,
			testMedia(t, fmt.Sprintf("evac-ddr%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
		ports[i] = trainedPort(t, dev)
	}
	s, err := NewInterleaveSetOpts("evac0",
		InterleaveOptions{Granule: granule, Share: share}, ports...)
	if err != nil {
		t.Fatal(err)
	}
	return s, devs
}

// replacementFor builds a fresh trained device/port pair suitable for
// Reattach.
func replacementFor(t *testing.T, name string) (*RootPort, *Type3Device) {
	t.Helper()
	dev, err := NewType3(name, 0x8086, 0x0D93, testMedia(t, name+"-ddr"))
	if err != nil {
		t.Fatal(err)
	}
	return trainedPort(t, dev), dev
}

// TestEvacuationLifecycleUnderTraffic drives the full hot-swap arc —
// evacuate → detach → reattach → restripe — while a foreground writer
// keeps mutating its window with read-own-write checks, then verifies
// every byte of the window.
func TestEvacuationLifecycleUnderTraffic(t *testing.T) {
	const ways = 3
	const granule = 4096
	const share = 1 << 20
	s, devs := evacSet(t, ways, granule, share)

	want := make([]byte, s.Size())
	for i := range want {
		want[i] = byte(i*13 + 7)
	}
	if err := s.WriteBurst(s.Base(), want); err != nil {
		t.Fatal(err)
	}

	// Foreground window: spans many granules of every leg.
	const fgOff = 256 * 1024
	const fgLen = 128 * 1024
	var stopFg atomic.Bool
	started := make(chan struct{})
	var startedOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, fgLen)
		got := make([]byte, fgLen)
		for round := byte(1); !stopFg.Load(); round++ {
			for i := range buf {
				buf[i] = round ^ byte(i)
			}
			if err := s.WriteAt(buf, int64(s.Base()+fgOff)); err != nil {
				t.Errorf("foreground write: %v", err)
				return
			}
			if err := s.ReadAt(got, int64(s.Base()+fgOff)); err != nil {
				t.Errorf("foreground read: %v", err)
				return
			}
			if !bytes.Equal(got, buf) {
				t.Errorf("foreground round %d read back torn", round)
				return
			}
			startedOnce.Do(func() { close(started) })
		}
	}()
	<-started

	const victim = 1
	if err := s.BeginEvacuation(victim); err != nil {
		t.Fatalf("BeginEvacuation: %v", err)
	}
	if leg, active := s.Evacuating(); !active || leg != victim {
		t.Fatalf("Evacuating() = %d,%v", leg, active)
	}
	if err := s.EvacuateDrain(); err != nil {
		t.Fatalf("EvacuateDrain: %v", err)
	}
	old, err := s.DetachEvacuated()
	if err != nil {
		t.Fatalf("DetachEvacuated: %v", err)
	}
	old.Detach()

	// Degraded: the set keeps serving the victim leg's granules from
	// the spare windows with the old device gone.
	probe := make([]byte, 64*1024)
	if err := s.ReadBurst(s.Base(), probe); err != nil {
		t.Fatalf("degraded read: %v", err)
	}

	rp, _ := replacementFor(t, "evac-spare-dev")
	if err := s.Reattach(rp); err != nil {
		t.Fatalf("Reattach: %v", err)
	}
	if err := s.RestripeDrain(); err != nil {
		t.Fatalf("RestripeDrain: %v", err)
	}
	if _, active := s.Evacuating(); active {
		t.Fatal("evacuation still active after restripe")
	}
	stopFg.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Full width restored with the replacement in the victim slot.
	if s.Ways() != ways {
		t.Fatalf("Ways() = %d after hot-add, want %d", s.Ways(), ways)
	}
	if got := s.Ports()[victim]; got != rp {
		t.Fatalf("leg %d is %s, want replacement", victim, got.Name())
	}
	// Spare windows released: every surviving member is back to one
	// decoder (its interleaved target).
	for i, d := range devs {
		if i == victim {
			continue
		}
		if n := len(d.Decoders()); n != 1 {
			t.Errorf("device %d holds %d decoders after restripe, want 1", i, n)
		}
	}

	// Byte-exact readback: static regions unchanged, foreground window a
	// self-consistent round pattern.
	got := make([]byte, len(want))
	if err := s.ReadBurst(s.Base(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:fgOff], want[:fgOff]) {
		t.Fatal("static prefix corrupted by evacuation cycle")
	}
	if !bytes.Equal(got[fgOff+fgLen:], want[fgOff+fgLen:]) {
		t.Fatal("static suffix corrupted by evacuation cycle")
	}
	fg := got[fgOff : fgOff+fgLen]
	round := fg[0]
	for i, b := range fg {
		if b != round^byte(i) {
			t.Fatalf("foreground window torn at %d: %#x, want round %#x pattern", i, b, round)
		}
	}
}

// TestEvacuationDegradedWrites checks that data written while the set
// runs at N-1 width — including into the evacuated leg's granules —
// survives the restripe back to full width.
func TestEvacuationDegradedWrites(t *testing.T) {
	const granule = 256 // narrow granules exercise the gather path on healthy legs
	s, _ := evacSet(t, 2, granule, 512*1024)

	if err := s.BeginEvacuation(0); err != nil {
		t.Fatal(err)
	}
	if err := s.EvacuateDrain(); err != nil {
		t.Fatal(err)
	}
	old, err := s.DetachEvacuated()
	if err != nil {
		t.Fatal(err)
	}
	old.Detach()

	// Every granule of the window is writable degraded, leg-0 granules
	// included (they land on the healthy leg's spare window).
	in := make([]byte, 64*1024)
	for i := range in {
		in[i] = byte(i*3 + 11)
	}
	if err := s.WriteBurst(s.Base(), in); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	out := make([]byte, len(in))
	if err := s.ReadBurst(s.Base(), out); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("degraded round trip mismatch")
	}
	// Unaligned spans too: head/tail fragments route per-granule.
	frag := []byte{1, 2, 3, 4, 5}
	if err := s.WriteAt(frag, int64(s.Base()+granule*2+17)); err != nil {
		t.Fatalf("degraded unaligned write: %v", err)
	}

	rp, _ := replacementFor(t, "evac2-spare")
	if err := s.Reattach(rp); err != nil {
		t.Fatal(err)
	}
	if err := s.RestripeDrain(); err != nil {
		t.Fatal(err)
	}

	if err := s.ReadBurst(s.Base(), out); err != nil {
		t.Fatal(err)
	}
	copy(in[granule*2+17:], frag)
	if !bytes.Equal(in, out) {
		t.Fatal("degraded-era writes lost in restripe")
	}
}

// TestBeginEvacuationNeedsHeadroom: a set striped over the full member
// HDM has nowhere to put spare windows; BeginEvacuation must fail
// cleanly and leave no half-programmed decoders behind.
func TestBeginEvacuationNeedsHeadroom(t *testing.T) {
	s, devs := testInterleaveSet(t, 2, 4096) // Share unset → full HDM
	if err := s.BeginEvacuation(0); err == nil {
		t.Fatal("BeginEvacuation succeeded with zero headroom")
	}
	if _, active := s.Evacuating(); active {
		t.Fatal("failed BeginEvacuation left evacuation active")
	}
	for i, d := range devs {
		if n := len(d.Decoders()); n != 1 {
			t.Errorf("device %d holds %d decoders after failed begin, want 1", i, n)
		}
	}
	// The set still works.
	buf := []byte{9, 8, 7}
	if err := s.WriteAt(buf, int64(s.Base())); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuationSmallAccesses exercises every sub-burst access shape
// against a half-migrated leg: single lines and unaligned fragments on
// granules still home on the victim AND on granules already moved to a
// spare, plus ReadAt/WriteAt spans whose head/tail fragments cross the
// evacuating leg. All of it must land wherever the granule currently
// lives and read back after the restripe.
func TestEvacuationSmallAccesses(t *testing.T) {
	const (
		ways    = 2
		granule = uint64(256)
		share   = uint64(512) << 10
	)
	s, _ := evacSet(t, ways, granule, share)
	if s.Name() != "evac0" || s.Share() != share || s.Granule() != granule {
		t.Fatalf("set identity %s/%d/%d", s.Name(), s.Share(), s.Granule())
	}
	if s.String() == "" {
		t.Error("empty Stringer")
	}

	seed := make([]byte, ways*share)
	for i := range seed {
		seed[i] = byte(i*11 + 5)
	}
	if err := s.WriteBurst(s.Base(), seed); err != nil {
		t.Fatal(err)
	}

	const victim = 1
	if err := s.BeginEvacuation(victim); err != nil {
		t.Fatal(err)
	}
	// Move only the front half so both granule states are live.
	if _, err := s.EvacuateStep(int(share / granule / 2)); err != nil {
		t.Fatal(err)
	}

	// Victim-owned line on a granule already moved to a spare (k=0)
	// and on one still home on the leg (the last victim granule).
	movedHPA := s.Base() + victim*granule
	homeHPA := s.Base() + (share/granule-1)*granule*ways + victim*granule
	for _, hpa := range []uint64{movedHPA, homeHPA} {
		var line [LineSize]byte
		for i := range line {
			line[i] = byte(hpa>>8) ^ byte(i)
		}
		if err := s.WriteLine(hpa, &line); err != nil {
			t.Fatalf("WriteLine %#x mid-evacuation: %v", hpa, err)
		}
		var got [LineSize]byte
		if err := s.ReadLine(hpa, &got); err != nil {
			t.Fatalf("ReadLine %#x mid-evacuation: %v", hpa, err)
		}
		if got != line {
			t.Fatalf("line %#x did not read back mid-evacuation", hpa)
		}
		copy(seed[hpa-s.Base():], line[:])
	}

	// Unaligned span with head and tail fragments crossing both legs.
	frag := make([]byte, 3*granule)
	for i := range frag {
		frag[i] = byte(i*29 + 1)
	}
	fragOff := int64(s.Base() + granule/2 + granule*ways*4 + 17)
	if err := s.WriteAt(frag, fragOff); err != nil {
		t.Fatalf("WriteAt mid-evacuation: %v", err)
	}
	back := make([]byte, len(frag))
	if err := s.ReadAt(back, fragOff); err != nil {
		t.Fatalf("ReadAt mid-evacuation: %v", err)
	}
	if !bytes.Equal(frag, back) {
		t.Fatal("unaligned span did not read back mid-evacuation")
	}
	copy(seed[uint64(fragOff)-s.Base():], frag)

	// Finish the swap and verify nothing written mid-flight was lost.
	if err := s.EvacuateDrain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetachEvacuated(); err != nil {
		t.Fatal(err)
	}
	rp, _ := replacementFor(t, "evac-small-repl")
	if err := s.Reattach(rp); err != nil {
		t.Fatal(err)
	}
	if err := s.RestripeDrain(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(seed))
	if err := s.ReadBurst(s.Base(), out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seed, out) {
		t.Fatal("window diverged after small-access evacuation cycle")
	}
}

// TestEvacuationControlPlaneGuards pins the orderings the control
// plane refuses: detaching before the drain finishes, reattaching
// before detach, double-starting, bad leg indexes, and the idle
// no-ops.
func TestEvacuationControlPlaneGuards(t *testing.T) {
	s, _ := evacSet(t, 2, 256, 64<<10)

	if done, err := s.RestripeStep(8); err != nil || !done {
		t.Errorf("idle RestripeStep = (%v, %v), want (true, nil)", done, err)
	}
	if _, err := s.DetachEvacuated(); err == nil {
		t.Error("DetachEvacuated with no evacuation succeeded")
	}
	rp, _ := replacementFor(t, "evac-guard-repl")
	if err := s.Reattach(rp); err == nil {
		t.Error("Reattach with no detached leg succeeded")
	}
	if err := s.BeginEvacuation(-1); err == nil {
		t.Error("BeginEvacuation(-1) succeeded")
	}
	if err := s.BeginEvacuation(2); err == nil {
		t.Error("BeginEvacuation past the last leg succeeded")
	}

	if err := s.BeginEvacuation(0); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginEvacuation(1); err == nil {
		t.Error("second BeginEvacuation while one is active succeeded")
	}
	if _, err := s.DetachEvacuated(); err == nil {
		t.Error("DetachEvacuated before the drain completed succeeded")
	}
	if err := s.EvacuateDrain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetachEvacuated(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetachEvacuated(); err == nil {
		t.Error("double DetachEvacuated succeeded")
	}
	if err := s.Reattach(rp); err != nil {
		t.Fatal(err)
	}
	if err := s.Reattach(rp); err == nil {
		t.Error("double Reattach succeeded")
	}
	if err := s.RestripeDrain(); err != nil {
		t.Fatal(err)
	}
	if leg, active := s.Evacuating(); active {
		t.Errorf("still evacuating leg %d after restripe", leg)
	}
}
