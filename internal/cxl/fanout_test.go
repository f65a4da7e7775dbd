package cxl

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFanOutOverflowAndLowestError runs two full-width calls at once:
// they hand over twice as many parts as there are helpers, so at least
// one call's parts overflow onto transient goroutines. Every part of
// both calls must be running at the same moment (a barrier only all of
// them together can pass), and each call must return its lowest-index
// part's error.
func TestFanOutOverflowAndLowestError(t *testing.T) {
	const calls = 2
	partErr := make([]error, fanMaxParts)
	for i := range partErr {
		if i%3 == 2 {
			partErr[i] = fmt.Errorf("part %d failed", i)
		}
	}
	var arrived sync.WaitGroup
	arrived.Add(calls * fanMaxParts)
	run := func(pt *fanPart) error {
		arrived.Done()
		arrived.Wait()
		return partErr[pt.leg]
	}
	got := make([]error, calls)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fc := newFanCall()
			for i := range fc.parts {
				fc.parts[i] = fanPart{run: run, leg: i}
			}
			got[c] = fc.run(fanMaxParts)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("parts never all ran at once: a hand-off waited for a busy helper")
	}
	for c, err := range got {
		if err != partErr[2] {
			t.Errorf("call %d returned %v, want the lowest failing part's %v", c, err, partErr[2])
		}
	}
}

// TestFanOutConcurrentStripesAndBulk drives the shared engine from
// several goroutines at once: 8-way striped bursts and 4 MiB port
// transfers whose interiors fan out across VCs. Far more parts are in
// flight than there are helpers, so hand-offs overflow; every byte must
// still round-trip and no striped burst may fall back to the line path.
func TestFanOutConcurrentStripesAndBulk(t *testing.T) {
	withProcs(t, 4)
	s, devs := testInterleaveSet(t, 8, 256)
	rp, _ := burstPort(t, 16<<20)
	const (
		workers     = 3
		rounds      = 3
		stripeBytes = 256 << 10
		bulkBytes   = 4 << 20
	)
	errs := make(chan error, 2*workers)
	var wg sync.WaitGroup
	roundTrip := func(name string, write func([]byte) error, read func([]byte) error, n int, seed byte) {
		defer wg.Done()
		out := make([]byte, n)
		for r := 0; r < rounds; r++ {
			in := pattern(n, seed+byte(r))
			if err := write(in); err != nil {
				errs <- fmt.Errorf("%s round %d write: %w", name, r, err)
				return
			}
			if err := read(out); err != nil {
				errs <- fmt.Errorf("%s round %d read: %w", name, r, err)
				return
			}
			if !bytes.Equal(in, out) {
				errs <- fmt.Errorf("%s round %d: readback mismatch", name, r)
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		hpa := s.Base() + uint64(w)*stripeBytes
		off := int64(w)*(bulkBytes+4096) + 13 // unaligned head and tail
		wg.Add(2)
		go roundTrip(fmt.Sprintf("stripe %d", w),
			func(p []byte) error { return s.WriteBurst(hpa, p) },
			func(p []byte) error { return s.ReadBurst(hpa, p) },
			stripeBytes, byte(w))
		go roundTrip(fmt.Sprintf("bulk %d", w),
			func(p []byte) error { return rp.WriteAt(p, off) },
			func(p []byte) error { return rp.ReadAt(p, off) },
			bulkBytes, byte(0x80+w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertNoLineFallbacks(t, devs)
}
