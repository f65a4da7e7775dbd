package cxl

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

// ringPort builds a trained port over a 16 MiB Type-3 device with one
// window at base 0 — the VC issue tests' fixture.
func ringPort(t *testing.T) *RootPort {
	t.Helper()
	rp, _ := burstPort(t, 1<<24)
	return rp
}

// vcBlock returns the base HPA of the n-th vcStride-line block, i.e.
// the n-th consecutive address window mapped to VC n&(NumVCs-1).
func vcBlock(n int) uint64 { return uint64(n) * uint64(vcStride*LineSize) }

// reqFlitTag extracts the wire tag of a payload-carrying request flit.
func reqFlitTag(f *Flit) (uint16, bool) {
	if f.raw[0] != flitKindReq {
		return 0, false
	}
	return uint16(binary.LittleEndian.Uint64(f.raw[0:8]) >> 16), true
}

// reqFlitAddr extracts the HPA of a payload-carrying request flit.
func reqFlitAddr(f *Flit) (uint64, bool) {
	if f.raw[0] != flitKindReq {
		return 0, false
	}
	return binary.LittleEndian.Uint64(f.raw[8:16]), true
}

// TestRingTagWraparound drives more than two full laps of the 2^13
// sequence through VC 0 and reads every write's wire tag off the
// trace: the VC bits stay 0, and consecutive transactions carry
// consecutive sequence numbers that wrap mod 2^vcTagBits.
func TestRingTagWraparound(t *testing.T) {
	rp := ringPort(t)
	const total = 2<<vcTagBits + 100
	tags := make([]uint16, 0, total)
	rp.SetFlitTrace(func(f Flit) {
		if tag, ok := reqFlitTag(&f); ok {
			tags = append(tags, tag)
		}
	})
	var line [LineSize]byte
	for i := 0; i < total; i++ {
		// Every address below stays on VC 0.
		if err := rp.WriteLine(vcBlock(0)+uint64((i%vcStride)*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	rp.SetFlitTrace(nil)
	if len(tags) != total {
		t.Fatalf("traced %d request flits, want %d", len(tags), total)
	}
	wraps := 0
	for i, tag := range tags {
		if tag>>vcTagBits != 0 {
			t.Fatalf("tag %#x not on VC 0", tag)
		}
		if i == 0 {
			continue
		}
		if want := (tags[i-1] + 1) & vcSeqMask; tag != want {
			t.Fatalf("transaction %d: tag %#x, want %#x", i, tag, want)
		}
		if tag == 0 {
			wraps++
		}
	}
	if wraps < 2 {
		t.Fatalf("sequence wrapped %d times, want ≥2", wraps)
	}
}

// TestRingFaultRetriesOnlyFailedDescriptor injects a one-shot CRC fault
// into the request flit of the k-th of a run of writes on one VC: only
// that flit is retransmitted (one link retry total) and every write
// lands.
func TestRingFaultRetriesOnlyFailedDescriptor(t *testing.T) {
	rp := ringPort(t)
	const batch = 8
	var lines [batch][LineSize]byte
	for j := range lines {
		for b := range lines[j] {
			lines[j][b] = byte(17*j + b)
		}
	}
	k := vcBlock(0) + 3*uint64(LineSize)
	faults := 0
	rp.SetFault(func(f Flit) Flit {
		if addr, ok := reqFlitAddr(&f); ok && addr == k && faults == 0 {
			faults++
			f.raw[flitHeaderSize] ^= 0xFF // corrupt payload: CRC check fails
		}
		return f
	})
	for j := 0; j < batch; j++ {
		if err := rp.WriteLine(vcBlock(0)+uint64(j*LineSize), &lines[j]); err != nil {
			t.Fatalf("write %d failed despite per-flit retry: %v", j, err)
		}
	}
	rp.SetFault(nil)
	if got := rp.Stats().Retries; got != 1 {
		t.Fatalf("retries = %d, want exactly 1 (only write k's flit resent)", got)
	}
	for j := 0; j < batch; j++ {
		var got [LineSize]byte
		if err := rp.ReadLine(vcBlock(0)+uint64(j*LineSize), &got); err != nil {
			t.Fatal(err)
		}
		if got != lines[j] {
			t.Fatalf("line %d payload corrupted by neighbour's fault", j)
		}
	}
}

// TestRingPersistentFaultFailsOnlyDescriptorK keeps corrupting write
// k's request flit past the retry budget while its neighbours write
// concurrently on the same VC: k fails with ErrUncorrectable, every
// other write succeeds.
func TestRingPersistentFaultFailsOnlyDescriptorK(t *testing.T) {
	rp := ringPort(t)
	const batch = 6
	k := vcBlock(0) + 2*uint64(LineSize)
	rp.SetFault(func(f Flit) Flit {
		if addr, ok := reqFlitAddr(&f); ok && addr == k {
			f.raw[flitHeaderSize] ^= 0xFF
		}
		return f
	})
	errs := make([]error, batch)
	var wg sync.WaitGroup
	for j := 0; j < batch; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var line [LineSize]byte
			errs[j] = rp.WriteLine(vcBlock(0)+uint64(j*LineSize), &line)
		}(j)
	}
	wg.Wait()
	rp.SetFault(nil)
	for j, err := range errs {
		if vcBlock(0)+uint64(j*LineSize) == k {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("write k error = %v, want ErrUncorrectable", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("write %d failed alongside k: %v", j, err)
		}
	}
}

// TestRingConcurrentSubmittersOneVC hammers a single VC from several
// goroutines, each writing and reading back its own line, under -race.
// Every transaction must complete, the data must land, and the VC's
// issued count must match the traffic.
func TestRingConcurrentSubmittersOneVC(t *testing.T) {
	rp := ringPort(t)
	const (
		workers = 4
		iters   = 200
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			addr := vcBlock(0) + uint64(w*LineSize) // distinct line, same VC
			for i := 0; i < iters; i++ {
				var line, got [LineSize]byte
				line[0], line[1] = byte(w+1), byte(i)
				if err := rp.WriteLine(addr, &line); err != nil {
					errCh <- err
					return
				}
				if err := rp.ReadLine(addr, &got); err != nil {
					errCh <- err
					return
				}
				if got != line {
					errCh <- errors.New("read back a line another worker wrote")
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if got, want := rp.Stats().VCs[0].Issued, int64(workers*iters*2); got != want {
		t.Fatalf("VC 0 issued %d, want %d", got, want)
	}
}

// TestRingZeroAllocSteadyState guards the 0 allocs/op claim of the line
// path: a write+read pair, and a partial-line write.
func TestRingZeroAllocSteadyState(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	// Warm the pools outside the measured window.
	if err := rp.WriteLine(vcBlock(0), &line); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := rp.WriteLine(vcBlock(0), &line); err != nil {
			t.Fatal(err)
		}
		if err := rp.ReadLine(vcBlock(0), &line); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("sync line path allocates %.1f per pair, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := rp.WriteAt(line[:8], int64(vcBlock(0))+3); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("partial-line write allocates %.1f per call, want 0", avg)
	}
}

// TestPortStatsSnapshot checks the PortStats accessor against known
// traffic.
func TestPortStatsSnapshot(t *testing.T) {
	rp := ringPort(t)
	var line [LineSize]byte
	const ops = 24
	for j := 0; j < ops; j++ {
		if err := rp.WriteLine(vcBlock(j%2)+uint64(j/2*LineSize), &line); err != nil {
			t.Fatal(err)
		}
	}
	st := rp.Stats()
	if st.Issued != ops {
		t.Errorf("Issued = %d, want %d", st.Issued, ops)
	}
	if st.VCs[0].Issued != ops/2 || st.VCs[1].Issued != ops/2 {
		t.Errorf("VC 0/1 issued %d/%d, want %d each", st.VCs[0].Issued, st.VCs[1].Issued, ops/2)
	}
	if st.Doorbells != st.Issued {
		t.Errorf("Doorbells = %d, want Issued (%d)", st.Doorbells, st.Issued)
	}
	if st.CQOverflows != 0 {
		t.Errorf("CQOverflows = %d, want 0", st.CQOverflows)
	}
	var vcIssued, vcRetries int64
	for _, vc := range st.VCs {
		vcIssued += vc.Issued
		vcRetries += vc.Retries
	}
	if vcIssued != st.Issued {
		t.Errorf("per-VC issued sums to %d, total says %d", vcIssued, st.Issued)
	}
	if vcRetries != st.Retries {
		t.Errorf("per-VC retries sum to %d, total says %d", vcRetries, st.Retries)
	}
}
