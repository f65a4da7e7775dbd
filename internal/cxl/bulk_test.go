package cxl

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs sets GOMAXPROCS for one test, so the bulk fan-out width
// does not depend on the machine the test runs on.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// issuedVCs returns the VCs that issued descriptors since before.
func issuedVCs(before, after PortStats) map[int]int64 {
	out := map[int]int64{}
	for i := range after.VCs {
		if d := after.VCs[i].Issued - before.VCs[i].Issued; d != 0 {
			out[i] = d
		}
	}
	return out
}

func pattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31) ^ byte(i>>12) ^ seed
	}
	return p
}

func TestBulkRoundTripUnalignedEnds(t *testing.T) {
	withProcs(t, 4)
	rp, _ := burstPort(t, 16<<20)
	const off = 4096 + 13          // unaligned head
	in := pattern(5<<20+101, 0x5a) // unaligned tail, four parts
	if err := rp.WriteAt(in, off); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(in))
	if err := rp.ReadAt(out, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("fanned-out WriteAt/ReadAt round trip mismatch")
	}
	// The bytes around the transfer are untouched.
	var edge [LineSize]byte
	if err := rp.ReadLine(4096, &edge); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(edge[:13], make([]byte, 13)) {
		t.Error("head line bytes before off were overwritten")
	}
}

func TestBulkPartsOnDistinctVCs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		hpa   uint64
		n     int
		want  int // parts
	}{
		{"8 parts", 8, 0, 8 << 20, 8},
		{"capped by GOMAXPROCS", 2, 3 * vcRunBytes, 4 << 20, 2},
		{"capped by size", 8, 5 * vcRunBytes, 3<<20 + 4096, 3},
		{"below threshold", 8, 0, 2*bulkPartMin - LineSize, 1},
		{"one proc", 1, 0, 8 << 20, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.procs)
			rp, dev := burstPort(t, 16<<20)
			in := pattern(tc.n, 1)
			before := rp.Stats()
			if err := rp.WriteAt(in, int64(tc.hpa)); err != nil {
				t.Fatal(err)
			}
			vcs := issuedVCs(before, rp.Stats())
			if len(vcs) != tc.want {
				t.Fatalf("write issued on VCs %v, want %d distinct VCs", vcs, tc.want)
			}
			for vc, n := range vcs {
				if n != 1 {
					t.Errorf("VC %d issued %d descriptors, want 1", vc, n)
				}
			}
			if _, ok := vcs[int(tc.hpa/vcRunBytes)%NumVCs]; !ok {
				t.Errorf("part 0 not on the VC of its start address: %v", vcs)
			}
			// Every byte moved once: no part overlaps or gap.
			if got, want := dev.Stats().BurstLines.Load(), int64(tc.n/LineSize); got != want {
				t.Errorf("device burst lines = %d, want %d", got, want)
			}
			before = rp.Stats()
			out := make([]byte, tc.n)
			if err := rp.ReadAt(out, int64(tc.hpa)); err != nil {
				t.Fatal(err)
			}
			if got := issuedVCs(before, rp.Stats()); len(got) != tc.want {
				t.Errorf("read issued on VCs %v, want %d distinct VCs", got, tc.want)
			}
			if !bytes.Equal(in, out) {
				t.Error("round trip mismatch")
			}
		})
	}
}

func TestBulkErrorIsLowestAddressPart(t *testing.T) {
	withProcs(t, 4)
	rp, dev := burstPort(t, 16<<20)
	const n = 4 << 20 // four parts of about 1 MiB
	lastLine := uint64(n - LineSize)
	poison := map[uint64]bool{lastLine: true}
	dev.SetPoisonChecker(func(dpa uint64) bool { return poison[dpa] })

	// The error a serial-sized call over the poisoned line reports.
	serial := rp.WriteAt(make([]byte, 8*LineSize), int64(n-8*LineSize))
	if serial == nil {
		t.Fatal("serial write over a poisoned line succeeded")
	}
	var want *PortError
	if !errors.As(serial, &want) {
		t.Fatalf("serial error %T is not a PortError", serial)
	}

	for _, write := range []bool{true, false} {
		buf := pattern(n, 2)
		var err error
		if write {
			err = rp.WriteAt(buf, 0)
		} else {
			err = rp.ReadAt(buf, 0)
		}
		var got *PortError
		if !errors.As(err, &got) || !errors.Is(err, want.Err) {
			t.Fatalf("write=%v: fanned-out error %v, want errors.Is %v", write, err, want.Err)
		}
		if got.Addr < n-bulkPartMin-vcPeriod {
			t.Errorf("write=%v: error at %#x, not in the last part", write, got.Addr)
		}
	}

	// With a second poisoned line in part 1, part 1's error wins.
	poison[bulkPartMin+vcPeriod] = true
	dev.SetPoisonChecker(func(dpa uint64) bool { return poison[dpa] })
	var got *PortError
	if err := rp.WriteAt(pattern(n, 3), 0); !errors.As(err, &got) {
		t.Fatalf("error %v is not a PortError", err)
	}
	if got.Addr > bulkPartMin+vcPeriod || got.Addr < bulkPartMin-vcPeriod {
		t.Errorf("error at %#x, want the part-1 chunk holding %#x", got.Addr, bulkPartMin+vcPeriod)
	}
}

func TestBulkCorruptFlitRetriedOnItsVC(t *testing.T) {
	withProcs(t, 4)
	rp, _ := burstPort(t, 16<<20)
	const target = 2 // the VC part 2 starts on (part 0 starts on VC 0)
	var matches, fires atomic.Int64
	rp.SetFault(func(f Flit) Flit {
		if f.raw[0] != flitKindData {
			return f
		}
		var line [LineSize]byte
		tag, _, err := DecodeDataInto(&line, &f)
		if err != nil || int(tag>>vcTagBits) != target {
			return f
		}
		// Every 97th data beat on the target VC, four times; the
		// retransmission is the next match and passes.
		if m := matches.Add(1); m%97 == 0 && fires.Load() < 4 {
			fires.Add(1)
			return f.Corrupt(100)
		}
		return f
	})
	in := pattern(4<<20, 4)
	before := rp.Stats()
	if err := rp.WriteAt(in, 0); err != nil {
		t.Fatal(err)
	}
	rp.SetFault(nil)
	after := rp.Stats()
	if fires.Load() != 4 {
		t.Fatalf("fault fired %d times, want 4", fires.Load())
	}
	for vc := range after.VCs {
		got := after.VCs[vc].Retries - before.VCs[vc].Retries
		want := int64(0)
		if vc == target {
			want = fires.Load()
		}
		if got != want {
			t.Errorf("VC %d retries = %d, want %d", vc, got, want)
		}
	}
	out := make([]byte, len(in))
	if err := rp.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Error("data corrupted despite retry")
	}
}
