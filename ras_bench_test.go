package cxlpmem

import (
	"sort"
	"testing"
	"time"
)

// BenchmarkEvacuation measures the RAS recovery data path end to end:
// one iteration drains the victim leg onto spare headroom, hot-removes
// the drained port, hot-adds it back and restripes to full width —
// while a foreground tenant keeps issuing 4 KiB reads against the
// stripe. MB/s is the drain rate (SetBytes counts the evacuated
// bytes); fg-p99-ns reports the foreground tail latency the migration
// imposed, the ISSUE's bounded-p99 acceptance in benchstat form.
func BenchmarkEvacuation(b *testing.B) {
	s, _ := rasMatrixSet(b)

	seed := make([]byte, rasWays*rasShare)
	for i := range seed {
		seed[i] = byte(i*13 + 7)
	}
	if err := s.WriteBurst(s.Base(), seed); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	fgDone := make(chan struct{})
	lat := make([]time.Duration, 0, 1<<16)
	go func() {
		defer close(fgDone)
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			if err := s.ReadBurst(s.Base(), buf); err != nil {
				b.Errorf("foreground read: %v", err)
				return
			}
			if len(lat) < cap(lat) {
				lat = append(lat, time.Since(t0))
			}
		}
	}()

	b.SetBytes(int64(rasShare))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.BeginEvacuation(rasVictim); err != nil {
			b.Fatal(err)
		}
		if err := s.EvacuateDrain(); err != nil {
			b.Fatal(err)
		}
		rp, err := s.DetachEvacuated()
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Reattach(rp); err != nil {
			b.Fatal(err)
		}
		if err := s.RestripeDrain(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-fgDone

	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[len(lat)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds()), "fg-p99-ns")
	}
}
