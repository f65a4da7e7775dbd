package cxl

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// withWatchdog fails the test if fn does not return within d — the
// chaos-hardening tests' hang detector.
func withWatchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("watchdog expired: scenario wedged")
	}
}

// TestDetachDuringSyncTraffic is the surprise-removal test: Detach
// lands while several goroutines drive line traffic. No transaction
// may hang, every one returns nil or ErrLinkDown, and every one issued
// after Detach returns ErrLinkDown.
func TestDetachDuringSyncTraffic(t *testing.T) {
	rp := ringPort(t)
	const (
		workers = 4
		after   = 16 // post-detach ops per worker
	)
	var detached atomic.Bool
	started := make(chan struct{}, workers)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			addr := vcBlock(w) + uint64(w*LineSize)
			var line [LineSize]byte
			post := 0
			for i := 0; post < after; i++ {
				if i == 8 {
					started <- struct{}{}
				}
				wasDown := detached.Load()
				var err error
				if i%2 == 0 {
					err = rp.WriteLine(addr, &line)
				} else {
					err = rp.ReadLine(addr, &line)
				}
				if err != nil && !errors.Is(err, ErrLinkDown) {
					errCh <- err
					return
				}
				if wasDown {
					if !errors.Is(err, ErrLinkDown) {
						errCh <- fmt.Errorf("worker %d: op issued after Detach returned %v, want ErrLinkDown", w, err)
						return
					}
					post++
				}
			}
			errCh <- nil
		}(w)
	}
	withWatchdog(t, 10*time.Second, func() {
		for w := 0; w < workers; w++ {
			<-started
		}
		rp.Detach()
		detached.Store(true)
		for w := 0; w < workers; w++ {
			if err := <-errCh; err != nil {
				t.Error(err)
			}
		}
	})
}

// TestFailedRetrainDrainsDescriptors: CompleteRetrain(false) is a
// surprise removal from the Retraining state — a transaction parked on
// the retrain unblocks with ErrLinkDown.
func TestFailedRetrainDrainsDescriptors(t *testing.T) {
	rp := ringPort(t)
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		var l [LineSize]byte
		parked <- rp.WriteLine(uint64(LineSize), &l)
	}()
	time.Sleep(2 * time.Millisecond) // let the sync op park
	rp.CompleteRetrain(false)
	withWatchdog(t, 10*time.Second, func() {
		if err := <-parked; !errors.Is(err, ErrLinkDown) {
			t.Errorf("parked transaction: %v, want ErrLinkDown", err)
		}
	})
	if rp.State() != LinkDown {
		t.Errorf("state %v after failed retrain, want down", rp.State())
	}
}

// TestRetrainParkAndReplay: transactions arriving while the link
// retrains park and replay when it comes back up — no error surfaces
// and the data round-trips.
func TestRetrainParkAndReplay(t *testing.T) {
	rp := ringPort(t)
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	if got := rp.State(); got != Retraining {
		t.Fatalf("state %v after StartRetrain, want retraining", got)
	}
	time.AfterFunc(5*time.Millisecond, func() { rp.CompleteRetrain(true) })
	var line [LineSize]byte
	for i := range line {
		line[i] = byte(i ^ 0x5A)
	}
	start := time.Now()
	withWatchdog(t, 10*time.Second, func() {
		if err := rp.WriteLine(0, &line); err != nil {
			t.Errorf("parked write: %v", err)
		}
	})
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Errorf("write completed in %v: did not park across the retrain", elapsed)
	}
	var out [LineSize]byte
	if err := rp.ReadLine(0, &out); err != nil {
		t.Fatal(err)
	}
	if out != line {
		t.Error("replayed write did not round-trip")
	}
	if got := rp.Stats().Retrains; got != 1 {
		t.Errorf("retrains = %d, want 1", got)
	}
}

// TestRetrainTimeout: a retrain that never completes bounds the parked
// transaction at RetrainTimeout with ErrTimeout, counts it, and the
// port recovers fully once the link finally trains.
func TestRetrainTimeout(t *testing.T) {
	rp := ringPort(t)
	rp.SetOptions(PortOptions{RetrainTimeout: 10 * time.Millisecond})
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	withWatchdog(t, 10*time.Second, func() {
		if err := rp.WriteLine(0, &line); !errors.Is(err, ErrTimeout) {
			t.Errorf("parked write past deadline: %v, want ErrTimeout", err)
		}
	})
	if got := rp.Stats().Timeouts; got == 0 {
		t.Error("expired retrain park not counted in Timeouts")
	}
	rp.CompleteRetrain(true)
	if err := rp.WriteLine(0, &line); err != nil {
		t.Errorf("write after recovered retrain: %v", err)
	}
}

// TestRetryBackoffBudget: PortOptions govern the retransmission budget
// and pace retries with exponential backoff — a permanently corrupted
// link burns the enlarged budget, takes at least the deterministic
// minimum backoff time, and reports ErrUncorrectable.
func TestRetryBackoffBudget(t *testing.T) {
	rp := ringPort(t)
	rp.SetOptions(PortOptions{MaxLinkRetries: 5, RetryBackoff: time.Millisecond})
	if got := rp.Options().MaxLinkRetries; got != 5 {
		t.Fatalf("MaxLinkRetries = %d after SetOptions, want 5", got)
	}
	rp.SetFault(func(f Flit) Flit { return f.Corrupt(9) })
	var line [LineSize]byte
	start := time.Now()
	err := rp.WriteLine(0, &line)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("hard-corrupted write: %v, want ErrUncorrectable", err)
	}
	if got := rp.Stats().Retries; got != 5 {
		t.Errorf("retries = %d, want the budget 5", got)
	}
	// Five attempts back off 1+2+4+8+8 ms (capped at 8×), jittered down
	// at most 25%: ≥ ~17ms in the worst case.
	if elapsed < 15*time.Millisecond {
		t.Errorf("budget burned in %v: backoff not applied", elapsed)
	}
	rp.SetFault(nil)
	if err := rp.WriteLine(0, &line); err != nil {
		t.Errorf("clean write after budget exhaustion: %v", err)
	}
}

// TestPortTimeoutTelemetry: the new Timeouts/Retrains counters surface
// through the registry as cxl_port_timeouts_total / cxl_port_retrains_total.
func TestPortTimeoutTelemetry(t *testing.T) {
	rp, reg, _ := telemetryPort(t)
	rp.SetOptions(PortOptions{RetrainTimeout: 5 * time.Millisecond})
	if err := rp.StartRetrain(); err != nil {
		t.Fatal(err)
	}
	var line [LineSize]byte
	if err := rp.WriteLine(0, &line); !errors.Is(err, ErrTimeout) {
		t.Fatalf("parked write: %v, want ErrTimeout", err)
	}
	rp.CompleteRetrain(true)
	want := map[string]float64{"cxl_port_timeouts_total": 1, "cxl_port_retrains_total": 1}
	for _, s := range reg.Gather() {
		if exp, ok := want[s.Name]; ok {
			if s.Value != exp {
				t.Errorf("%s = %v, want %v", s.Name, s.Value, exp)
			}
			delete(want, s.Name)
		}
	}
	for name := range want {
		t.Errorf("metric %s not gathered", name)
	}
}
