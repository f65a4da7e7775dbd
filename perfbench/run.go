package main

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// hist is a log-linear histogram of nanosecond durations: values below
// 256 are exact, larger ones fall in one of 128 linear sub-buckets per
// power of two (under 0.8 % wide). Memory stays fixed however many ops
// a run completes, so mem_MiB does not depend on speed.
type hist struct {
	n      int64
	counts [57][128]int64
	small  [256]int64
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	if v < 256 {
		h.small[v]++
		return
	}
	e := bits.Len64(uint64(v)) - 8 // v >> e is in [128, 256)
	h.counts[e][(v>>e)-128]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i := range h.small {
		h.small[i] += o.small[i]
	}
	for e := range h.counts {
		for i := range h.counts[e] {
			h.counts[e][i] += o.counts[e][i]
		}
	}
}

// quantile returns the q-quantile (0..1) by rank, interpolating inside
// the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen int64
	for v, c := range h.small {
		if c > 0 && float64(seen+c) > rank {
			return float64(v)
		}
		seen += c
	}
	for e := range h.counts {
		for i, c := range h.counts[e] {
			if c == 0 || float64(seen+c) <= rank {
				seen += c
				continue
			}
			lo := float64(int64(128+i) << e)
			width := float64(int64(1) << e)
			return lo + width*(rank-float64(seen)+0.5)/float64(c)
		}
	}
	return math.NaN()
}

// beyond is the number of samples above the q-quantile.
func (h *hist) beyond(q float64) int64 {
	return h.n - int64(math.Ceil(q*float64(h.n)))
}

// window is the throughput sampling interval: a client closes a window
// at the first op completion at least this long after it opened.
const window = 250 * time.Millisecond

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	ops, failed int64
	elapsed     time.Duration // wall time of the phase, maintenance excluded
	payload     int64
	lat         hist
	firstErr    error
	// rate is ops per second: the sum over clients of each client's
	// median window rate, or the whole phase's rate when a client
	// closed no window.
	rate  float64
	rates []float64 // this client's window rates
}

func (l *loopStats) opsPerSec() float64 { return l.rate }

// payloadGBps is ops_per_s times the mean payload of a completed op.
func (l *loopStats) payloadGBps() float64 {
	if l.ops == 0 {
		return 0
	}
	return l.rate * float64(l.payload) / float64(l.ops) / 1e9
}

// runLoop drives the bench's clients, each in a closed loop (the next
// op starts when the previous one returns), until d has elapsed or,
// when maxOps > 0, every client has completed maxOps ops. With a
// tracer, every client runs on its own locked OS thread and each op is
// recorded as an "op" span tree.
func runLoop(b bench, tr *tracer, d time.Duration, maxOps int64) *loopStats {
	n := b.clients()
	per := make([]loopStats, n)
	var paused time.Duration // maintenance time; only single-client benches maintain
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		client := func(rec *recorder) {
			st := &per[c]
			wStart, wOps := time.Now(), int64(0)
			for maxOps <= 0 || st.ops+st.failed < maxOps {
				if maxOps <= 0 && !time.Now().Before(deadline) {
					break
				}
				rec.beginOp("op")
				t0 := time.Now()
				payload, err := b.op(c, rec)
				dt := time.Since(t0)
				rec.endOp()
				st.lat.add(int64(dt))
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
				} else {
					st.ops++
					st.payload += payload
					wOps++
				}
				if w := time.Since(wStart); w >= window {
					st.rates = append(st.rates, float64(wOps)/w.Seconds())
					wStart, wOps = time.Now(), 0
				}
				if m, ok := b.(maintainer); ok && n == 1 {
					t1 := time.Now()
					if err := m.maintain(); err != nil {
						st.failed++
						if st.firstErr == nil {
							st.firstErr = err
						}
					}
					dt := time.Since(t1)
					paused += dt
					wStart = wStart.Add(dt)
				}
			}
		}
		go func() {
			defer wg.Done()
			if tr == nil {
				client(nil)
				return
			}
			tr.onThread(client)
		}()
	}
	wg.Wait()
	out := &loopStats{elapsed: time.Since(start) - paused}
	for i := range per {
		p := &per[i]
		out.ops += p.ops
		out.failed += p.failed
		out.payload += p.payload
		out.lat.merge(&p.lat)
		if len(p.rates) > 0 {
			out.rate += median(p.rates)
		} else if out.elapsed > 0 {
			out.rate += float64(p.ops) / out.elapsed.Seconds()
		}
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// gate runs the bench's end-of-run correctness check, as a "gate" span
// tree when traced.
func gate(b bench, tr *tracer) error {
	var err error
	run := func(rec *recorder) {
		rec.beginOp("gate")
		err = b.finish(rec)
		rec.endOp()
	}
	if tr == nil {
		run(nil)
	} else {
		tr.onThread(run)
	}
	return err
}

// peakSysMiB is the Go runtime's Sys, the memory obtained from the OS,
// which never shrinks and so is the run's peak.
func peakSysMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
