package cxl

import "sync"

// The fan-out engine: the one mechanism that spreads a transfer across
// cores. Striped bursts hand it one part per leg (InterleaveSet.do);
// large RootPort.ReadAt/WriteAt interiors hand it one part per VC
// (RootPort.bulk). How a transfer is cut into parts stays with the
// caller; the engine only runs them.
//
// A fixed set of helper goroutines — enough for one caller at full
// width — parks on one unbuffered channel. They start on first use and
// live for the process. A call takes a pooled frame, runs part 0 on the
// caller's goroutine and hands every other part over with a
// non-blocking send. A part no parked helper takes (every helper busy
// with a concurrent or nested call) overflows onto a transient
// goroutine, so a call never waits for the pool. Parts carry a
// top-level run function and their arguments in the frame, so a
// hand-off to a parked helper allocates nothing.

// fanMaxParts bounds the parts of one call: one per leg of the widest
// interleave set, or one per VC.
const fanMaxParts = max(MaxInterleaveWays, NumVCs)

// fanPart is one share of a fanned-out call. run moves it, reading
// whichever argument fields its kind needs.
type fanPart struct {
	run   func(*fanPart) error
	call  *fanCall
	set   *InterleaveSet
	rp    *RootPort
	leg   int
	write bool
	hpa   uint64
	p     []byte
	err   error
}

// fanCall is the pooled per-call frame: the parts and their barrier.
type fanCall struct {
	wg    sync.WaitGroup
	parts [fanMaxParts]fanPart
}

var (
	fanCallPool = sync.Pool{New: func() any { return new(fanCall) }}
	fanStart    sync.Once
	fanQueue    = make(chan *fanPart)
)

// newFanCall returns a cleared frame; the caller fills parts[:n] and
// calls run(n).
func newFanCall() *fanCall { return fanCallPool.Get().(*fanCall) }

func fanHelper() {
	for pt := range fanQueue {
		pt.exec()
	}
}

// exec runs a handed-over part and signals its call's barrier.
func (pt *fanPart) exec() {
	pt.err = pt.run(pt)
	pt.call.wg.Done()
}

// run moves parts[:n] at once, waits for all of them and returns the
// lowest-index part's error. The frame goes back to the pool.
func (c *fanCall) run(n int) error {
	fanStart.Do(func() {
		for i := 1; i < fanMaxParts; i++ {
			go fanHelper()
		}
	})
	c.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		pt := &c.parts[i]
		pt.call = c
		select {
		case fanQueue <- pt:
		default:
			go pt.exec()
		}
	}
	err := c.parts[0].run(&c.parts[0])
	c.wg.Wait()
	for i := range c.parts[:n] {
		if err == nil {
			err = c.parts[i].err
		}
		c.parts[i] = fanPart{}
	}
	fanCallPool.Put(c)
	return err
}
