package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cxlpmem/internal/cxl"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/pmemfs"
	"cxlpmem/perfbench/spans"
)

// tracer records spans at layer boundaries for a traced run.
//
// Benchmark code passes its recorder explicitly. The wrappers below the
// public API (the pool region and the node data path) are called from
// inside the library with no recorder in hand, so they find it by OS
// thread: every traced client goroutine is locked to its thread and
// registers that thread's id. Calls from goroutines the library starts
// itself (migration pipe writers, interleave leg workers) find no
// recorder and are not recorded; they overlap their caller's spans, so
// recording them would break nesting.
type tracer struct {
	epoch   time.Time
	setupNs int64 // core.NewSetup1 time of the traced set-up

	regMu sync.Mutex
	recs  atomic.Pointer[map[int]*recorder]

	mu      sync.Mutex
	sums    map[string]*spans.Summary // by root name: "op" or "gate"
	updates hist                      // pmem.update durations, ns
	log     []spans.Span              // spans of sampled operations
	nextOp  int64
	err     error
}

// maxLoggedSpans bounds the in-memory span log; per-layer figures come
// from the summaries, which see every operation.
const maxLoggedSpans = 1 << 18

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), sums: map[string]*spans.Summary{}}
	t.recs.Store(&map[int]*recorder{})
	return t
}

func (t *tracer) summary(root string) *spans.Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.sums[root]; ok {
		return s
	}
	return spans.NewSummary()
}

// onThread runs fn on a goroutine locked to its OS thread, with a
// recorder registered for that thread, and waits for it.
func (t *tracer) onThread(fn func(rec *recorder)) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		rec := &recorder{tr: t}
		tid := syscall.Gettid()
		t.setRec(tid, rec)
		defer t.setRec(tid, nil)
		fn(rec)
	}()
	<-done
}

func (t *tracer) setRec(tid int, rec *recorder) {
	t.regMu.Lock()
	defer t.regMu.Unlock()
	old := *t.recs.Load()
	m := make(map[int]*recorder, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	if rec == nil {
		delete(m, tid)
	} else {
		m[tid] = rec
	}
	t.recs.Store(&m)
}

// current returns the recorder of the calling thread, or nil.
func (t *tracer) current() *recorder {
	m := *t.recs.Load()
	if len(m) == 0 {
		return nil
	}
	rec := m[syscall.Gettid()]
	if rec == nil || len(rec.stack) == 0 {
		return nil
	}
	return rec
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// write stores the sampled span log under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = spans.Write(f, t.log)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// recorder collects the spans of the operation running on one
// goroutine. A nil recorder records nothing, so untraced code paths
// call the same methods.
type recorder struct {
	tr    *tracer
	cur   []spans.Span
	stack []int32
}

// beginOp opens an operation's root span ("op" or "gate").
func (r *recorder) beginOp(root string) {
	if r == nil {
		return
	}
	r.tr.mu.Lock()
	id := r.tr.nextOp
	r.tr.nextOp++
	r.tr.mu.Unlock()
	r.cur = append(r.cur[:0], spans.Span{Op: id, ID: 0, Parent: -1, Name: root, Start: r.tr.now()})
	r.stack = append(r.stack[:0], 0)
}

// endOp closes the root span and folds the operation into the tracer.
func (r *recorder) endOp() {
	if r == nil {
		return
	}
	r.cur[0].End = r.tr.now()
	r.stack = r.stack[:0]
	t := r.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	root := r.cur[0].Name
	s, ok := t.sums[root]
	if !ok {
		s = spans.NewSummary()
		t.sums[root] = s
	}
	if err := s.Add(r.cur); err != nil && t.err == nil {
		t.err = err
	}
	for _, sp := range r.cur {
		if sp.Name == "pmem.update" {
			t.updates.add(sp.End - sp.Start)
		}
	}
	op := r.cur[0].Op
	if (root == "gate" || op < 1024 || op%64 == 0) && len(t.log)+len(r.cur) <= maxLoggedSpans {
		t.log = append(t.log, r.cur...)
	}
}

func (r *recorder) begin(name string, bytes int) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.cur))
	r.cur = append(r.cur, spans.Span{Op: r.cur[0].Op, ID: id, Parent: r.stack[len(r.stack)-1], Name: name, Start: r.tr.now(), Bytes: int64(bytes)})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.cur[id].End = r.tr.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// tracedRegion is the pmem.Region over a pmemfs.File that core builds
// for every pool, with its reads and writes recorded as pmemfs spans.
// Writes not 64 B-aligned in start or length are named
// "pmemfs.write_partial".
type tracedRegion struct {
	*pmemfs.File
	dev memdev.Device
	tr  *tracer
}

// PowerCycle forwards a simulated power loss to the node's media, as
// core's region does.
func (r *tracedRegion) PowerCycle() { r.dev.PowerCycle() }

func (r *tracedRegion) ReadAt(p []byte, off int64) error {
	rec := r.tr.current()
	id := rec.begin("pmemfs.read", len(p))
	err := r.File.ReadAt(p, off)
	rec.end(id)
	return err
}

func (r *tracedRegion) WriteAt(p []byte, off int64) error {
	rec := r.tr.current()
	name := "pmemfs.write"
	if off%int64(cxl.LineSize) != 0 || len(p)%cxl.LineSize != 0 {
		name = "pmemfs.write_partial"
	}
	id := rec.begin(name, len(p))
	err := r.File.WriteAt(p, off)
	rec.end(id)
	return err
}

// tracedIO wraps a node's cxl.MemIO data path. layer names the spans:
// "cxl" for a CXL node, "memdev" for a direct-attached one.
type tracedIO struct {
	cxl.MemIO
	tr             *tracer
	rdName, wrName string
}

func newTracedIO(inner cxl.MemIO, tr *tracer, layer string) *tracedIO {
	return &tracedIO{MemIO: inner, tr: tr, rdName: layer + ".read", wrName: layer + ".write"}
}

func (t *tracedIO) span(name string, n int, fn func() error) error {
	rec := t.tr.current()
	id := rec.begin(name, n)
	err := fn()
	rec.end(id)
	return err
}

func (t *tracedIO) ReadAt(p []byte, off int64) error {
	return t.span(t.rdName, len(p), func() error { return t.MemIO.ReadAt(p, off) })
}

func (t *tracedIO) WriteAt(p []byte, off int64) error {
	return t.span(t.wrName, len(p), func() error { return t.MemIO.WriteAt(p, off) })
}

func (t *tracedIO) ReadBurst(hpa uint64, p []byte) error {
	return t.span(t.rdName, len(p), func() error { return t.MemIO.ReadBurst(hpa, p) })
}

func (t *tracedIO) WriteBurst(hpa uint64, p []byte) error {
	return t.span(t.wrName, len(p), func() error { return t.MemIO.WriteBurst(hpa, p) })
}

func (t *tracedIO) ReadLine(hpa uint64, out *[cxl.LineSize]byte) error {
	return t.span(t.rdName, cxl.LineSize, func() error { return t.MemIO.ReadLine(hpa, out) })
}

func (t *tracedIO) WriteLine(hpa uint64, data *[cxl.LineSize]byte) error {
	return t.span(t.wrName, cxl.LineSize, func() error { return t.MemIO.WriteLine(hpa, data) })
}
