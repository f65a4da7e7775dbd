package cxl

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Submission/completion rings: the io_uring-shaped small-op data path.
//
// Every virtual channel owns one SQ/CQ ring pair. Callers enqueue
// fixed-size descriptors into the SQ lock-free (SubmitRead/SubmitWrite,
// and the synchronous methods, which are submit+flush+wait over the
// same path — there is exactly one data path through a port). A
// doorbell (Flush, or the first waiter) claims the queued span with a
// single CAS and moves the whole batch across the link in one VC
// acquisition: session and hook snapshots are loaded once, header-only
// submissions pack four to a CRC-protected flit (see flitKindSQ),
// data-bearing messages ride one flit per line, the endpoint services
// the decoded batch through one QueueHandler call (coalescing adjacent
// lines into single media accesses), and completions return packed four
// to a flit. Per-flit CRC/retry/trace/fault semantics are identical to
// the pre-ring path — a fault injected on one descriptor's flit retries
// that flit alone and never disturbs the rest of the batch.
//
// Ring discipline (slot states are per-position sequence numbers, the
// classic bounded-MPMC scheme, so wraparound is explicit and tested):
//
//	seq == pos            free: a producer may claim position pos
//	seq == pos+1          published: descriptor written, awaiting flush
//	seq == pos+2          done: completion filled in, awaiting consumption
//	seq == pos+3          held: a waiter is reading the outcome
//	seq == pos+RingSlots  consumed: free for the next lap's producer
//
// Head (flushHead) and tail are published with atomics; flushers claim
// disjoint [head, tail) spans by CAS, so concurrent submitters on one
// VC flush in parallel without a lock on the hot path. Every completion
// must be consumed exactly once — either Wait the token or drain it via
// Harvest; a submission stream that consumes neither eventually fills
// the ring and Submit* reports ErrRingFull.
const (
	// RingSlots is the per-VC submission-queue depth (power of two).
	RingSlots = 64
	ringMask  = RingSlots - 1
	// cqSlots is the per-VC completion-queue depth. Twice the SQ depth
	// absorbs entries left behind by Wait-consumed tokens (they are
	// dropped lazily; see postLocked).
	cqSlots = 2 * RingSlots
	cqMask  = cqSlots - 1
	// vcStride is how many consecutive lines share one VC in the
	// address-based dispatch (ringFor): batches of neighbouring
	// submissions stay VC-local (one doorbell, device-side run
	// coalescing) while sustained load still spreads across all NumVCs
	// rings.
	vcStride = 32
	// vcRunBytes is the HPA span one vcStride run covers; ringFor's VC
	// choice repeats every vcPeriod bytes.
	vcRunBytes = uint64(vcStride * LineSize)
	vcPeriod   = NumVCs * vcRunBytes
	// slotHeld is the seq offset of a slot whose waiter is reading its
	// outcome (see sqSlot.claim).
	slotHeld = 3
)

// descriptor kinds.
const (
	descLine  = uint8(iota) // MemRd / MemWr / MemWrPtl / MemInv
	descBurst               // MemRdBurst / MemWrBurst over d.p
)

// ringDesc is one fixed-size submission-queue descriptor.
type ringDesc struct {
	op   MemOpcode
	kind uint8
	// noCQ suppresses the CQ record: synchronous submissions are always
	// consumed by their waiter, so posting them would only leave stale
	// entries for Harvest to skip (io_uring's CQE-skip, applied to the
	// whole sync path).
	noCQ bool
	addr uint64
	mask uint64          // MemWrPtl byte mask
	out  *[LineSize]byte // MemRd destination (caller-owned, live until consumption)
	p    []byte          // burst payload (caller-owned, live until consumption)
	data [LineSize]byte  // MemWr/MemWrPtl payload, staged at submit
}

// Completion is a completion token: submission returns one, and the
// descriptor's outcome is consumed exactly once — by the token's Wait
// or by a Harvest that drains it first. The token is a handle, not a
// pointer into the ring: it names its descriptor by (VC ring, ring
// position), the way NVMe matches a completion by (SQID, CID), so a
// slot recycled for a later lap can never be mistaken for it. Tokens
// are values, so the steady state allocates nothing.
type Completion struct {
	ring *vcRing // nil only in the zero token
	pos  uint64
	tag  uint16
}

// Tag returns the wire tag the descriptor carried.
func (c Completion) Tag() uint16 { return c.tag }

// Wait blocks until the descriptor completes (flushing its ring if
// nobody else has rung the doorbell yet) and returns the transaction's
// error. If a concurrent Harvest drained the completion first, the
// outcome went to that Harvest and Wait returns nil once the
// descriptor is done. The zero token waits for nothing and returns nil.
func (c Completion) Wait() error {
	r := c.ring
	if r == nil {
		return nil
	}
	slot := &r.slots[c.pos&ringMask]
	if slot.seq.Load() < c.pos+2 {
		r.rp.flushVC(r)
		for slot.seq.Load() < c.pos+2 {
			runtime.Gosched()
		}
	}
	_, err := slot.claim(c.pos)
	return err
}

// WaitTimeout is Wait with a per-descriptor deadline. On expiry it
// returns ErrTimeout and abandons the token: whoever eventually
// completes the descriptor consumes the slot, so the ring keeps
// cycling. The transaction's real outcome is then unknown and its
// completion is discarded (it never surfaces through Harvest either);
// the caller decides whether to requeue the operation or fail. A
// non-positive d degenerates to Wait.
func (c Completion) WaitTimeout(d time.Duration) error {
	r := c.ring
	if r == nil || d <= 0 {
		return c.Wait()
	}
	slot := &r.slots[c.pos&ringMask]
	if slot.seq.Load() < c.pos+2 {
		r.rp.flushVC(r)
		deadline := time.Now().Add(d)
		for slot.seq.Load() < c.pos+2 {
			if time.Now().After(deadline) {
				return c.abandon(slot)
			}
			runtime.Gosched()
		}
	}
	_, err := slot.claim(c.pos)
	return err
}

// abandon marks the slot so its completer self-consumes it, then
// double-checks for a completion that raced the deadline — if one
// landed, it is claimed as a normal wait would.
func (c Completion) abandon(slot *sqSlot) error {
	slot.abandoned.Store(c.pos + 1)
	if slot.seq.Load() >= c.pos+2 {
		ok, err := slot.claim(c.pos)
		// Clear our mark if it is still ours (the completer's abandoned
		// sweep may have consumed the slot first).
		slot.abandoned.CompareAndSwap(c.pos+1, 0)
		if ok {
			return err
		}
	}
	rp := c.ring.rp
	rp.timeouts.Add(1)
	return portErr(rp.name, "WaitTimeout", 0, ErrTimeout, "descriptor deadline exceeded; completion abandoned")
}

// Completed is one harvested completion-queue entry.
type Completed struct {
	// Tag is the wire tag of the completed descriptor.
	Tag uint16
	// Op is the submitted opcode.
	Op MemOpcode
	// Addr is the descriptor's HPA.
	Addr uint64
	// Err is the transaction outcome (nil on success).
	Err error
}

// cqRec is one CQ ring entry: the public record plus the slot position
// whose consumption it drives.
type cqRec struct {
	c   Completed
	pos uint64
}

// sqSlot is one SQ ring slot: the descriptor, its wire tag and
// outcome, and the position-based state word. abandoned carries pos+1
// when the waiter for that position gave up (WaitTimeout); the
// completer consumes such a slot itself so the ring never wedges on a
// departed waiter. The value is generation-tagged (not a bool) so a
// stale mark from a previous lap can never discard a live descriptor.
type sqSlot struct {
	seq       atomic.Uint64
	abandoned atomic.Uint64
	tag       uint16
	err       error
	desc      ringDesc
}

// claim consumes the done slot at position pos for its token's waiter.
// The slot first moves to a held state that Harvest cannot take and
// submit cannot reuse, so the outcome is read before the slot is freed
// for the next lap. ok is false when Harvest (or the abandoned-slot
// sweep) consumed the completion first.
func (slot *sqSlot) claim(pos uint64) (ok bool, err error) {
	if !slot.seq.CompareAndSwap(pos+2, pos+slotHeld) {
		return false, nil
	}
	err = slot.err
	slot.seq.Store(pos + RingSlots)
	return true, err
}

// vcRing is one virtual channel's SQ/CQ pair plus its per-VC counters
// (the successor of the PR-2 virtualChannel: the tag sequence is now
// the ring position). Hot-path words are padded apart so producer,
// flusher and stats traffic do not false-share.
type vcRing struct {
	rp  *RootPort
	idx uint32
	_   [48]byte
	// tail is the next SQ position a producer claims.
	tail atomic.Uint64
	_    [56]byte
	// flushHead is the start of the next flush claim; [flushHead, tail)
	// is the queued-but-unclaimed span.
	flushHead atomic.Uint64
	_         [56]byte
	retries   atomic.Int64
	overflows atomic.Int64
	_         [48]byte

	// cqMu guards the completion queue; it is taken once per flushed
	// batch and once per Harvest call, never per descriptor. cqN mirrors
	// cqTail-cqHead (maintained under cqMu, read racily) so Harvest can
	// skip empty rings without taking their locks.
	cqMu   sync.Mutex
	cqHead uint64
	cqTail uint64
	cqN    atomic.Int64
	cq     [cqSlots]cqRec

	slots [RingSlots]sqSlot
}

func (r *vcRing) init(rp *RootPort, idx int) {
	r.rp = rp
	r.idx = uint32(idx)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
}

// tagAt derives a descriptor's wire tag from its ring position: VC
// index in the high bits, the position's low bits as the sequence. Two
// in-flight descriptors always differ in VC bits or sequence bits
// (RingSlots ≪ 2^vcTagBits), across any number of ring laps.
func (r *vcRing) tagAt(pos uint64) uint16 {
	return uint16(r.idx)<<vcTagBits | uint16(pos)&vcSeqMask
}

// submit claims one SQ slot and publishes the descriptor. errRingFull
// (unwrapped) reports a full ring; callers wrap or flush-and-retry.
func (r *vcRing) submit(kind uint8, noCQ bool, op MemOpcode, addr, mask uint64, out *[LineSize]byte, data *[LineSize]byte, p []byte) (Completion, error) {
	for {
		t := r.tail.Load()
		slot := &r.slots[t&ringMask]
		seq := slot.seq.Load()
		if seq != t {
			if seq < t {
				// The slot's previous-lap occupant has not been consumed:
				// the ring is full.
				return Completion{}, ErrRingFull
			}
			continue // tail moved under us; reload
		}
		if !r.tail.CompareAndSwap(t, t+1) {
			continue
		}
		d := &slot.desc
		d.kind, d.noCQ, d.op, d.addr, d.mask, d.out, d.p = kind, noCQ, op, addr, mask, out, p
		if data != nil {
			d.data = *data
		}
		tag := r.tagAt(t)
		slot.tag, slot.err = tag, nil
		slot.seq.Store(t + 1)
		return Completion{ring: r, pos: t, tag: tag}, nil
	}
}

// complete fills a descriptor's token and publishes the done state.
// The CQ record is posted separately (postLocked) so a batch pays one
// lock, not one per descriptor. A slot whose waiter abandoned it
// (WaitTimeout expired) is consumed on the spot: the waiter is gone,
// and its stale CQ record, if any, will be skipped by Harvest.
func (r *vcRing) complete(slot *sqSlot, pos uint64, err error) {
	slot.err = err
	slot.seq.Store(pos + 2)
	if slot.abandoned.Load() == pos+1 && slot.seq.CompareAndSwap(pos+2, pos+RingSlots) {
		slot.abandoned.CompareAndSwap(pos+1, 0)
	}
}

// postLocked appends completion records to the CQ under cqMu. A full CQ
// first drops entries whose slots were already consumed via Wait
// (stale, silent), then — only if genuinely out of space — drops the
// oldest live entry and counts the overflow, io_uring style: the ring
// never blocks on an unharvested CQ.
func (r *vcRing) postLocked(recs []cqRec) {
	r.cqMu.Lock()
	// Make room up front (rare): evict until the whole batch fits, so
	// the common full-space case pays no per-record capacity check.
	for int(r.cqTail-r.cqHead) > cqSlots-len(recs) {
		old := &r.cq[r.cqHead&cqMask]
		if r.slots[old.pos&ringMask].seq.Load() == old.pos+2 {
			r.overflows.Add(1)
		}
		old.c.Err = nil
		r.cqHead++
	}
	for i := range recs {
		r.cq[r.cqTail&cqMask] = recs[i]
		r.cqTail++
	}
	r.cqN.Store(int64(r.cqTail - r.cqHead))
	r.cqMu.Unlock()
}

// finish completes one descriptor and posts its CQ record (the
// single-descriptor form of complete+postLocked).
func (r *vcRing) finish(slot *sqSlot, pos uint64, err error) {
	if slot.desc.noCQ {
		r.complete(slot, pos, err)
		return
	}
	rec := cqRec{c: Completed{Tag: slot.tag, Op: slot.desc.op, Addr: slot.desc.addr, Err: err}, pos: pos}
	r.complete(slot, pos, err)
	r.postLocked([]cqRec{rec})
}

// harvest drains up to len(dst) completions into dst, consuming their
// slots. Entries already consumed via Wait are skipped.
func (r *vcRing) harvest(dst []Completed) int {
	if len(dst) == 0 {
		return 0
	}
	n := 0
	r.cqMu.Lock()
	for r.cqHead != r.cqTail && n < len(dst) {
		rec := &r.cq[r.cqHead&cqMask]
		r.cqHead++
		if r.slots[rec.pos&ringMask].seq.CompareAndSwap(rec.pos+2, rec.pos+RingSlots) {
			dst[n] = rec.c
			n++
		}
		rec.c.Err = nil
	}
	r.cqN.Store(int64(r.cqTail - r.cqHead))
	r.cqMu.Unlock()
	return n
}

// pending reports whether the ring has queued-but-unflushed work.
func (r *vcRing) pending() bool { return r.flushHead.Load() != r.tail.Load() }

// flushScratch is the pooled working set of one flush: decoded
// requests/responses for the device batch, plus flit-packing staging.
type flushScratch struct {
	reqs  [RingSlots]MemReq
	resps [RingSlots]MemResp
	pos   [RingSlots]uint64
	slotp [RingSlots]*sqSlot
	errs  [RingSlots]error
	post  [RingSlots]cqRec
	sqes  [SQEntriesPerFlit]SQE
	sqIdx [SQEntriesPerFlit]int
	cqes  [CQEntriesPerFlit]CQE
	cqIdx [CQEntriesPerFlit]int
	dec   [SQEntriesPerFlit]SQE
	decCQ [CQEntriesPerFlit]CQE
}

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

// flushVC rings the doorbell on one VC: claim the queued span with a
// CAS and process it, repeating until the SQ drains. Concurrent callers
// claim disjoint spans and proceed in parallel.
func (rp *RootPort) flushVC(r *vcRing) {
	for {
		h := r.flushHead.Load()
		t := r.tail.Load()
		if h == t {
			return
		}
		if !r.flushHead.CompareAndSwap(h, t) {
			continue
		}
		rp.processSpan(r, h, t)
	}
}

// processSpan moves the claimed descriptor span [h, t) across the link:
// line descriptors accumulate into batches (flushed in order around any
// burst descriptor), bursts stream through the chunked burst path.
func (rp *RootPort) processSpan(r *vcRing, h, t uint64) {
	rp.doorbells.Add(1)
	s, serr := rp.ringSession()
	hk, hist, t0 := rp.tapPick(h, rp.hooks.Load(), descLine, OpMemRd, true)
	if hist != nil {
		defer hist.RecordSince(t0)
	}
	if t == h+1 {
		// Single descriptor (the synchronous submit+flush+wait shape):
		// process on the stack, skipping the batch scratch entirely.
		slot := &r.slots[h&ringMask]
		for slot.seq.Load() != h+1 {
			runtime.Gosched()
		}
		d := &slot.desc
		switch {
		case serr != nil:
			r.finish(slot, h, portErr(rp.name, d.op.String(), d.addr, serr, serr.Error()))
		case d.kind == descBurst:
			r.finish(slot, h, rp.ringBurst(s, hk, r, d, slot.tag))
		default:
			r.finish(slot, h, rp.processSingle(r, slot, h, s, hk, slot.tag))
		}
		return
	}
	sc := flushScratchPool.Get().(*flushScratch)
	n := 0
	for pos := h; pos < t; pos++ {
		slot := &r.slots[pos&ringMask]
		for slot.seq.Load() != pos+1 {
			// The producer claimed this position but has not published
			// yet; yield rather than spin so a preempted submitter can
			// finish its three stores.
			runtime.Gosched()
		}
		d := &slot.desc
		if serr != nil {
			r.finish(slot, pos, portErr(rp.name, d.op.String(), d.addr, serr, serr.Error()))
			continue
		}
		if d.kind == descBurst {
			if n > 0 {
				rp.runLineBatch(r, s, hk, sc, n)
				n = 0
			}
			r.finish(slot, pos, rp.ringBurst(s, hk, r, d, slot.tag))
			continue
		}
		sc.pos[n] = pos
		sc.slotp[n] = slot
		n++
	}
	if n > 0 {
		rp.runLineBatch(r, s, hk, sc, n)
	}
	flushScratchPool.Put(sc)
}

// runLineBatch moves one batch of line descriptors: submissions across
// the wire in descriptor order (header-only entries packed four to a
// flit, data-bearing ones a flit each), one device queue call, then
// completions back (read data a flit each, statuses packed four to a
// flit). Wire faults are isolated per flit: a CRC retry re-sends only
// the failed flit, and an exhausted retry budget fails only the
// descriptors that flit carried.
func (rp *RootPort) runLineBatch(r *vcRing, s *portSession, hk *portHooks, sc *flushScratch, n int) {
	var f Flit

	// Phase 1: submissions out. nErr counts link-failed descriptors so
	// the clean (overwhelmingly common) batch skips every per-line error
	// probe downstream.
	nErr := 0
	pk := 0
	flushPack := func() {
		if pk == 0 {
			return
		}
		_, err := rp.moveSQ(s, hk, r, &f, sc.sqes[:pk], &sc.dec)
		for j := 0; j < pk; j++ {
			i := sc.sqIdx[j]
			if err != nil {
				d := &sc.slotp[i].desc
				sc.errs[i] = portErr(rp.name, d.op.String(), d.addr, ErrUncorrectable, "uncorrectable link error: "+err.Error())
				nErr++
				continue
			}
			e := &sc.dec[j]
			q := &sc.reqs[i]
			q.Opcode, q.Addr, q.Tag, q.Mask, q.Lines = e.Op, e.Addr, e.Tag, 0, 0
		}
		pk = 0
	}
	for i := 0; i < n; i++ {
		slot := sc.slotp[i]
		d := &slot.desc
		sc.errs[i] = nil
		switch d.op {
		case OpMemRd, OpMemInv:
			sc.sqes[pk] = SQE{Op: d.op, Tag: slot.tag, Addr: d.addr}
			sc.sqIdx[pk] = i
			pk++
			if pk == SQEntriesPerFlit {
				flushPack()
			}
		default: // OpMemWr, OpMemWrPtl: payload rides a full request flit.
			flushPack()
			if err := rp.moveReq(s, hk, r, &f, d, slot.tag, &sc.reqs[i]); err != nil {
				sc.errs[i] = portErr(rp.name, d.op.String(), d.addr, ErrUncorrectable, "uncorrectable link error: "+err.Error())
				nErr++
			}
		}
	}
	flushPack()

	// Phase 2: the endpoint services the decoded batch in one call.
	clean := nErr == 0
	if clean && s.queue != nil {
		s.queue.HandleMemQueue(sc.reqs[:n], sc.resps[:n])
	} else {
		for i := 0; i < n; i++ {
			if sc.errs[i] == nil {
				sc.resps[i] = s.endpoint.HandleMem(sc.reqs[i])
			}
		}
	}

	// Phase 3: completions back, in descriptor order.
	postN := 0
	done := func(i int, err error) {
		pos := sc.pos[i]
		slot := sc.slotp[i]
		if !slot.desc.noCQ {
			sc.post[postN] = cqRec{c: Completed{Tag: slot.tag, Op: slot.desc.op, Addr: slot.desc.addr, Err: err}, pos: pos}
			postN++
		}
		r.complete(slot, pos, err)
	}
	pk = 0
	flushCQ := func() {
		if pk == 0 {
			return
		}
		_, err := rp.moveCQ(s, hk, r, &f, sc.cqes[:pk], &sc.decCQ)
		for j := 0; j < pk; j++ {
			i := sc.cqIdx[j]
			slot := sc.slotp[i]
			d := &slot.desc
			if err != nil {
				done(i, portErr(rp.name, d.op.String(), d.addr, ErrUncorrectable, "uncorrectable link error: "+err.Error()))
				continue
			}
			e := &sc.decCQ[j]
			if e.Tag != slot.tag {
				done(i, portErr(rp.name, d.op.String(), d.addr, ErrTagMismatch, "completion tag mismatch"))
				continue
			}
			want := RespCmp
			if d.op == OpMemRd {
				want = RespMemData
			}
			if e.Status != want {
				done(i, portErr(rp.name, d.op.String(), d.addr, ErrBadResponse, "response "+e.Status.String()))
				continue
			}
			done(i, nil)
		}
		pk = 0
	}
	for i := 0; i < n; i++ {
		if nErr != 0 && sc.errs[i] != nil {
			flushCQ()
			done(i, sc.errs[i])
			sc.errs[i] = nil
			continue
		}
		slot := sc.slotp[i]
		d := &slot.desc
		resp := &sc.resps[i]
		if d.op == OpMemRd && resp.Opcode == RespMemData {
			// Read data returns in its own flit, decoded straight into
			// the caller's buffer.
			flushCQ()
			done(i, rp.moveRData(s, hk, r, &f, slot.tag, uint32(sc.pos[i]), &resp.Data, d.out))
			continue
		}
		sc.cqes[pk] = CQE{Status: resp.Opcode, Tag: resp.Tag, Addr: d.addr}
		sc.cqIdx[pk] = i
		pk++
		if pk == CQEntriesPerFlit {
			flushCQ()
		}
	}
	flushCQ()
	if postN > 0 {
		r.postLocked(sc.post[:postN])
		for i := 0; i < postN; i++ {
			sc.post[i].c.Err = nil
		}
	}
}

// processSingle moves one line descriptor on the caller's stack — the
// synchronous path's shape — and returns its outcome; the caller
// finishes or frees the slot. Wire semantics match runLineBatch exactly
// (reads/invalidates as one packed SQ entry, writes as a full request
// flit, completions as read-data or one packed CQ entry).
func (rp *RootPort) processSingle(r *vcRing, slot *sqSlot, pos uint64, s *portSession, hk *portHooks, tag uint16) error {
	d := &slot.desc
	var f Flit
	var req MemReq
	var err error
	switch d.op {
	case OpMemRd, OpMemInv:
		var dec [SQEntriesPerFlit]SQE
		if _, e := rp.moveSQ(s, hk, r, &f, []SQE{{Op: d.op, Tag: tag, Addr: d.addr}}, &dec); e != nil {
			err = portErr(rp.name, d.op.String(), d.addr, ErrUncorrectable, "uncorrectable link error: "+e.Error())
		} else {
			req = MemReq{Opcode: dec[0].Op, Addr: dec[0].Addr, Tag: dec[0].Tag}
		}
	default: // OpMemWr, OpMemWrPtl
		if e := rp.moveReq(s, hk, r, &f, d, tag, &req); e != nil {
			err = portErr(rp.name, d.op.String(), d.addr, ErrUncorrectable, "uncorrectable link error: "+e.Error())
		}
	}
	if err == nil {
		resp := s.endpoint.HandleMem(req)
		if d.op == OpMemRd && resp.Opcode == RespMemData {
			err = rp.moveRData(s, hk, r, &f, tag, uint32(pos), &resp.Data, d.out)
		} else {
			var dec [CQEntriesPerFlit]CQE
			if _, e := rp.moveCQ(s, hk, r, &f, []CQE{{Status: resp.Opcode, Tag: resp.Tag, Addr: d.addr}}, &dec); e != nil {
				err = portErr(rp.name, d.op.String(), d.addr, ErrUncorrectable, "uncorrectable link error: "+e.Error())
			} else if dec[0].Tag != tag {
				err = portErr(rp.name, d.op.String(), d.addr, ErrTagMismatch, "completion tag mismatch")
			} else {
				want := RespCmp
				if d.op == OpMemRd {
					want = RespMemData
				}
				if dec[0].Status != want {
					err = portErr(rp.name, d.op.String(), d.addr, ErrBadResponse, "response "+dec[0].Status.String())
				}
			}
		}
	}
	return err
}

// moveSQ pushes one packed submission flit over the wire with
// link-level retry, returning the decoded entries the device would see.
func (rp *RootPort) moveSQ(s *portSession, h *portHooks, r *vcRing, f *Flit, entries []SQE, dst *[SQEntriesPerFlit]SQE) (int, error) {
	for attempt := 0; ; attempt++ {
		EncodeSQInto(f, entries)
		rp.moveFlit(h, f)
		n, err := DecodeSQInto(dst, f)
		if err == nil {
			return n, nil
		}
		h.flitErr(f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return 0, err
		}
		s.retry(r)
		rp.backoff(cfg, attempt, entries[0].Addr)
	}
}

// moveCQ pushes one packed completion flit over the wire with retry.
func (rp *RootPort) moveCQ(s *portSession, h *portHooks, r *vcRing, f *Flit, entries []CQE, dst *[CQEntriesPerFlit]CQE) (int, error) {
	for attempt := 0; ; attempt++ {
		EncodeCQInto(f, entries)
		rp.moveFlit(h, f)
		n, err := DecodeCQInto(dst, f)
		if err == nil {
			return n, nil
		}
		h.flitErr(f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return 0, err
		}
		s.retry(r)
		rp.backoff(cfg, attempt, entries[0].Addr)
	}
}

// moveReq pushes one full request flit (payload-carrying submission)
// over the wire with retry, encoding straight from the descriptor —
// the payload crosses the wire without an intermediate MemReq copy —
// and decoding into dst.
func (rp *RootPort) moveReq(s *portSession, h *portHooks, r *vcRing, f *Flit, d *ringDesc, tag uint16, dst *MemReq) error {
	for attempt := 0; ; attempt++ {
		EncodeReqFieldsInto(f, d.op, tag, d.addr, d.mask, &d.data)
		rp.moveFlit(h, f)
		err := DecodeReqInto(dst, f)
		if err == nil {
			return nil
		}
		h.flitErr(f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return err
		}
		s.retry(r)
		rp.backoff(cfg, attempt, d.addr)
	}
}

// moveRData pushes one read-data return flit over the wire with retry,
// decoding the payload straight into the caller's line buffer. On error
// the buffer contents are undefined.
func (rp *RootPort) moveRData(s *portSession, h *portHooks, r *vcRing, f *Flit, tag uint16, seq uint32, src, dst *[LineSize]byte) error {
	for attempt := 0; ; attempt++ {
		EncodeDataInto(f, tag, seq, src)
		rp.moveFlit(h, f)
		gotTag, gotSeq, err := DecodeDataInto(dst, f)
		if err == nil && gotTag == tag && gotSeq == seq {
			return nil
		}
		if err == nil {
			// Reordered delivery: NAK and retransmit, like a CRC failure.
			err = portErr(rp.name, "MemRd", 0, ErrTagMismatch, "data flit tag/seq mismatch")
		}
		h.flitErr(f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return portErr(rp.name, "MemRd", 0, ErrUncorrectable, "uncorrectable link error on data flit: "+err.Error())
		}
		s.retry(r)
		rp.backoff(cfg, attempt, uint64(tag))
	}
}

// ringBurst streams one burst descriptor through the chunked burst
// path, reusing the descriptor's tag for every chunk (chunks are
// strictly sequential, so the tag is never ambiguous in flight).
func (rp *RootPort) ringBurst(s *portSession, hk *portHooks, r *vcRing, d *ringDesc, tag uint16) error {
	hpa, p := d.addr, d.p
	write := d.op == OpMemWrBurst
	for len(p) > 0 {
		n := len(p)
		if n > maxBurstBytes {
			n = maxBurstBytes
		}
		var err error
		if write {
			err = rp.writeBurstChunk(s, hk, r, tag, hpa, p[:n])
		} else {
			err = rp.readBurstChunk(s, hk, r, tag, hpa, p[:n])
		}
		if err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	return nil
}
