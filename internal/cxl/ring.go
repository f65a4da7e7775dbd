package cxl

import "sync/atomic"

// Per-VC tag sequences: how a port issues transactions.
//
// Every RootPort transaction — a line read, write, partial write or
// invalidate, or a burst — is one synchronous call that moves its
// flits on the caller's goroutine. It picks a virtual channel by
// address (ringFor), takes the next position t on that VC's sequence
// with one atomic add, and uses tagAt(t) as its wire tag and t as its
// telemetry sampling clock (tapPick). There is no queue between the
// caller and the wire: concurrent callers on one VC move their flits in
// parallel, each under its own tag.
//
// A line op crosses the wire in the shape of CXL's multi-slot flits,
// with one slot used: a read or invalidate as a one-entry packed
// submission flit (flitKindSQ), a write as a full request flit; the
// answer returns as a read-data flit or a one-entry completion flit
// (flitKindCQ). A burst is a header flit, its data beats and one
// response flit (port.go). CRC, retry, tracing and fault injection act
// per flit.
const (
	// vcStride is how many consecutive lines share one VC in the
	// address-based dispatch (ringFor): sustained traffic spreads
	// across all NumVCs sequences, and a bulk transfer's parts can be
	// placed on distinct VCs (see bulk).
	vcStride = 32
	// vcRunBytes is the HPA span one vcStride run covers; ringFor's VC
	// choice repeats every vcPeriod bytes.
	vcRunBytes = uint64(vcStride * LineSize)
	vcPeriod   = NumVCs * vcRunBytes
)

// vcRing is one virtual channel's tag sequence and counters. tail is
// the next sequence position (so also the VC's issued count), and
// retries counts link-level retransmissions charged to the VC. The
// words are padded apart so issue and retry traffic do not
// false-share.
type vcRing struct {
	idx     uint32
	_       [60]byte
	tail    atomic.Uint64
	_       [56]byte
	retries atomic.Int64
	_       [56]byte
}

// tagAt derives a transaction's wire tag from its sequence position:
// VC index in the high bits, the position's low bits as the sequence.
// Two transactions in flight on one VC carry distinct tags unless
// 2^vcTagBits of them are in flight at once.
func (r *vcRing) tagAt(pos uint64) uint16 {
	return uint16(r.idx)<<vcTagBits | uint16(pos)&vcSeqMask
}

// syncTransact issues one transaction on the VC its address maps to and
// moves it across the link on the caller's goroutine. op selects the
// shape: burst opcodes stream p through the chunked burst path; line
// opcodes read into out, or write data (under mask for MemWrPtl).
func (rp *RootPort) syncTransact(op MemOpcode, addr, mask uint64, out, data *[LineSize]byte, p []byte) error {
	r := rp.ringFor(addr)
	t := r.tail.Add(1) - 1
	s, serr := rp.session()
	hk, hist, t0 := rp.tapPick(t, rp.hooks.Load(), op)
	var err error
	switch {
	case serr != nil:
		err = portErr(rp.name, op.String(), addr, serr, serr.Error())
	case isBurst(op):
		err = rp.ringBurst(s, hk, r, r.tagAt(t), op, addr, p)
	default:
		err = rp.processSingle(s, hk, r, t, op, addr, mask, out, data)
	}
	if hist != nil {
		hist.RecordSince(t0)
	}
	return err
}

// isBurst reports whether op is a multi-line burst opcode.
func isBurst(op MemOpcode) bool { return op == OpMemRdBurst || op == OpMemWrBurst }

// processSingle moves one line transaction at sequence position pos:
// reads/invalidates as one packed SQ entry, writes as a full request
// flit, then the answer as read-data or one packed CQ entry.
func (rp *RootPort) processSingle(s *portSession, hk *portHooks, r *vcRing, pos uint64, op MemOpcode, addr, mask uint64, out, data *[LineSize]byte) error {
	tag := r.tagAt(pos)
	var f Flit
	var req MemReq
	switch op {
	case OpMemRd, OpMemInv:
		var dec [SQEntriesPerFlit]SQE
		if _, err := rp.moveSQ(s, hk, r, &f, []SQE{{Op: op, Tag: tag, Addr: addr}}, &dec); err != nil {
			return portErr(rp.name, op.String(), addr, ErrUncorrectable, "uncorrectable link error: "+err.Error())
		}
		req = MemReq{Opcode: dec[0].Op, Addr: dec[0].Addr, Tag: dec[0].Tag}
	default: // OpMemWr, OpMemWrPtl
		if err := rp.moveReq(s, hk, r, &f, op, tag, addr, mask, data, &req); err != nil {
			return portErr(rp.name, op.String(), addr, ErrUncorrectable, "uncorrectable link error: "+err.Error())
		}
	}
	resp := s.endpoint.HandleMem(req)
	if op == OpMemRd && resp.Opcode == RespMemData {
		return rp.moveRData(s, hk, r, &f, tag, uint32(pos), &resp.Data, out)
	}
	var dec [CQEntriesPerFlit]CQE
	if _, err := rp.moveCQ(s, hk, r, &f, []CQE{{Status: resp.Opcode, Tag: resp.Tag, Addr: addr}}, &dec); err != nil {
		return portErr(rp.name, op.String(), addr, ErrUncorrectable, "uncorrectable link error: "+err.Error())
	}
	if dec[0].Tag != tag {
		return portErr(rp.name, op.String(), addr, ErrTagMismatch, "completion tag mismatch")
	}
	want := RespCmp
	if op == OpMemRd {
		want = RespMemData
	}
	if dec[0].Status != want {
		return portErr(rp.name, op.String(), addr, ErrBadResponse, "response "+dec[0].Status.String())
	}
	return nil
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
// over the wire with retry, encoding straight from the caller's line —
// the payload crosses the wire without an intermediate MemReq copy —
// and decoding into dst.
func (rp *RootPort) moveReq(s *portSession, h *portHooks, r *vcRing, f *Flit, op MemOpcode, tag uint16, addr, mask uint64, data *[LineSize]byte, dst *MemReq) error {
	for attempt := 0; ; attempt++ {
		EncodeReqFieldsInto(f, op, tag, addr, mask, data)
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
		rp.backoff(cfg, attempt, addr)
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

// ringBurst streams one burst transaction through the chunked burst
// path, reusing its tag for every chunk (chunks are strictly
// sequential, so the tag is never ambiguous in flight).
func (rp *RootPort) ringBurst(s *portSession, hk *portHooks, r *vcRing, tag uint16, op MemOpcode, hpa uint64, p []byte) error {
	for len(p) > 0 {
		n := min(len(p), maxBurstBytes)
		var err error
		if op == OpMemWrBurst {
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
