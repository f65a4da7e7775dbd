package cxl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cxlpmem/internal/interconnect"
	"cxlpmem/internal/memdev"
	"cxlpmem/internal/telemetry"
)

// LinkState tracks root-port link training.
type LinkState int

const (
	// LinkDown — no endpoint attached or training failed.
	LinkDown LinkState = iota
	// LinkUp — training completed, transactions may flow.
	LinkUp
	// Retraining — the link dropped out of L0 and is renegotiating (a
	// link flap). The endpoint is still attached; new transactions park
	// until the retrain completes (bounded by PortOptions.RetrainTimeout)
	// and then replay, instead of failing.
	Retraining
)

func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case Retraining:
		return "retraining"
	default:
		return "down"
	}
}

// Multi-queue issue model. The port exposes NumVCs virtual channels,
// mirroring the per-QoS-class request queues of a real CXL host bridge.
// Each VC owns a tag sequence (see ring.go) and a slice of the tag
// space: the VC index in the high bits, the sequence position in the
// low bits. Transactions are dispatched by address in vcStride-line
// runs (ringFor), so sustained load spreads over all channels.
const (
	// NumVCs is the number of virtual channels per port (power of two).
	NumVCs = 8
	// vcTagBits is the per-VC sequence width inside the 16-bit tag; the
	// top bits carry the VC index.
	vcTagBits = 13
	vcSeqMask = 1<<vcTagBits - 1
)

// VCStat is a snapshot of one virtual channel's counters.
type VCStat struct {
	Issued  int64
	Retries int64
}

// PortStats is one snapshot of a port's issue and link counters.
type PortStats struct {
	// Issued counts transactions issued across all VCs.
	Issued int64
	// Retries counts link-level retransmissions across all VCs.
	Retries int64
	// Doorbells equals Issued: every transaction moves on its own, so
	// Issued/Doorbells, the realised batch depth, is 1. Kept, like
	// CQOverflows, for reports that still print the batching counters.
	Doorbells int64
	// CQOverflows is always 0: the port has no completion queue to
	// overflow.
	CQOverflows int64
	// Timeouts counts retrains that exceeded RetrainTimeout.
	Timeouts int64
	// Retrains counts LinkUp→Retraining transitions (link flaps).
	Retrains int64
	// VCs holds the per-virtual-channel issue/retry split.
	VCs [NumVCs]VCStat
}

// portHooks is the immutable snapshot of the port's observation and
// fault-injection hooks. The hot path loads it once per transaction, so
// hooks can be swapped at runtime while traffic is in flight: every
// transaction sees either the old pair or the new pair, never a torn
// mix.
type portHooks struct {
	trace func(Flit)
	fault func(Flit) Flit
	// rec, when non-nil, is the flight recorder that force-captures
	// CRC-failed flits regardless of sampling (see telemetry.go). It is
	// set only on the tap-built hook variants, never by SetFlitTrace.
	rec *telemetry.FlightRecorder
}

// portSession is the immutable snapshot of link training state: which
// endpoint is attached and whether the link is up. Attach/Detach
// publish a fresh snapshot; the data path reads it lock-free. ras, when
// non-nil, points at the attached endpoint's media counters so link
// CRC retries and exhausted-retry failures are attributed to the device
// they occurred against — the health thresholds' retry-storm input.
type portSession struct {
	state    LinkState
	endpoint Endpoint
	ras      *memdev.Stats
}

// retry charges one link-level retransmission to the issuing VC and to
// the attached device's RAS counters.
func (s *portSession) retry(r *vcRing) {
	r.retries.Add(1)
	if s.ras != nil {
		s.ras.LinkRetries.Add(1)
	}
}

// uncorrectable charges an exhausted retry budget to the device.
func (s *portSession) uncorrectable() {
	if s.ras != nil {
		s.ras.Uncorrectable.Add(1)
	}
}

// RootPort is a host-side CXL port: the CPU's view of one PCIe/CXL slot.
// It owns the physical link, performs link training against an attached
// endpoint, and carries CXL.mem traffic to it: every transaction is one
// synchronous call on a per-VC tag sequence (ring.go) that moves its
// flits on the caller's goroutine. Every request/response genuinely
// round-trips through the flit codec so protocol tests observe real
// wire behaviour; the steady-state data path allocates nothing and is
// safe for concurrent use by many goroutines.
//
// RootPort implements MemIO (memio.go).
type RootPort struct {
	name string
	link *interconnect.Link

	// mu serialises the cold path only: Attach/Detach, hook swaps, and
	// telemetry attachment.
	mu    sync.Mutex
	sess  atomic.Pointer[portSession]
	hooks atomic.Pointer[portHooks]
	// tap is the telemetry snapshot (nil when telemetry is off); tapCfg
	// is its cold-path wiring, guarded by mu. See telemetry.go.
	tap    atomic.Pointer[portTap]
	tapCfg *tapConfig

	// cfg is the resolved PortOptions snapshot; the data path only loads
	// it on retry/park paths, never on a clean transaction.
	cfg atomic.Pointer[PortOptions]

	timeouts atomic.Int64
	retrains atomic.Int64
	rings    [NumVCs]vcRing
}

// maxLinkRetries is the default retransmission budget before the port
// reports an uncorrectable link error (PortOptions.MaxLinkRetries).
const maxLinkRetries = 3

// defaultRetrainTimeout bounds how long a transaction parks waiting for
// a retraining link before failing with ErrTimeout.
const defaultRetrainTimeout = 2 * time.Second

// PortOptions tunes the port's link-recovery behaviour. The zero value
// resolves to today's defaults: a budget of maxLinkRetries immediate
// retransmissions (no backoff) and a 2 s retrain deadline.
type PortOptions struct {
	// MaxLinkRetries is the per-flit retransmission budget before the
	// transaction fails with ErrUncorrectable (0 takes the default, 3;
	// negative means no retries).
	MaxLinkRetries int
	// RetryBackoff is the base delay before the first retransmission;
	// each further retry doubles it (bounded exponential backoff with
	// deterministic jitter). Zero preserves immediate retransmit.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the backoff growth (0 with a nonzero
	// RetryBackoff takes 8× the base).
	RetryBackoffMax time.Duration
	// RetrainTimeout bounds how long transactions park on a Retraining
	// link before failing with ErrTimeout (0 takes 2 s).
	RetrainTimeout time.Duration
}

// resolve fills defaults into a copy of o.
func (o PortOptions) resolve() PortOptions {
	if o.MaxLinkRetries == 0 {
		o.MaxLinkRetries = maxLinkRetries
	} else if o.MaxLinkRetries < 0 {
		o.MaxLinkRetries = 0
	}
	if o.RetryBackoff > 0 && o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = 8 * o.RetryBackoff
	}
	if o.RetrainTimeout <= 0 {
		o.RetrainTimeout = defaultRetrainTimeout
	}
	return o
}

// SetOptions publishes new link-recovery options. Safe while traffic is
// in flight: each retry loop reads the snapshot current when it entered
// its error path.
func (rp *RootPort) SetOptions(o PortOptions) {
	r := o.resolve()
	rp.cfg.Store(&r)
}

// Options returns the resolved options in effect.
func (rp *RootPort) Options() PortOptions { return *rp.cfg.Load() }

// backoff sleeps the bounded-exponential retry delay for the given
// attempt. The jitter (±25%) is a pure function of (addr, attempt), so
// a replayed fault schedule waits the identical curve. With no backoff
// configured this is a single field load.
func (rp *RootPort) backoff(cfg *PortOptions, attempt int, addr uint64) {
	if cfg.RetryBackoff <= 0 {
		return
	}
	d := cfg.RetryBackoff << uint(attempt)
	if d <= 0 || d > cfg.RetryBackoffMax {
		d = cfg.RetryBackoffMax
	}
	// Deterministic jitter: hash the (addr, attempt) pair into [-25%, +25%).
	h := addr*0x9e3779b97f4a7c15 + uint64(attempt)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	jitter := int64(d) / 4
	if jitter > 0 {
		d += time.Duration(int64(h%uint64(2*jitter)) - jitter)
	}
	time.Sleep(d)
}

// maxBurstBytes is the payload of a maximal burst (4 KiB).
const maxBurstBytes = MaxBurstLines * LineSize

// burstBufPool recycles burst staging buffers (the receive side of the
// modelled wire) so the bulk path stays allocation-free in steady state.
var burstBufPool = sync.Pool{New: func() any { return new([maxBurstBytes]byte) }}

// NewRootPort builds a root port over the given physical link.
func NewRootPort(name string, link *interconnect.Link) *RootPort {
	rp := &RootPort{name: name, link: link}
	cfg := PortOptions{}.resolve()
	rp.cfg.Store(&cfg)
	for i := range rp.rings {
		rp.rings[i].idx = uint32(i)
	}
	return rp
}

// Stats returns a snapshot of the port's issue and link counters.
func (rp *RootPort) Stats() PortStats {
	var st PortStats
	st.Timeouts = rp.timeouts.Load()
	st.Retrains = rp.retrains.Load()
	for i := range rp.rings {
		r := &rp.rings[i]
		issued := int64(r.tail.Load())
		retries := r.retries.Load()
		st.VCs[i] = VCStat{Issued: issued, Retries: retries}
		st.Issued += issued
		st.Retries += retries
	}
	st.Doorbells = st.Issued
	return st
}

// Name returns the port name.
func (rp *RootPort) Name() string { return rp.name }

// Link returns the physical link.
func (rp *RootPort) Link() *interconnect.Link { return rp.link }

// State returns the link state.
func (rp *RootPort) State() LinkState {
	if s := rp.sess.Load(); s != nil {
		return s.state
	}
	return LinkDown
}

// Endpoint returns the attached endpoint, or nil.
func (rp *RootPort) Endpoint() Endpoint {
	if s := rp.sess.Load(); s != nil {
		return s.endpoint
	}
	return nil
}

// setHooks publishes a new hook snapshot derived from the current one:
// read-merge-store under mu so concurrent setters never lose each
// other's hook, while in-flight transactions keep the snapshot they
// loaded at issue time.
func (rp *RootPort) setHooks(mutate func(*portHooks)) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var h portHooks
	if cur := rp.hooks.Load(); cur != nil {
		h = *cur
	}
	mutate(&h)
	rp.hooks.Store(&h)
	// Hook swaps must propagate into the prebuilt telemetry variants so
	// sampled transactions keep chaining the user's current trace.
	rp.rebuildTapLocked()
}

// SetFlitTrace installs (or, with nil, removes) the hook that receives
// every flit the port moves (fault injection and protocol tests). Safe
// to call while traffic is in flight: transactions already issued keep
// the hook snapshot they started with.
func (rp *RootPort) SetFlitTrace(f func(Flit)) {
	rp.setHooks(func(h *portHooks) { h.trace = f })
}

// SetFault installs (or, with nil, removes) the hook that may corrupt a
// flit in flight (fault injection). The link-level retry state machine
// detects the CRC failure and retransmits, as CXL's LRSM does. Safe to
// swap at runtime, like SetFlitTrace.
func (rp *RootPort) SetFault(f func(Flit) Flit) {
	rp.setHooks(func(h *portHooks) { h.fault = f })
}

// Attach trains the link against ep. Training succeeds only if the
// endpoint's config space carries a valid CXL DVSEC (alternate-protocol
// negotiation: a plain PCIe card would not present one).
func (rp *RootPort) Attach(ep Endpoint) error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if s := rp.sess.Load(); s != nil && s.endpoint != nil {
		return fmt.Errorf("cxl: %s: port already has endpoint %s", rp.name, s.endpoint.Name())
	}
	if ep == nil {
		return fmt.Errorf("cxl: %s: nil endpoint", rp.name)
	}
	dvsec, ok := ep.Config().FindCXLDVSEC()
	if !ok {
		return fmt.Errorf("cxl: %s: endpoint %s has no CXL DVSEC; link training failed", rp.name, ep.Name())
	}
	if dvsec.Caps&CapIO == 0 {
		return fmt.Errorf("cxl: %s: endpoint %s does not advertise CXL.io", rp.name, ep.Name())
	}
	sess := &portSession{state: LinkUp, endpoint: ep}
	// Resolve the retry-attribution sink once, at training time: link
	// errors on this port are charged to the media behind the endpoint.
	if md, ok := ep.(interface{ Media() memdev.Device }); ok {
		if media := md.Media(); media != nil {
			sess.ras = media.Stats()
		}
	}
	rp.sess.Store(sess)
	return nil
}

// Detach brings the link down and releases the endpoint. Transactions
// already in flight complete against the endpoint they started with;
// every transaction issued after Detach fails with ErrLinkDown.
func (rp *RootPort) Detach() {
	rp.mu.Lock()
	rp.sess.Store(&portSession{state: LinkDown})
	rp.mu.Unlock()
}

// StartRetrain takes a trained link out of L0 into Retraining (a link
// flap): the endpoint stays attached, new transactions park until
// CompleteRetrain. Errors if the link is not up.
func (rp *RootPort) StartRetrain() error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	s := rp.sess.Load()
	if s == nil || s.state != LinkUp || s.endpoint == nil {
		return portErr(rp.name, "Retrain", 0, ErrLinkDown, "link not up")
	}
	next := *s
	next.state = Retraining
	rp.sess.Store(&next)
	rp.retrains.Add(1)
	return nil
}

// CompleteRetrain finishes a retrain: back to LinkUp on success, or
// LinkDown (like Detach; parked transactions fail with ErrLinkDown) on
// failure. A no-op unless the link is Retraining.
func (rp *RootPort) CompleteRetrain(up bool) {
	rp.mu.Lock()
	s := rp.sess.Load()
	if s == nil || s.state != Retraining {
		rp.mu.Unlock()
		return
	}
	if up {
		next := *s
		next.state = LinkUp
		rp.sess.Store(&next)
		rp.mu.Unlock()
		return
	}
	rp.sess.Store(&portSession{state: LinkDown})
	rp.mu.Unlock()
}

// awaitRetrain parks until a Retraining link settles: the LinkUp
// session to replay against, ErrLinkDown if training failed, or
// ErrTimeout after RetrainTimeout (the flap never ended).
func (rp *RootPort) awaitRetrain() (*portSession, error) {
	deadline := time.Now().Add(rp.cfg.Load().RetrainTimeout)
	for {
		s := rp.sess.Load()
		if s == nil || s.state == LinkDown || s.endpoint == nil {
			return nil, ErrLinkDown
		}
		if s.state == LinkUp {
			return s, nil
		}
		if time.Now().After(deadline) {
			rp.timeouts.Add(1)
			return nil, ErrTimeout
		}
		time.Sleep(5 * time.Microsecond)
	}
}

// session returns the hot-path link snapshot, or the sentinel error
// when the link is down. A Retraining link parks (bounded) and replays.
// The caller wraps the sentinel into its own PortError.
func (rp *RootPort) session() (*portSession, error) {
	s := rp.sess.Load()
	if s != nil && s.state == Retraining {
		return rp.awaitRetrain()
	}
	if s == nil || s.state != LinkUp || s.endpoint == nil {
		return nil, ErrLinkDown
	}
	return s, nil
}

// ringFor selects the VC for a transaction by address: runs of
// vcStride consecutive lines share a VC, so sustained traffic spreads
// across all NumVCs — the address-interleaved channel selection real
// memory controllers use — at no shared-counter cost.
func (rp *RootPort) ringFor(hpa uint64) *vcRing {
	return &rp.rings[(hpa/vcRunBytes)&(NumVCs-1)]
}

// moveFlit pushes one already-encoded flit through the modelled wire:
// fault injection and tracing, using the hook snapshot the transaction
// was issued with. The receiver's CRC check happens at decode; the
// caller owns the retry loop.
func (rp *RootPort) moveFlit(h *portHooks, f *Flit) {
	if h == nil {
		return
	}
	if h.fault != nil {
		*f = h.fault(*f)
	}
	if h.trace != nil {
		h.trace(*f)
	}
}

// --- MemIO: line transactions ---------------------------------------------

// ReadLine fetches the 64-byte line at hpa.
func (rp *RootPort) ReadLine(hpa uint64, out *[LineSize]byte) error {
	if !lineAligned(hpa) {
		return portErr(rp.name, "MemRd", hpa, ErrUnaligned, "unaligned")
	}
	return rp.syncTransact(OpMemRd, hpa, 0, out, nil, nil)
}

// WriteLine stores a full 64-byte line at hpa.
func (rp *RootPort) WriteLine(hpa uint64, data *[LineSize]byte) error {
	if !lineAligned(hpa) {
		return portErr(rp.name, "MemWr", hpa, ErrUnaligned, "unaligned")
	}
	return rp.syncTransact(OpMemWr, hpa, 0, nil, data, nil)
}

// writePartial issues one MemWrPtl for the sub-line [lo, lo+n) of the
// line at base.
func (rp *RootPort) writePartial(base uint64, lo int, p []byte) error {
	var data [LineSize]byte
	copy(data[lo:lo+len(p)], p)
	var mask uint64
	for i := lo; i < lo+len(p); i++ {
		mask |= 1 << uint(i)
	}
	return rp.syncTransact(OpMemWrPtl, base, mask, nil, &data, nil)
}

// --- Burst transactions --------------------------------------------------
//
// A burst moves up to MaxBurstLines cache lines under one header flit,
// mirroring CXL's all-data-flit streaming: header, N data beats, one
// completion. Every beat still crosses the modelled wire individually —
// fault injection, tracing and CRC/retry fire per flit — but the
// endpoint services the whole burst with a single HDM access, so bulk
// transfers cost O(bytes) instead of O(lines × codec round trips).
// A burst is one transaction on its VC's tag sequence: every chunk of
// it carries the same tag.
//
// Addressing semantics follow the endpoint's HDM decoder, as on real
// hardware. Through a plain decoder a burst covers the contiguous HPA
// span [hpa, hpa+len). Through an *interleaved* decoder it covers the
// next len/LineSize lines *owned by that target* starting at hpa —
// the device never sees other targets' granules, so Lines counts its
// own (see Type3Device.decodeSpan). A host talking to one leg of an
// interleave set must therefore be interleave-aware: use
// InterleaveSet, which performs the granule fan-out and hands each
// port exactly its owned lines, rather than issuing HPA-contiguous
// bursts at an interleaved window directly.

// sendHeader pushes one burst header flit over the wire with link-level
// retry — a flit corrupted in flight fails its CRC at the receiver,
// which NAKs, and the sender retransmits from its retry buffer — and
// returns the decoded form the device sees. Retries are charged to the
// issuing VC.
func (rp *RootPort) sendHeader(s *portSession, h *portHooks, r *vcRing, req *MemReq, decoded *MemReq) error {
	var f Flit
	var err error
	for attempt := 0; ; attempt++ {
		EncodeReqInto(&f, req)
		rp.moveFlit(h, &f)
		if err = DecodeReqInto(decoded, &f); err == nil {
			return nil
		}
		h.flitErr(&f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return portErr(rp.name, req.Opcode.String(), req.Addr, ErrUncorrectable, "uncorrectable link error: "+err.Error())
		}
		s.retry(r)
		rp.backoff(cfg, attempt, req.Addr)
	}
}

// moveData pushes one burst data beat (src line seq) over the wire with
// retry and lands it in dst. f is caller-owned scratch, reused across
// the beats of a burst so the wire loop does not re-zero a flit per
// line.
func (rp *RootPort) moveData(s *portSession, h *portHooks, r *vcRing, f *Flit, op MemOpcode, addr uint64, tag uint16, seq uint32, src, dst *[LineSize]byte) error {
	for attempt := 0; ; attempt++ {
		EncodeDataInto(f, tag, seq, src)
		rp.moveFlit(h, f)
		gotTag, gotSeq, err := DecodeDataInto(dst, f)
		if err == nil && gotTag == tag && gotSeq == seq {
			return nil
		}
		if err == nil {
			// A valid flit with the wrong tag/seq is a reordered delivery:
			// the sequence check NAKs it and the sender retransmits, same
			// as a CRC failure.
			err = portErr(rp.name, op.String(), addr, ErrTagMismatch, fmt.Sprintf("data flit tag/seq mismatch: sent %d/%d got %d/%d", tag, seq, gotTag, gotSeq))
		}
		h.flitErr(f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return portErr(rp.name, op.String(), addr, ErrUncorrectable, "uncorrectable link error on data flit: "+err.Error())
		}
		s.retry(r)
		rp.backoff(cfg, attempt, addr)
	}
}

// recvResp pushes one completion/response flit back over the wire with
// the same retry protection and enforces tag matching.
func (rp *RootPort) recvResp(s *portSession, h *portHooks, r *vcRing, op MemOpcode, addr uint64, tag uint16, resp *MemResp, out *MemResp) error {
	var f Flit
	var err error
	for attempt := 0; ; attempt++ {
		EncodeRespInto(&f, resp)
		rp.moveFlit(h, &f)
		if err = DecodeRespInto(out, &f); err == nil {
			if out.Tag == tag {
				return nil
			}
			// Reordered response: NAK and retransmit, like a CRC failure.
			err = portErr(rp.name, op.String(), addr, ErrTagMismatch, fmt.Sprintf("tag mismatch: sent %d got %d", tag, out.Tag))
		}
		h.flitErr(&f)
		cfg := rp.cfg.Load()
		if attempt >= cfg.MaxLinkRetries {
			s.uncorrectable()
			return portErr(rp.name, op.String(), addr, ErrUncorrectable, "uncorrectable link error: "+err.Error())
		}
		s.retry(r)
		rp.backoff(cfg, attempt, addr)
	}
}

// handleBurst dispatches a decoded burst to the endpoint: natively when
// it implements BurstHandler, otherwise line by line through HandleMem.
// The fallback preserves the native path's no-partial-effects contract:
// a write burst first probes every target line with MemRd (validating
// decode and poison) and only then writes, so a burst failing on any
// line leaves the media untouched either way.
func (rp *RootPort) handleBurst(ep Endpoint, req MemReq, payload []byte) MemResp {
	if bh, ok := ep.(BurstHandler); ok {
		return bh.HandleMemBurst(req, payload)
	}
	lines := int(req.Lines)
	if req.Opcode == OpMemWrBurst {
		for i := 0; i < lines; i++ {
			probe := MemReq{Opcode: OpMemRd, Tag: req.Tag, Addr: req.Addr + uint64(i*LineSize)}
			if resp := ep.HandleMem(probe); resp.Opcode != RespMemData {
				return MemResp{Tag: req.Tag, Opcode: resp.Opcode}
			}
		}
	}
	for i := 0; i < lines; i++ {
		var lr MemReq
		lr.Tag = req.Tag
		lr.Addr = req.Addr + uint64(i*LineSize)
		if req.Opcode == OpMemWrBurst {
			lr.Opcode = OpMemWr
			copy(lr.Data[:], payload[i*LineSize:(i+1)*LineSize])
			if resp := ep.HandleMem(lr); resp.Opcode != RespCmp {
				return MemResp{Tag: req.Tag, Opcode: resp.Opcode}
			}
		} else {
			lr.Opcode = OpMemRd
			resp := ep.HandleMem(lr)
			if resp.Opcode != RespMemData {
				return MemResp{Tag: req.Tag, Opcode: resp.Opcode}
			}
			copy(payload[i*LineSize:(i+1)*LineSize], resp.Data[:])
		}
	}
	if req.Opcode == OpMemWrBurst {
		return MemResp{Tag: req.Tag, Opcode: RespCmp}
	}
	return MemResp{Tag: req.Tag, Opcode: RespMemData}
}

// WriteBurst stores p at the line-aligned HPA hpa using burst
// transactions; len(p) must be a multiple of LineSize.
func (rp *RootPort) WriteBurst(hpa uint64, p []byte) error {
	if !lineAligned(hpa) || len(p)%LineSize != 0 {
		return portErr(rp.name, "MemWrBurst", hpa, ErrUnaligned, "unaligned burst")
	}
	if len(p) == 0 {
		return nil
	}
	return rp.syncTransact(OpMemWrBurst, hpa, 0, nil, nil, p)
}

// ReadBurst fetches len(p) bytes from the line-aligned HPA hpa using
// burst transactions; len(p) must be a multiple of LineSize.
func (rp *RootPort) ReadBurst(hpa uint64, p []byte) error {
	if !lineAligned(hpa) || len(p)%LineSize != 0 {
		return portErr(rp.name, "MemRdBurst", hpa, ErrUnaligned, "unaligned burst")
	}
	if len(p) == 0 {
		return nil
	}
	return rp.syncTransact(OpMemRdBurst, hpa, 0, nil, nil, p)
}

// writeBurstChunk moves one ≤maxBurstBytes chunk of a write burst:
// header, data beats, device, completion.
func (rp *RootPort) writeBurstChunk(s *portSession, h *portHooks, r *vcRing, tag uint16, hpa uint64, p []byte) error {
	lines := len(p) / LineSize
	req := MemReq{Opcode: OpMemWrBurst, Addr: hpa, Lines: uint16(lines), Tag: tag}
	var decoded MemReq
	if err := rp.sendHeader(s, h, r, &req, &decoded); err != nil {
		return err
	}
	buf := burstBufPool.Get().(*[maxBurstBytes]byte)
	var f Flit
	for i := 0; i < lines; i++ {
		src := (*[LineSize]byte)(p[i*LineSize:])
		dst := (*[LineSize]byte)(buf[i*LineSize:])
		if err := rp.moveData(s, h, r, &f, OpMemWrBurst, hpa, req.Tag, uint32(i), src, dst); err != nil {
			burstBufPool.Put(buf)
			return err
		}
	}
	resp := rp.handleBurst(s.endpoint, decoded, buf[:len(p)])
	burstBufPool.Put(buf)
	var out MemResp
	if err := rp.recvResp(s, h, r, OpMemWrBurst, hpa, req.Tag, &resp, &out); err != nil {
		return err
	}
	if out.Opcode != RespCmp {
		return portErr(rp.name, "MemWrBurst", hpa, ErrBadResponse, "response "+out.Opcode.String())
	}
	return nil
}

// readBurstChunk moves one ≤maxBurstBytes chunk of a read burst.
func (rp *RootPort) readBurstChunk(s *portSession, h *portHooks, r *vcRing, tag uint16, hpa uint64, p []byte) error {
	lines := len(p) / LineSize
	req := MemReq{Opcode: OpMemRdBurst, Addr: hpa, Lines: uint16(lines), Tag: tag}
	var decoded MemReq
	if err := rp.sendHeader(s, h, r, &req, &decoded); err != nil {
		return err
	}
	buf := burstBufPool.Get().(*[maxBurstBytes]byte)
	resp := rp.handleBurst(s.endpoint, decoded, buf[:len(p)])
	var out MemResp
	if err := rp.recvResp(s, h, r, OpMemRdBurst, hpa, req.Tag, &resp, &out); err != nil {
		burstBufPool.Put(buf)
		return err
	}
	if out.Opcode != RespMemData {
		burstBufPool.Put(buf)
		return portErr(rp.name, "MemRdBurst", hpa, ErrBadResponse, "response "+out.Opcode.String())
	}
	var f Flit
	for i := 0; i < lines; i++ {
		src := (*[LineSize]byte)(buf[i*LineSize:])
		dst := (*[LineSize]byte)(p[i*LineSize:])
		if err := rp.moveData(s, h, r, &f, OpMemRdBurst, hpa, req.Tag, uint32(i), src, dst); err != nil {
			burstBufPool.Put(buf)
			return err
		}
	}
	burstBufPool.Put(buf)
	return nil
}

// ReadAt copies len(p) bytes from HPA off. Unaligned heads/tails are
// handled with full-line reads; the line-aligned interior streams
// through the burst path (fanned out across VCs when large, see bulk),
// so bulk transfers cost O(bytes) instead of O(lines × codec round
// trips).
func (rp *RootPort) ReadAt(p []byte, off int64) error {
	hpa := uint64(off)
	// Unaligned head: one full-line read, copy the covered part.
	if lo := int(hpa % uint64(LineSize)); lo != 0 {
		n := LineSize - lo
		if n > len(p) {
			n = len(p)
		}
		var line [LineSize]byte
		if err := rp.ReadLine(hpa-uint64(lo), &line); err != nil {
			return err
		}
		copy(p[:n], line[lo:lo+n])
		p = p[n:]
		hpa += uint64(n)
	}
	// Line-aligned interior: one line straight into the caller's
	// buffer, or a burst.
	if n := len(p) &^ (LineSize - 1); n > 0 {
		if n == LineSize {
			if err := rp.ReadLine(hpa, (*[LineSize]byte)(p)); err != nil {
				return err
			}
		} else if err := rp.bulk(OpMemRdBurst, hpa, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	// Partial tail.
	if len(p) > 0 {
		var line [LineSize]byte
		if err := rp.ReadLine(hpa, &line); err != nil {
			return err
		}
		copy(p, line[:len(p)])
	}
	return nil
}

// WriteAt stores p at HPA off. Full interior lines stream through the
// burst path (fanned out across VCs when large, see bulk); unaligned
// head/tail lines use MemWrPtl with a byte mask, exactly as a
// write-combining host interface would.
func (rp *RootPort) WriteAt(p []byte, off int64) error {
	hpa := uint64(off)
	// Unaligned head: partial write under a mask.
	if lo := int(hpa % uint64(LineSize)); lo != 0 {
		n := LineSize - lo
		if n > len(p) {
			n = len(p)
		}
		if err := rp.writePartial(hpa-uint64(lo), lo, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	// Line-aligned interior: one line straight from the caller's
	// buffer, or a burst.
	if n := len(p) &^ (LineSize - 1); n > 0 {
		if n == LineSize {
			if err := rp.WriteLine(hpa, (*[LineSize]byte)(p)); err != nil {
				return err
			}
		} else if err := rp.bulk(OpMemWrBurst, hpa, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		hpa += uint64(n)
	}
	// Partial tail.
	if len(p) > 0 {
		if err := rp.writePartial(hpa, 0, p); err != nil {
			return err
		}
	}
	return nil
}

// bulkPartMin is the smallest share of a bulk transfer one goroutine
// moves: an interior shorter than two of these stays on the caller's
// goroutine, where a hand-off would cost more than it saves.
const bulkPartMin = 1 << 20

// bulk moves the line-aligned span p at hpa as burst transactions. A
// span of at least 2×bulkPartMin is cut into up to min(GOMAXPROCS,
// NumVCs) contiguous parts, each starting on its own VC, which move at
// once through the fan-out engine (part 0 on the caller's goroutine).
// Every part is an ordinary burst transaction on its VC, so flit
// sealing and checking, retry, hooks and telemetry are those of a
// serial burst. On failure the lowest-address failing part's error is
// returned — the error the serial burst would have stopped at.
func (rp *RootPort) bulk(op MemOpcode, hpa uint64, p []byte) error {
	k := min(len(p)/bulkPartMin, runtime.GOMAXPROCS(0), NumVCs)
	if k < 2 {
		return rp.syncTransact(op, hpa, 0, nil, nil, p)
	}
	// Part i nominally starts i/k of the way in; its start is moved
	// within one vcPeriod to the vcStride run ringFor maps to VC vc0+i.
	// Parts are ≥ bulkPartMin ≫ vcPeriod, so the starts stay ordered.
	var starts [NumVCs + 1]int
	vc0 := hpa / vcRunBytes
	for i := 1; i < k; i++ {
		nominal := hpa + uint64(i*len(p)/k)
		vc := (vc0 + uint64(i)) % NumVCs
		starts[i] = int(nominal&^(vcPeriod-1) + vc*vcRunBytes - hpa)
	}
	starts[k] = len(p)
	c := newFanCall()
	for i := range c.parts[:k] {
		c.parts[i] = fanPart{run: bulkPart, rp: rp, write: op == OpMemWrBurst,
			hpa: hpa + uint64(starts[i]), p: p[starts[i]:starts[i+1]]}
	}
	return c.run(k)
}

// bulkPart is a bulk transfer's fan-out part: one VC's contiguous share.
func bulkPart(pt *fanPart) error {
	op := OpMemRdBurst
	if pt.write {
		op = OpMemWrBurst
	}
	return pt.rp.syncTransact(op, pt.hpa, 0, nil, nil, pt.p)
}
