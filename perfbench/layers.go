package main

import (
	"cxlpmem/perfbench/spans"
)

// layerInput is what a traced run measured.
type layerInput struct {
	ops, gate *spans.Summary // span summaries of the timed ops and of the gate
	d         counters       // program counters over the timed ops
	nOps      int64
	setupMs   float64
	updates   *hist // pmem.update durations
	tailQ     float64
}

// layerMetrics derives the per-layer metrics. A layer the workload does
// not exercise reports 0.
func layerMetrics(in layerInput) []metric {
	ops := float64(max(in.nOps, 1))
	name := func(n string) spans.Stats { return in.ops.Name(n) }
	// Pool opens happen per op on ckpt-restart and only in the gate on
	// the other pool workloads.
	openName := func(n string) spans.Stats {
		if st := in.ops.Name(n); st.Calls > 0 {
			return st
		}
		return in.gate.Name(n)
	}
	meanMs := func(st spans.Stats) float64 { return div(float64(st.Total), float64(st.Calls)) / 1e6 }
	meanUs := func(st spans.Stats) float64 { return div(float64(st.Total), float64(st.Calls)) / 1e3 }
	gbps := func(st spans.Stats) float64 { return div(float64(st.Bytes), float64(st.Total)) }
	sum := func(a, b spans.Stats) spans.Stats {
		return spans.Stats{Calls: a.Calls + b.Calls, Bytes: a.Bytes + b.Bytes, Total: a.Total + b.Total, Self: a.Self + b.Self}
	}

	kernel := name("stream.execute")
	update := name("pmem.update")
	persist := name("pmem.persist")
	pwFull, pwPart := name("pmemfs.write"), name("pmemfs.write_partial")
	pw := sum(pwFull, pwPart)
	pr := name("pmemfs.read")
	cw, cr := name("cxl.write"), name("cxl.read")
	d := in.d

	legMax, legSum := int64(0), int64(0)
	for _, v := range d.legIssued {
		legMax = max(legMax, v)
		legSum += v
	}
	legSkew := 0.0
	if legSum > 0 {
		legSkew = float64(legMax) / (float64(legSum) / float64(len(d.legIssued)))
	}

	return []metric{
		{name: "stream.kernel_ms", value: float64(kernel.Total) / ops / 1e6, unit: "ms", note: "four kernels per op"},
		{name: "stream.kernel_GBps", value: gbps(kernel), unit: "GB/s"},

		{name: "core.setup_ms", value: in.setupMs, unit: "ms", note: "core.NewSetup1"},
		{name: "core.openpool_ms", value: meanMs(openName("core.openpool")), unit: "ms"},

		{name: "pmem.update_p50_us", value: in.updates.quantile(0.5) / 1e3, unit: "us"},
		{name: "pmem.update_tail_us", value: in.updates.quantile(in.tailQ) / 1e3, unit: "us", note: "p" + pct(in.tailQ)},
		{name: "pmem.update_self_us", value: div(float64(update.Self), float64(update.Calls)) / 1e3, unit: "us"},
		{name: "pmem.persist_ms", value: meanMs(persist), unit: "ms"},
		{name: "pmem.persist_GBps", value: gbps(persist), unit: "GB/s"},
		{name: "pmem.open_ms", value: meanMs(openName("pmem.open")), unit: "ms"},
		{name: "pmem.persists_per_op", value: float64(d.persists) / ops, unit: "count"},
		{name: "pmem.drains_per_op", value: float64(d.drains) / ops, unit: "count"},
		{name: "pmem.tx_commits", value: float64(d.commits), unit: "count"},
		{name: "pmem.tx_aborts", value: float64(d.aborts), unit: "count"},

		{name: "checkpoint.save_ms", value: meanMs(name("checkpoint.save")), unit: "ms"},
		{name: "checkpoint.latest_ms", value: meanMs(name("checkpoint.latest")), unit: "ms"},
		{name: "checkpoint.reuse_frac", value: div(float64(d.reused), float64(d.chunks)), unit: "frac"},
		{name: "checkpoint.restart_ms", value: div(float64(d.restartNs), float64(d.restarts)) / 1e6, unit: "ms",
			note: "crash -> verified Latest"},

		{name: "pmemfs.write_us", value: meanUs(pw), unit: "us"},
		{name: "pmemfs.read_us", value: meanUs(pr), unit: "us"},
		{name: "pmemfs.writes_per_op", value: float64(pw.Calls) / ops, unit: "count"},
		{name: "pmemfs.write_bytes_per_op", value: float64(pw.Bytes) / ops, unit: "B"},
		{name: "pmemfs.read_bytes_per_op", value: float64(pr.Bytes) / ops, unit: "B"},
		{name: "pmemfs.partial_write_frac", value: div(float64(pwPart.Calls), float64(pw.Calls)), unit: "frac"},

		{name: "cxl.write_us", value: meanUs(cw), unit: "us"},
		{name: "cxl.read_us", value: meanUs(cr), unit: "us"},
		{name: "cxl.write_GBps", value: gbps(cw), unit: "GB/s"},
		{name: "cxl.read_GBps", value: gbps(cr), unit: "GB/s"},
		{name: "cxl.issued_per_op", value: float64(d.issued) / ops, unit: "count"},
		{name: "cxl.lines_per_doorbell", value: div(float64(d.issued), float64(d.doorbells)), unit: "count"},
		{name: "cxl.retries", value: float64(d.retries), unit: "count"},
		{name: "cxl.timeouts", value: float64(d.timeouts), unit: "count"},
		{name: "cxl.cq_overflows", value: float64(d.cqOverflows), unit: "count"},
		{name: "cxl.leg_skew", value: legSkew, unit: "ratio", note: "max/mean Issued over the node's ports"},

		{name: "memdev.bytes_written_per_op", value: float64(d.mediaWritten) / ops, unit: "B"},
		{name: "memdev.bytes_read_per_op", value: float64(d.mediaRead) / ops, unit: "B"},
		{name: "memdev.write_amp", value: div(float64(d.mediaWritten), float64(d.userBytes)), unit: "ratio",
			note: "media bytes written / bytes the workload wrote"},

		{name: "tiering.access_us", value: meanUs(sum(name("tiering.read"), name("tiering.write"))), unit: "us"},
		{name: "tiering.epoch_ms", value: meanMs(name("tiering.epoch")), unit: "ms"},
		{name: "tiering.migrated_MiB", value: float64(d.migrated) / (1 << 20), unit: "MiB"},
		{name: "tiering.promotions", value: float64(d.promotions), unit: "count"},
		{name: "tiering.demotions", value: float64(d.demotions), unit: "count"},
		{name: "tiering.deferred_frac", value: div(float64(d.deferred), float64(d.deferred+d.moved)), unit: "frac",
			note: "deferred / candidate moves"},
		{name: "tiering.fast_hit_frac", value: div(float64(d.fastHits), float64(d.accesses)), unit: "frac",
			note: "accesses served from DDR5"},
		{name: "tiering.model_access_ns", value: d.modelAccessNs, unit: "ns-sim", note: "SIMULATED, at the model horizon"},
	}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
