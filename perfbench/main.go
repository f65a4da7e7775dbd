// Command perfbench is the repository's end-to-end benchmark: four
// closed-loop workloads over the simulated CXL-PMem machine (STREAM-PMem,
// pmem transactions, striped checkpoint/restart and the memtier policy
// daemon), each driven through the public constructors, with its output
// verified. A traced run (--trace 1) wraps each layer boundary and
// reports per-layer metrics instead. See README.md.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cxlpmem/perfbench/spans"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed in the text report only
}

// sizes fixes a workload's inputs. Defaults are the benchmark's; tests
// shrink them.
type sizes struct {
	streamN      int   // float64 elements per STREAM array
	txPool       int64 // pmem-tx pool bytes
	txObjects    int   // pmem-tx objects of txObjSize bytes
	ckptPool     int64 // ckpt-restart pool bytes
	ckptState    int   // ckpt-restart application state bytes
	tierPages    int   // memtier-zipf pages (2 MiB each)
	epochEvery   int   // memtier-zipf accesses per policy epoch
	modelHorizon int   // memtier-zipf epoch at which simulated stats are taken
	setupReps    int   // set-ups timed for setup_s
}

var defaultSizes = sizes{
	streamN:      8 << 20,
	txPool:       64 << 20,
	txObjects:    16 << 10,
	ckptPool:     96 << 20,
	ckptState:    16 << 20,
	tierPages:    16,
	epochEvery:   2000,
	modelHorizon: 40,
	setupReps:    5,
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // span log and record directory
	// maxOps, when > 0, ends the run after that many ops per client
	// instead of after seconds (tests only).
	maxOps int64
	// corrupt flips one byte of the workload's output just before its
	// correctness gate (tests only).
	corrupt bool
}

// workloadSpec names a workload and how to build it.
type workloadSpec struct {
	name string
	// tailQ is the fixed tail percentile for lat_tail_us: the highest
	// one with at least ten samples beyond it in a default-length run
	// that still repeats from run to run. On pmem-tx that is p99: p99.9
	// reads the shared host's scheduler stalls (0.4 to 1.4 ms across
	// four seeds on the reference machine, against p99 within 3 %).
	tailQ float64
	build func(cfg *config, tr *tracer) (bench, error)
}

var workloads = []workloadSpec{
	{"stream-pmem", 0.80, newStreamBench},
	{"pmem-tx", 0.99, newTxBench},
	{"ckpt-restart", 0.80, newCkptBench},
	{"memtier-zipf", 0.9999, newTierBench},
}

func findWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{sz: defaultSizes, outDir: ".bench_build"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traceN := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *traceN == 1
	if err := run(&cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and prints the report, ending with the
// result line.
func run(cfg *config, out io.Writer) error {
	spec, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if cfg.trace {
		return runTraced(cfg, spec, out)
	}
	return runTimed(cfg, spec, out)
}

// setup builds the bench cfg.sz.setupReps times, keeping the last, and
// returns the median set-up time.
func setup(cfg *config, spec workloadSpec) (bench, float64, error) {
	var times []float64
	var b bench
	for i := 0; i < max(1, cfg.sz.setupReps); i++ {
		b = nil
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		nb, err := spec.build(cfg, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

func runTimed(cfg *config, spec workloadSpec, out io.Writer) error {
	b, setupS, err := setup(cfg, spec)
	if err != nil {
		return err
	}
	ls := runLoop(b, nil, seconds(cfg.seconds), cfg.maxOps)
	gateErr := gateAll(cfg, b, nil)
	payload, extra := b.report(ls)
	modelRate, _ := b.model()

	attempted, failed := ls.ops+ls.failed+1, ls.failed
	if gateErr != nil {
		failed++
	}
	tail := ls.lat.quantile(spec.tailQ)
	ms := []metric{
		{name: "setup_s", value: setupS, unit: "s", note: fmt.Sprintf("median of %d set-ups", max(1, cfg.sz.setupReps))},
		{name: "ops_per_s", value: ls.opsPerSec(), unit: "1/s"},
		{name: "lat_p50_us", value: ls.lat.quantile(0.5) / 1e3, unit: "us", note: fmt.Sprintf("n=%d", ls.lat.n)},
		{name: "lat_tail_us", value: tail / 1e3, unit: "us",
			note: fmt.Sprintf("p%s, n=%d, %d beyond", pct(spec.tailQ), ls.lat.n, ls.lat.beyond(spec.tailQ))},
		{name: "ok_frac", value: float64(attempted-failed) / float64(attempted), unit: "frac",
			note: "1 - fail_frac; the end-of-run gate counts as one attempt"},
		{name: "mem_MiB", value: peakSysMiB(), unit: "MiB", note: "Go runtime Sys"},
		{name: "payload_GBps", value: payload, unit: "GB/s"},
		{name: "model_GBps", value: modelRate, unit: "GB/s-sim", note: "SIMULATED (internal/perf)"},
	}
	text := append([]metric{{name: "fail_frac", value: float64(failed) / float64(attempted), unit: "frac"}}, extra...)
	if ls.lat.beyond(spec.tailQ) < 10 {
		fmt.Fprintf(out, "warning: only %d samples beyond p%s; run longer for a stable lat_tail_us\n", ls.lat.beyond(spec.tailQ), pct(spec.tailQ))
	}
	return finishReport(cfg, out, ms, text, ls, gateErr, attempted, failed)
}

// runTraced measures the workload twice, each for half the run: first
// untraced, then traced with fresh set-up, so the ratio of the two
// ops_per_s is the tracing overhead. Per-layer metrics come from the
// traced half.
func runTraced(cfg *config, spec workloadSpec, out io.Writer) error {
	half := seconds(cfg.seconds / 2)
	plain, err := spec.build(cfg, nil)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	base := runLoop(plain, nil, half, cfg.maxOps)
	plain = nil
	runtime.GC()
	debug.FreeOSMemory()

	tr := newTracer()
	b, err := spec.build(cfg, tr)
	if err != nil {
		return fmt.Errorf("%s traced set-up: %w", spec.name, err)
	}
	setupMs := float64(tr.setupNs) / 1e6
	c0 := b.counters()
	ls := runLoop(b, tr, half, cfg.maxOps)
	c1 := b.counters()
	gateErr := gateAll(cfg, b, tr)
	if tr.err != nil && gateErr == nil {
		gateErr = tr.err
	}

	opsSum, gateSum := tr.summary("op"), tr.summary("gate")
	for root, sum := range map[string]*spans.Summary{"op": opsSum, "gate": gateSum} {
		if err := sum.Check(); err != nil && gateErr == nil {
			gateErr = fmt.Errorf("%s spans: %w", root, err)
		}
	}
	d := c1.sub(c0)
	d.modelAccessNs = b.counters().modelAccessNs // the gate runs on to the model horizon
	ms := layerMetrics(layerInput{
		ops: opsSum, gate: gateSum, d: d, nOps: ls.ops + ls.failed,
		setupMs: setupMs, updates: &tr.updates, tailQ: spec.tailQ,
	})
	ms = append(ms,
		metric{name: "trace.ops_per_s", value: ls.opsPerSec(), unit: "1/s", note: "traced half"},
		metric{name: "trace.untraced_ops_per_s", value: base.opsPerSec(), unit: "1/s", note: "untraced half"},
		metric{name: "trace.ops_ratio", value: div(ls.opsPerSec(), base.opsPerSec()), unit: "ratio",
			note: "traced / untraced ops_per_s: the tracing overhead"},
	)
	path, werr := tr.write(filepath.Join(cfg.outDir, "spans"), fmt.Sprintf("%s-seed%d.tsv", spec.name, cfg.seed))
	if werr != nil {
		return werr
	}
	fmt.Fprintf(out, "spans: %s (summarise with: cd perfbench && go run ./cmd/spansum ../%s)\n", path, path)
	opsSum.Print(out)

	attempted, failed := ls.ops+ls.failed+base.ops+base.failed+1, ls.failed+base.failed
	if gateErr != nil {
		failed++
	}
	if base.firstErr != nil && ls.firstErr == nil {
		ls.firstErr = base.firstErr
	}
	return finishReport(cfg, out, ms, nil, ls, gateErr, attempted, failed)
}

// gateAll runs the workload's correctness gate, corrupting its output
// first when the test hook asks.
func gateAll(cfg *config, b bench, tr *tracer) error {
	if cfg.corrupt {
		if err := b.corrupt(); err != nil {
			return fmt.Errorf("corrupting: %w", err)
		}
	}
	if err := checkModel(b.model()); err != nil {
		return err
	}
	return gate(b, tr)
}

func finishReport(cfg *config, out io.Writer, ms, text []metric, ls *loopStats, gateErr error,
	attempted, failed int64) error {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, m := range append(append([]metric{}, ms...), text...) {
		line := fmt.Sprintf("metric %-28s %16.6g %-9s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Fprintln(out, strings.TrimRight(line, " "))
	}
	if ls.firstErr != nil {
		fmt.Fprintf(out, "first op error: %v\n", ls.firstErr)
	}
	if gateErr != nil {
		fmt.Fprintf(out, "correctness gate FAILED: %v\n", gateErr)
	} else {
		fmt.Fprintln(out, "correctness gate passed")
	}

	res := result{Correct: failed == 0 && gateErr == nil, Attempted: attempted, Failed: failed,
		Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	rec := newRecord(cfg, ms, text, res)
	recLine, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "record %s\n", recLine)
	if err := writeRecord(cfg, recLine); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", last)
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pct renders a quantile as a percentile label: 0.999 -> "99.9".
func pct(q float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", 100*q), "0"), ".")
}
