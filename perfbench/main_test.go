package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cxlpmem/perfbench/spans"
)

// tinySizes keep every workload to a fraction of a second.
var tinySizes = sizes{
	streamN:      64 << 10,
	txPool:       4 << 20,
	txObjects:    512,
	ckptPool:     8 << 20,
	ckptState:    256 << 10,
	tierPages:    16,
	epochEvery:   200,
	modelHorizon: 5,
	setupReps:    1,
}

func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) *config {
	maxOps := int64(30)
	if workload == "memtier-zipf" {
		maxOps = 1200 // past the model horizon: 5 epochs of 200 accesses
	}
	return &config{workload: workload, seed: seed, seconds: 30, trace: trace, sz: tinySizes,
		outDir: t.TempDir(), maxOps: maxOps}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadDeclared(t *testing.T) declared {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func runCapture(t *testing.T, cfg *config) (string, result) {
	t.Helper()
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", cfg.workload, err)
	}
	return out.String(), res
}

// Every declared workload runs at tiny size, passes its gate, and prints
// every declared metric with its unit, in the text report and as exactly
// the result line's metric set.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workload), len(workloads))
	}
	for _, w := range d.Workload {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			cfg := tinyConfig(t, w.Name, 1, trace)
			text, res := runCapture(t, cfg)
			if trace {
				checkSpanFile(t, filepath.Join(cfg.outDir, "spans", w.Name+"-seed1.tsv"))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, text)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(text, "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: text report lacks %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// checkSpanFile re-reads a written span log the way cmd/spansum does and
// requires its checks to pass.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := map[string]*spans.Summary{}
	err = spans.Read(f, func(op []spans.Span) error {
		if sums[op[0].Name] == nil {
			sums[op[0].Name] = spans.NewSummary()
		}
		return sums[op[0].Name].Add(op)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sums["op"] == nil || sums["op"].Ops == 0 || sums["gate"] == nil {
		t.Fatalf("%s: span log lacks ops or the gate", path)
	}
	for root, s := range sums {
		if err := s.Check(); err != nil {
			t.Errorf("%s %s: %v", path, root, err)
		}
	}
}

// One corrupted byte of each workload's output trips its gate.
func TestCorruptionTripsGate(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w.name, 1, false)
		cfg.corrupt = true
		text, res := runCapture(t, cfg)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted run reported correct=%v failed=%d\n%s", w.name, res.Correct, res.Failed, text)
		}
	}
}

// inputs returns what a seed generated for a bench.
func inputs(b bench) []byte {
	switch b := b.(type) {
	case *streamBench:
		return float64Bytes([]float64{b.scalar})
	case *txBench:
		return b.shadow
	case *ckptBench:
		return b.state
	case *tierBench:
		return append(append([]byte{}, b.shadow...), float64Bytes(intsToFloats(b.perm))...)
	}
	return nil
}

func intsToFloats(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// The same seed gives the same inputs; another seed gives others.
func TestSeedsDriveInputs(t *testing.T) {
	for _, w := range workloads {
		build := func(seed uint64) []byte {
			b, err := w.build(tinyConfig(t, w.name, seed, false), nil)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return inputs(b)
		}
		a, again, other := build(1), build(1), build(2)
		if len(a) == 0 || !bytes.Equal(a, again) {
			t.Errorf("%s: seed 1 did not reproduce its inputs", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 1 and 2 produced the same inputs", w.name)
		}
	}
}

// Simulated statistics repeat exactly for a seed: the memtier model
// horizon (model_access_ns, promotions, demotions, migrated and media
// bytes) and the media byte counts of the single-goroutine ckpt-restart
// over a fixed number of ops.
func TestSimulatedStatsRepeat(t *testing.T) {
	horizon := func() tierHorizon {
		cfg := tinyConfig(t, "memtier-zipf", 7, false)
		b, err := newTierBench(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		runLoop(b, nil, 0, 1200)
		tb := b.(*tierBench)
		if tb.atHorizon == nil {
			t.Fatal("run ended before the model horizon")
		}
		return *tb.atHorizon
	}
	h1, h2 := horizon(), horizon()
	if h1 != h2 || h1.modelAccessNs == 0 || h1.migrated == 0 {
		t.Errorf("memtier horizon differs or is empty:\n%+v\n%+v", h1, h2)
	}

	media := func() counters {
		b, err := newCkptBench(tinyConfig(t, "ckpt-restart", 7, false), nil)
		if err != nil {
			t.Fatal(err)
		}
		if ls := runLoop(b, nil, 0, 6); ls.failed != 0 {
			t.Fatal(ls.firstErr)
		}
		c := b.counters()
		return counters{mediaWritten: c.mediaWritten, mediaRead: c.mediaRead, legIssued: c.legIssued}
	}
	if c1, c2 := media(), media(); !reflect.DeepEqual(c1, c2) || c1.mediaWritten == 0 {
		t.Errorf("ckpt-restart media counters differ or are empty: %+v vs %+v", c1, c2)
	}
}

func TestCheckModel(t *testing.T) {
	for _, w := range workloads {
		b, err := w.build(tinyConfig(t, w.name, 1, false), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkModel(b.model()); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if err := checkModel(1, 1); err == nil {
		t.Error("a model rate off the fig 8 value passed")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 1e6
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("q%.3f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
	if b := h.beyond(0.999); b != 100 {
		t.Errorf("beyond(0.999) = %d, want 100", b)
	}
}
