package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is the full result of one run, with the machine it ran on.
type record struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Metrics     map[string]float64 `json:"metrics"`
	Units       map[string]string  `json:"units"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
}

type fingerprint struct {
	CPU        string `json:"cpu"`
	L3         string `json:"cpu_cache"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	// CopyGBps is a plain copy() over two STREAM-array-sized buffers,
	// counted as STREAM counts Copy (read + write bytes). Context for
	// comparing records across machines; not gated.
	CopyGBps      float64 `json:"copy_calibration_GBps"`
	StreamArrayMB float64 `json:"stream_array_MiB"`
}

func newRecord(cfg *config, ms, text []metric, res result) record {
	r := record{
		Fingerprint: machineFingerprint(cfg),
		Workload:    cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]float64{}, Units: map[string]string{},
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
	}
	for _, m := range append(append([]metric{}, ms...), text...) {
		r.Metrics[m.name] = m.value
		r.Units[m.name] = m.unit
	}
	return r
}

func writeRecord(cfg *config, line []byte) error {
	dir := filepath.Join(cfg.outDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), append(line, '\n'), 0o644)
}

func machineFingerprint(cfg *config) fingerprint {
	fp := fingerprint{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        gitCommit("."),
		SourceHash:    sourceHash("."),
		StreamArrayMB: float64(cfg.sz.streamN*8) / (1 << 20),
	}
	fp.CPU, fp.L3 = cpuInfo()
	fp.CopyGBps = copyCalibration(cfg.sz.streamN * 8)
	return fp
}

// cpuInfo reads the model name and cache size of the first CPU.
func cpuInfo() (model, cache string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH, "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() && (model == "" || cache == "") {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			model = strings.TrimSpace(v)
		case "cache size":
			cache = strings.TrimSpace(v)
		}
	}
	return model, cache
}

// gitCommit resolves HEAD from a .git directory under root, reading the
// files directly. A checkout without git metadata reports "none"; the
// source hash then identifies the code.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	if _, err := os.Stat(gitDir); err != nil {
		gitDir = filepath.Join(root, "..", ".git") // run from the perfbench directory
	}
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "none"
}

// sourceHash digests every .go file and go.mod under root, skipping
// hidden directories such as .git and .bench_build.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// copyCalibration returns the best of five plain copies of n bytes.
func copyCalibration(n int) float64 {
	src, dst := make([]byte, n), make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	best := 0.0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		copy(dst, src)
		if gbps := float64(2*n) / float64(time.Since(t0).Nanoseconds()); gbps > best {
			best = gbps
		}
	}
	return best
}
