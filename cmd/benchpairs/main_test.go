package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRotation(t *testing.T) {
	for k, want := range [][]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 1, 2}} {
		if got := rotation(3, k); !slices.Equal(got, want) {
			t.Errorf("rotation(3, %d) = %v, want %v", k, got, want)
		}
	}
}

// TestVerdict pins the written rule: nine in ten pairs on one side and a
// median move beyond the parent's IQR.
func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		ratios []float64
		iqr    float64
		better string
		want   string
	}{
		{[]float64{1.02, 1.03, 1.04}, 0.01, "higher", "**better**"},
		{[]float64{1.02, 1.03, 1.04}, 0.05, "higher", "unresolved"}, // inside the parent's spread
		{[]float64{0.99, 1.03, 1.04}, 0.01, "higher", "unresolved"}, // a pair lost
		{[]float64{1.02, 1.03, 1.04}, 0.01, "lower", "**worse**"},
		{[]float64{1, 1}, 0, "lower", "same"},
		{[]float64{0.98, 1.01, 1.02, 1.02, 1.03, 1.03, 1.04, 1.04, 1.05, 1.05}, 0.01, "higher", "**better**"}, // 9 of 10
	} {
		slices.Sort(c.ratios)
		if got := verdict(c.ratios, quantile(c.ratios, 0.5), c.iqr, c.better); got != c.want {
			t.Errorf("verdict(%v, iqr %v, %s) = %s, want %s", c.ratios, c.iqr, c.better, got, c.want)
		}
	}
}

// TestPairRatios: a ratio per pair in which both sides completed, and the
// parent's relative IQR taken per seed, so a metric that differs between
// seeds but not between runs of one seed has none.
func TestPairRatios(t *testing.T) {
	runs := []run{
		{workload: "w", seed: 1, pair: 0, rev: 0, metrics: map[string]float64{"m": 100}},
		{workload: "w", seed: 1, pair: 0, rev: 1, metrics: map[string]float64{"m": 110}},
		{workload: "w", seed: 1, pair: 1, rev: 0, metrics: map[string]float64{"m": 100}},
		{workload: "w", seed: 1, pair: 1, rev: 1}, // failed: no pair
		{workload: "w", seed: 2, pair: 0, rev: 0, metrics: map[string]float64{"m": 200}},
		{workload: "w", seed: 2, pair: 0, rev: 1, metrics: map[string]float64{"m": 200}},
		{workload: "w", seed: 2, pair: 1, rev: 0, metrics: map[string]float64{"m": 200}},
		{workload: "w", seed: 2, pair: 1, rev: 1, metrics: map[string]float64{"m": 180}},
	}
	ratios, iqr := pairRatios([]int64{1, 2}, 2, runs, "w", "m", 1)
	if !slices.Equal(ratios, []float64{0.9, 1, 1.1}) || iqr != 0 {
		t.Errorf("ratios %v, IQR %v; want [0.9 1 1.1], 0", ratios, iqr)
	}
	if ratios, _ := pairRatios([]int64{2}, 2, runs, "w", "m", 1); !slices.Equal(ratios, []float64{0.9, 1}) {
		t.Errorf("seed 2's ratios %v, want [0.9 1]", ratios)
	}
}

func TestFingerprintMismatches(t *testing.T) {
	revs := []rev{{name: "a"}, {name: "b"}}
	runs := []run{
		{workload: "w", seed: 1, rev: 0, fingerprints: []string{"f1", "f1"}},
		{workload: "w", seed: 1, rev: 1, fingerprints: []string{"f1", "f2"}},
		{workload: "w", seed: 2, rev: 0, fingerprints: []string{"g"}},
		{workload: "w", seed: 2, rev: 1, fingerprints: []string{"g"}},
	}
	o := options{workloads: []string{"w"}, seeds: []int64{1, 2}}
	if bad := fingerprintMismatches(o, revs, runs); len(bad) != 1 || !strings.Contains(bad[0], "seed 1: b reads sim_fingerprint f2, a read f1") {
		t.Errorf("mismatches %q", bad)
	}
	o.fpMayDiffer = []string{"w"}
	if bad := fingerprintMismatches(o, revs, runs); len(bad) != 0 {
		t.Errorf("mismatches %q where the workload may differ", bad)
	}
}

// TestReportRowsPerSeed: with two seeds every metric gets a pooled row and
// one row per seed, each with its own pairs, ratios and verdict; with one
// seed, the one row.
func TestReportRowsPerSeed(t *testing.T) {
	var runs []run
	for _, seed := range []int64{1, 2} {
		for p := 0; p < 3; p++ {
			change := 120.0 // seed 1: the change wins every pair
			if seed == 2 {
				change = 99 // seed 2: it loses every pair
			}
			runs = append(runs,
				run{workload: "w", seed: seed, pair: p, rev: 0, metrics: map[string]float64{"ops_per_s": 100 + float64(p)/100}},
				run{workload: "w", seed: seed, pair: p, rev: 1, metrics: map[string]float64{"ops_per_s": change}})
		}
	}
	revs := []rev{{name: "a"}, {name: "b"}}
	metrics := []metric{{Name: "ops_per_s", Better: "higher"}}
	var b strings.Builder
	report(&b, options{workloads: []string{"w"}, seeds: []int64{1, 2}, pairs: 3}, revs, metrics, runs)
	for _, want := range []string{
		"| `ops_per_s` | all | 100.01 | 109.5 | 1.095× | 3/6 |",
		"| `ops_per_s` | 1 | 100.01 | 120 | 1.200× | 3/3 | 1.200 | 1.200 | 0.0 % | **better** |",
		"| `ops_per_s` | 2 | 100.01 | 99 | 0.990× | 0/3 | 0.990 | 0.990 | 0.0 % | **worse** |",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("report lacks the row %q:\n%s", want, b.String())
		}
	}
	b.Reset()
	report(&b, options{workloads: []string{"w"}, seeds: []int64{2}, pairs: 3}, revs, metrics, runs)
	if n := strings.Count(b.String(), "| `ops_per_s` |"); n != 1 || !strings.Contains(b.String(), "| `ops_per_s` | 2 |") {
		t.Errorf("one seed: %d rows, want the one row of seed 2:\n%s", n, b.String())
	}
}

// tracesText is a `go tool pprof -traces` output in miniature: a header, a
// labelled sample, and one sample per rule of the fold.
const tracesText = `File: core.test
Type: cpu
Duration: 2s, Total samples = 1.20s (60.00%)
-----------+-------------------------------------------------------
    thread:  7
      40ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             runtime.mallocgcSmallNoscan
             runtime.mallocgc
             runtime.newobject
             demosmp/internal/kernel.(*Kernel).getProcRec
-----------+-------------------------------------------------------
     1.10s   demosmp/internal/kernel.(*Kernel).runSlice
             demosmp/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
      10ms   runtime.nextFreeFast (inline)
             a.f1
             a.f2
             a.f3
             a.f4
             a.f5
             runtime.mallocgc
             demosmp/internal/sim.(*Engine).At
-----------+-------------------------------------------------------
     500us   demosmp/internal/workload.(*Job).Step
             demosmp/internal/kernel.(*Kernel).runSlice
-----------+-------------------------------------------------------
     500us   demosmp/internal/core_test.BenchmarkOpenLoopScale.func1
             testing.(*B).runN
-----------+-------------------------------------------------------
      29ms   runtime.futex
             runtime.notesleep
-----------+-------------------------------------------------------
`

// TestFold pins the fold's rules on tracesText: GC by any frame of a
// collector root, malloc only within the six innermost frames, else the
// innermost module package (workload as bodies, a test package as the
// package it tests), else rest; and the table's rows and shares.
func TestFold(t *testing.T) {
	got, err := parseTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"GC": 0.040, "malloc": 0.020, "kernel": 1.100, "sim": 0.010, "bodies": 0.0005, "core": 0.0005, "rest": 0.029}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-9 {
			t.Errorf("layer %s: %v s, want %v", l, got[l], v)
		}
	}
	for fn, path := range map[string]string{
		"demosmp/internal/kernel.(*Kernel).runSlice": "demosmp/internal/kernel",
		"demosmp.New": "demosmp",
		"demosmp/internal/kernel.freelist[go.shape.struct { a/b.c }].get": "demosmp/internal/kernel",
		"runtime.mallocgc": "runtime",
	} {
		if got := pkgPath(fn); got != path {
			t.Errorf("pkgPath(%q) = %q, want %q", fn, got, path)
		}
	}
	f := filepath.Join(t.TempDir(), "a.txt")
	if err := os.WriteFile(f, []byte(tracesText), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := foldFiles(&b, []string{f, f}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2+len(want)+1 || !strings.HasPrefix(lines[2], "| `kernel` | 1.10 s (91.7 %) | 1.10 s (91.7 %) |") ||
		!strings.HasPrefix(lines[len(lines)-2], "| rest |") || lines[len(lines)-1] != "| total | 1.20 s | 1.20 s |" {
		t.Errorf("fold table:\n%s", b.String())
	}
}
