package main

import (
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
	o := options{seeds: []int64{1, 2}, pairs: 2}
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
	ratios, iqr := pairRatios(o, runs, "w", "m", 1)
	if !slices.Equal(ratios, []float64{0.9, 1, 1.1}) || iqr != 0 {
		t.Errorf("ratios %v, IQR %v; want [0.9 1 1.1], 0", ratios, iqr)
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
