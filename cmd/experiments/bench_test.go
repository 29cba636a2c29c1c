package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  floorRow
		ok   bool
		want string // the whole verdict line
	}{
		{"at floor", floorRow{measured: 0.25, floor: 0.25, unit: "%.2fx"}, true, "PASS 0.25x >= 0.25x"},
		{"above", floorRow{measured: 35080, floor: 5000, unit: "%.0f/s"}, true, "PASS 35080/s >= 5000/s"},
		{"below", floorRow{measured: 0.2499, floor: 0.25, unit: "%.4fx"}, false, "FAIL 0.2499x < 0.2500x"},
		{"NaN", floorRow{measured: math.NaN(), floor: 0.25, unit: "%.2fx"}, false, "FAIL NaNx is not a positive finite measurement"},
		{"+Inf", floorRow{measured: math.Inf(1), floor: 3, unit: "%.2fx"}, false, "FAIL +Infx is not a positive finite measurement"},
		{"-Inf", floorRow{measured: math.Inf(-1), floor: 3, unit: "%.2fx"}, false, "FAIL -Infx is not a positive finite measurement"},
		{"zero", floorRow{measured: 0, floor: 3, unit: "%.2fx"}, false, "FAIL 0.00x is not a positive finite measurement"},
		{"negative", floorRow{measured: -1, floor: 3, unit: "%.2fx"}, false, "FAIL -1.00x is not a positive finite measurement"},
	} {
		line, ok := tc.row.verdict()
		if ok != tc.ok || line != tc.want {
			t.Errorf("%s: verdict = %q, %v; want %q, %v", tc.name, line, ok, tc.want, tc.ok)
		}
	}
}

// TestSpeedupGate pins the floor per core count: 3x for 4 shards from 4
// cores up, "not slower than one shard" for 2 shards below — a verdict on
// every host.
func TestSpeedupGate(t *testing.T) {
	for _, tc := range []struct {
		ratio  float64
		numCPU int
		ok     bool
		name   string
		prefix string
	}{
		{3.0, 4, true, "4 shards vs 1", "PASS 3.00x"},
		{2.99, 8, false, "4 shards vs 1", "FAIL 2.99x < 3.00x"},
		{math.Inf(1), 8, false, "4 shards vs 1", "FAIL +Infx"},
		{notSlowerFloor, 3, true, "2 shards vs 1", "PASS 0.70x >= 0.70x"},
		{1.4, 2, true, "2 shards vs 1", "PASS 1.40x >= 0.70x"},
		{0.69, 2, false, "2 shards vs 1", "FAIL 0.69x < 0.70x"},
		{0.5, 1, false, "2 shards vs 1", "FAIL 0.50x < 0.70x"},
		{math.NaN(), 2, false, "2 shards vs 1", "FAIL NaNx"},
	} {
		row := speedupGate(tc.ratio, tc.numCPU)
		line, ok := row.verdict()
		if ok != tc.ok || !strings.HasPrefix(line, tc.prefix) || !strings.Contains(row.name, tc.name) {
			t.Errorf("speedupGate(%v, %d) = %q: %q, %v; want %q: %q..., %v",
				tc.ratio, tc.numCPU, row.name, line, ok, tc.name, tc.prefix, tc.ok)
		}
	}
}

func TestJudgeCountsFailedRows(t *testing.T) {
	rows := []floorRow{
		{name: "a", measured: 1, floor: 1, unit: "%.0f"},
		{name: "b", measured: 0.5, floor: 1, unit: "%.1f"},
		{name: "c", measured: math.NaN(), floor: 1, unit: "%.1f"},
	}
	var out strings.Builder
	if failed := judge(&out, rows); failed != 2 {
		t.Errorf("judge = %d failed, want 2", failed)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("judge printed %d lines for %d rows:\n%s", len(lines), len(rows), out.String())
	}
	for i, want := range []string{"PASS 1 >= 1", "FAIL 0.5 < 1.0", "FAIL NaN"} {
		if !strings.HasPrefix(lines[i], rows[i].name+" ") || !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want row %q with %q", i, lines[i], rows[i].name, want)
		}
	}
	if failed := judge(&out, nil); failed != 0 {
		t.Errorf("judge of no rows = %d", failed)
	}
}

// TestFloorsWiring pins which measurement each floor reads, and the floors.
func TestFloorsWiring(t *testing.T) {
	pass := tiers{
		Scale:  scaleRun{NumCPU: 8, GateSpeedup: 3},
		Chaos:  chaosRun{OverheadRatio: 0.25},
		Policy: policyRun{DecisionsPerSec: 5000},
	}
	if failed := judge(&strings.Builder{}, pass.floors()); failed != 0 {
		t.Errorf("every tier exactly at its floor: %d failed", failed)
	}
	fail := tiers{
		Scale:  scaleRun{NumCPU: 8, GateSpeedup: 2.9},
		Chaos:  chaosRun{OverheadRatio: 0.24},
		Policy: policyRun{DecisionsPerSec: 4999},
	}
	if failed := judge(&strings.Builder{}, fail.floors()); failed != 3 {
		t.Errorf("every tier just below its floor: %d failed, want 3", failed)
	}
	// The same 2.9x clears the floor a 2-core host is held to; a slowdown
	// does not.
	fail.Scale.NumCPU = 2
	if failed := judge(&strings.Builder{}, fail.floors()); failed != 2 {
		t.Errorf("2-core host at 2.9x: %d failed, want 2", failed)
	}
	fail.Scale.GateSpeedup = 0.6
	if failed := judge(&strings.Builder{}, fail.floors()); failed != 3 {
		t.Errorf("2-core host at 0.6x: %d failed, want 3", failed)
	}
}

var stubTiers = tiers{
	Scale: scaleRun{
		NumCPU: 8, Short: true, GateSpeedup: 3.5, SpeedupGate: "PASS 3.50x >= 3.00x",
		Points: []scalePoint{{Machines: 64, Shards: 1, EventsFired: 10, WallMs: 1, EventsPerSec: 10000}},
	},
	Chaos: chaosRun{
		NumCPU: 8, Short: true, OverheadRatio: 0.9,
		Points: []chaosPoint{{Machines: 64, Shards: 4, Lossy: true, EventsFired: 9, WallMs: 1, EventsPerSec: 9000}},
	},
	Policy: policyRun{SweepNsOp: 170000, DecisionsPerSec: 35000},
}

// readArrays decodes a trajectory file's top-level keys, and its three
// arrays entry by entry.
func readArrays(t *testing.T, path string) (top map[string]any, arrays map[string][]any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	arrays = map[string][]any{}
	for _, k := range []string{"runs", "scale", "chaos"} {
		arrays[k], _ = top[k].([]any)
		delete(top, k)
	}
	return top, arrays
}

// TestAppendKeepsHistory appends a stub measurement to a copy of the
// committed trajectory: every prior entry — including the hot-path metrics
// this program no longer has fields for — survives JSON-equal, and each
// tier gains exactly one entry holding only what was measured.
func TestAppendKeepsHistory(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	topBefore, before := readArrays(t, path)
	if len(before["runs"]) < 9 || len(before["scale"]) < 6 || len(before["chaos"]) < 5 {
		t.Fatalf("committed trajectory lost history: %d runs, %d scale, %d chaos",
			len(before["runs"]), len(before["scale"]), len(before["chaos"]))
	}
	if err := appendTiers(path, stubTiers, "2026-01-02T03:04:05Z"); err != nil {
		t.Fatal(err)
	}
	topAfter, after := readArrays(t, path)
	if !reflect.DeepEqual(topBefore, topAfter) {
		t.Errorf("top-level keys changed:\nbefore %v\nafter  %v", topBefore, topAfter)
	}
	for k, prior := range before {
		if len(after[k]) != len(prior)+1 {
			t.Fatalf("%s: %d entries after appending to %d", k, len(after[k]), len(prior))
		}
		if !reflect.DeepEqual(after[k][:len(prior)], prior) {
			t.Errorf("%s: a prior entry changed", k)
		}
	}
	last := func(k string) map[string]any { return after[k][len(after[k])-1].(map[string]any) }
	if got, want := last("runs"), (map[string]any{
		"timestamp": "2026-01-02T03:04:05Z", "policy_sweep_ns_op": 170000.0, "policy_decisions_per_sec": 35000.0,
	}); !reflect.DeepEqual(got, want) {
		t.Errorf("new runs entry = %v, want exactly %v", got, want)
	}
	if got := last("scale"); got["speedup_gate"] != "PASS 3.50x >= 3.00x" || got["timestamp"] != "2026-01-02T03:04:05Z" || got["num_cpu"] != 8.0 {
		t.Errorf("new scale entry = %v", got)
	}
	if got := last("chaos"); got["overhead_ratio_lossy_vs_lossless"] != 0.9 || got["timestamp"] != "2026-01-02T03:04:05Z" {
		t.Errorf("new chaos entry = %v", got)
	}
}

func TestAppendCreatesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiers.json")
	for n := 1; n <= 2; n++ {
		if err := appendTiers(path, stubTiers, "now"); err != nil {
			t.Fatal(err)
		}
		top, arrays := readArrays(t, path)
		if !reflect.DeepEqual(top, map[string]any{"benchmark": "tiers"}) {
			t.Errorf("append %d: top-level keys = %v", n, top)
		}
		for k, a := range arrays {
			if len(a) != n {
				t.Errorf("append %d: %d %s entries", n, len(a), k)
			}
		}
	}
}

func TestAppendErrors(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"runs": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendTiers(corrupt, stubTiers, "now"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt file: err = %v", err)
	}
	if err := appendTiers(dir, stubTiers, "now"); err == nil {
		t.Error("path is a directory: no error")
	}
	if err := appendTiers(filepath.Join(dir, "absent", "x.json"), stubTiers, "now"); err == nil {
		t.Error("unwritable path: no error")
	}
	// JSON has no NaN: a non-finite measurement is an error, and the file is
	// left as it was.
	good := filepath.Join(dir, "good.json")
	if err := appendTiers(good, stubTiers, "now"); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(good)
	nan := stubTiers
	nan.Chaos.OverheadRatio = math.NaN()
	if err := appendTiers(good, nan, "later"); err == nil {
		t.Error("NaN measurement: no error")
	}
	if after, _ := os.ReadFile(good); string(after) != string(before) {
		t.Error("failed append changed the file")
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != len(allExperiments) {
		t.Fatalf(`selectExperiments("") = %d experiments, %v`, len(all), err)
	}
	got, err := selectExperiments("F31, E2,E2")
	if err != nil || len(got) != 2 || got[0].id != "E2" || got[1].id != "F31" {
		t.Errorf("selectExperiments(F31, E2,E2) = %v, %v; want E2 then F31", got, err)
	}
	for _, run := range []string{"E17", "e1", "E1,E17", "E1,"} {
		exps, err := selectExperiments(run)
		if err == nil || exps != nil {
			t.Errorf("selectExperiments(%q) = %d experiments, nil error", run, len(exps))
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "E1,E2,") || !strings.Contains(msg, "F51") {
			t.Errorf("selectExperiments(%q): error does not list the valid ids: %v", run, msg)
		}
	}
	if _, err := selectExperiments("E17,e1"); !strings.Contains(err.Error(), `["E17" "e1"]`) {
		t.Errorf("unknown ids not named: %v", err)
	}
}
