package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// smokeScale runs every workload at about 1/50 of its recorded size.
const smokeScale = 0.02

// runSmoke drives the command's own entry point with in-process
// repetitions and returns the parsed last line of its standard output.
func runSmoke(t *testing.T, workload string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	// Seed 2 is held out: the recorded numbers use seed 1, and every
	// check must hold on inputs nobody tuned against.
	code := run([]string{"--workload", workload, "--seed", "2", "--seconds", "0", "--trace", trace,
		"-scale", "0.02", "-out", t.TempDir()}, &stdout, &stderr, oneRep)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit code %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line of stdout is not JSON: %v", workload, err)
	}
	if len(raw) != 4 {
		t.Errorf("%s: result has keys %v, want exactly correct, attempted, failed, metrics", workload, sortedKeys(raw))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

// TestSmoke runs every workload end to end and per layer at reduced size on
// the held-out seed and checks the output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		e2e := runSmoke(t, w.Name, "0")
		if len(e2e.Metrics) != len(f.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, BENCHMARK.json names %d", w.Name, len(e2e.Metrics), len(f.EndToEnd))
		}
		for _, m := range f.EndToEnd {
			got, ok := e2e.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s [%s] missing or in unit %q", w.Name, m.Name, m.Unit, got.Unit)
			}
			if got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
			}
		}
		layers := runSmoke(t, w.Name, "1")
		if len(layers.Metrics) != len(f.PerLayer) {
			t.Errorf("%s: %d per-layer metrics reported, BENCHMARK.json names %d", w.Name, len(layers.Metrics), len(f.PerLayer))
		}
		for _, m := range f.PerLayer {
			if got, ok := layers.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s [%s] missing or in unit %q", w.Name, m.Name, m.Unit, got.Unit)
			}
		}
		if share := layers.Metrics["span.other.share"].Value; share > maxOtherShare {
			t.Errorf("%s: span.other.share = %v", w.Name, share)
		}
	}
}

// TestEventClassTableCoversFiredNames traces every workload and requires
// the event-name -> class table to know every name the run fired.
func TestEventClassTableCoversFiredNames(t *testing.T) {
	for _, s := range specs {
		res, err := runRep(s, params{seed: 2, scale: smokeScale, seq: true}, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Spans.EventNames) == 0 {
			t.Errorf("%s: traced repetition saw no events", s.name)
		}
		if names := unclassified(res.Spans.EventNames); len(names) > 0 {
			t.Errorf("%s: event names without a class: %v", s.name, names)
		}
	}
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metric and
// workload tables in the code and to the contract's limits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(specs) || len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code (2 to 8 allowed)", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		use("workload", w.Name)
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) || len(f.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code (at most 16)", len(f.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range f.EndToEnd {
		use("end-to-end metric", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}

	if len(f.PerLayer) != len(perLayer) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code (at most 128)", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		use("per-layer metric", m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better %q", m.Name, m.Better)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
}

// TestBrokenReferenceFails proves the §6 gate can fail: the same finished
// run passes against the paper's bill and fails against a bill that expects
// ten administrative messages.
func TestBrokenReferenceFails(t *testing.T) {
	s, _ := findSpec("migrate-storm")
	inst, err := s.build(params{seed: 2, scale: smokeScale})
	if err != nil {
		t.Fatal(err)
	}
	inst.c.Run()
	migrations := int(inst.ops())
	if migrations == 0 {
		t.Fatal("no migration completed")
	}

	good := newVerdict()
	checkSection6(good, inst.c, migrations, ref6)
	if good.failed != 0 {
		t.Fatalf("the paper's reference fails: %v", good.failures)
	}
	broken := ref6
	broken.adminMsgsMin, broken.adminMsgs = 10, 10
	bad := newVerdict()
	checkSection6(bad, inst.c, migrations, broken)
	if bad.failed != uint64(migrations) {
		t.Errorf("a reference of 10 admin messages failed %d of %d migrations, want all", bad.failed, migrations)
	}
}

// TestFailedCheckSetsExitCode wires a failing repetition through the
// command: the failure must show in failed, in correct and in the exit code.
func TestFailedCheckSetsExitCode(t *testing.T) {
	failing := func(o options) (repResult, error) {
		r, err := oneRep(o)
		r.Failed++
		r.Failures = append(r.Failures, "injected by the self-test")
		return r, err
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "pingpong", "--seconds", "0", "-scale", "0.02", "-out", t.TempDir()},
		&stdout, &stderr, failing)
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("exit code %d, correct=%v, failed=%d: a failed check must show in all three", code, res.Correct, res.Failed)
	}
}

// TestFingerprintSeparatesSeeds guards the determinism check against a
// fingerprint that cannot tell two runs apart.
func TestFingerprintSeparatesSeeds(t *testing.T) {
	s, _ := findSpec("lossy-chatter")
	var prints []string
	for _, seed := range []int64{2, 2, 3} {
		res, err := runRep(s, params{seed: seed, scale: smokeScale}, false)
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, res.Fingerprint)
	}
	if prints[0] != prints[1] {
		t.Errorf("same seed, different fingerprints: %s, %s", prints[0], prints[1])
	}
	if prints[0] == prints[2] {
		t.Errorf("seeds 2 and 3 share fingerprint %s", prints[0])
	}
}

// TestQuietWindow pins the slice-wise minimum the end-to-end timings rest on:
// each slice takes its fastest repetition, and repetitions that disagree on
// what a slice did are reported, not averaged away.
func TestQuietWindow(t *testing.T) {
	reps := []repResult{
		{SliceNs: []float64{3e9, 1e9, 5e9}, SliceOps: []uint64{2, 0, 1}},
		{SliceNs: []float64{1e9, 4e9, 2e9}, SliceOps: []uint64{2, 0, 1}},
	}
	seconds, perOp, same := quietWindow(reps)
	if seconds != 4 || !same {
		t.Errorf("quiet window = %v s, same = %v; want 1+1+2 = 4 s, true", seconds, same)
	}
	if len(perOp) != 2 || perOp[0] != 0.5e9 || perOp[1] != 2e9 {
		t.Errorf("ns per op = %v; want the two slices with ops: 0.5e9, 2e9", perOp)
	}
	reps[1].SliceOps = []uint64{2, 1, 0}
	if _, _, same := quietWindow(reps); same {
		t.Error("repetitions whose slices completed different ops passed as the same window")
	}
}
