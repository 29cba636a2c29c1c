//go:build !race

// The golden of the default output is ~10 s of simulation; under the race
// detector it costs ten times that and checks nothing more (the race job
// covers the same code paths through the package tests).

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDefaultOutputGolden pins what `go run ./cmd/experiments` prints — the
// E-tables and figure traces EXPERIMENTS.md quotes — section by section.
// The simulation is deterministic, so any difference is a behaviour change:
// regenerate deliberately with
//
//	go test ./cmd/experiments -run TestDefaultOutputGolden -update
func TestDefaultOutputGolden(t *testing.T) {
	path := filepath.Join("testdata", "default_output.txt")
	if *update {
		out := captureStdout(t, func() {
			for _, e := range allExperiments {
				e.run()
			}
		})
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	// Every section starts "\n## <id> — <title>".
	const sep = "\n## "
	golden := map[string]string{}
	for _, part := range strings.Split(string(data), sep)[1:] {
		id, _, _ := strings.Cut(part, " ")
		golden[id] = sep + part
	}
	if len(golden) != len(allExperiments) {
		t.Errorf("golden has %d sections, the table %d experiments", len(golden), len(allExperiments))
	}
	for _, e := range allExperiments {
		t.Run(e.id, func(t *testing.T) {
			if e.id == "E14" && testing.Short() {
				t.Skip("E14 is two thirds of the whole run")
			}
			if got := captureStdout(t, e.run); got != golden[e.id] {
				t.Errorf("output differs from %s (rewrite with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
					path, got, golden[e.id])
			}
		})
	}
}

// TestTournamentShortGolden pins the short tournament card's findings — every
// arm's sweep, decision and migration counts — byte for byte, so a policy
// change that moves one decision fails here and not only in the verdicts.
// scripts/check.sh compares the -tournament-short artifact with the same
// file. Regenerate deliberately with
//
//	go test ./cmd/experiments -run TestTournamentShortGolden -update
func TestTournamentShortGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "findings.json")
	captureStdout(t, func() { tournament(out, true) })
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "tournament_short_findings.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("short tournament findings differ from %s (rewrite with -update if intended)\n--- got ---\n%s", path, got)
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
