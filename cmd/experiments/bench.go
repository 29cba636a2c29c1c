// Measurement tiers and their gate. Every ns/op and allocs/op number belongs
// to the Benchmark* functions, the tier-1 allocation tests and the per-layer
// rows of bench/ (DESIGN.md, "Deletion record"). Measured here is only what
// none of those can see: whole-cluster events/sec of the sharded runtime
// (scale.go), what the fault plane costs it (chaosbench.go) and the policy
// plane's decision rate (policybench.go). One measureTiers call feeds both
// the append (-bench-json) and the verdict (-check-regression), which is
// three absolute floors, never a comparison with an earlier wall-clock reading.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

type tiers struct {
	Scale  scaleRun
	Chaos  chaosRun
	Policy policyRun
}

// measureTiers measures each tier once, the scale tier on the given rows of
// scaleGrid.
func measureTiers(scaleRows []scaleRow) tiers {
	return tiers{Scale: measureScale(scaleRows), Chaos: measureChaos(), Policy: measurePolicy()}
}

// floorRow is one absolute floor of the gate.
type floorRow struct {
	name     string
	measured float64
	floor    float64
	unit     string // printf format of a value with its unit, e.g. "%.2fx"
}

// verdict judges one row. A measurement that is not a positive finite
// number always fails — NaN and +Inf compare false against any floor, which
// is how a dead baseline arm used to read as PASS.
func (r floorRow) verdict() (line string, ok bool) {
	got, want := fmt.Sprintf(r.unit, r.measured), fmt.Sprintf(r.unit, r.floor)
	switch {
	case math.IsNaN(r.measured) || math.IsInf(r.measured, 0) || r.measured <= 0:
		return fmt.Sprintf("FAIL %s is not a positive finite measurement", got), false
	case r.measured < r.floor:
		return fmt.Sprintf("FAIL %s < %s", got, want), false
	default:
		return fmt.Sprintf("PASS %s >= %s", got, want), true
	}
}

// judge prints one verdict line per floor and returns how many failed.
func judge(w io.Writer, rows []floorRow) (failed int) {
	for _, r := range rows {
		line, ok := r.verdict()
		if !ok {
			failed++
		}
		fmt.Fprintf(w, "%-38s %s\n", r.name, line)
	}
	return failed
}

func (t tiers) floors() []floorRow {
	return []floorRow{
		speedupGate(t.Scale.GateSpeedup, t.Scale.NumCPU),
		// The machine-anchored ARQ may cost at most 4x events/sec against
		// the lossless arm of the same sharded chaos soak: past that, a
		// lossy 1000-machine soak stops being runnable in CI.
		{name: "chaos overhead (lossy vs lossless)", measured: t.Chaos.OverheadRatio, floor: 0.25, unit: "%.2fx"},
		{name: "policy decisions (256 machines)", measured: t.Policy.DecisionsPerSec, floor: policyDecisionsFloor, unit: "%.0f/s"},
	}
}

// benchFile is the trajectory file. Entries already in it are carried as
// the bytes they were read as: runs recorded before the hot-path tier was
// deleted hold metrics this program no longer knows, and must neither be
// dropped nor re-emitted with zero-valued placeholders.
type benchFile struct {
	Benchmark    string            `json:"benchmark"`
	SeedBaseline json.RawMessage   `json:"seed_baseline,omitempty"`
	Runs         []json.RawMessage `json:"runs"`
	Scale        []json.RawMessage `json:"scale,omitempty"`
	Chaos        []json.RawMessage `json:"chaos,omitempty"`
}

// appendTiers appends one entry per tier to the trajectory file at path,
// creating it if absent: the policy tier to runs, the others to their own
// arrays.
func appendTiers(path string, t tiers, stamp string) error {
	f := benchFile{Benchmark: "tiers"}
	switch data, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("bench-json: corrupt %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("bench-json: %w", err)
	}
	t.Scale.Timestamp, t.Chaos.Timestamp, t.Policy.Timestamp = stamp, stamp, stamp
	for _, e := range []struct {
		to  *[]json.RawMessage
		run any
	}{{&f.Runs, t.Policy}, {&f.Scale, t.Scale}, {&f.Chaos, t.Chaos}} {
		raw, err := json.Marshal(e.run)
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		*e.to = append(*e.to, raw)
	}
	out, err := json.MarshalIndent(&f, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(out, '\n'), 0o644)
	}
	return err
}
