package lint

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFixtures runs each analyzer over its fixture module in
// testdata/src/<name> and compares the rendered diagnostics against
// testdata/<name>.golden. Each fixture holds positive and negative cases
// for one rule; the golden file pins the exact findings (and, by omission,
// the silences).
func TestFixtures(t *testing.T) {
	cases := []struct {
		name      string // fixture directory and golden file stem
		module    string // module path the fixture is loaded as
		analyzers []Analyzer
	}{
		{"detfix", "detfix", []Analyzer{Determinism{
			Prefix: "detfix/internal/",
			Exempt: map[string]bool{"detfix/internal/simx": true},
		}}},
		{"mapfix", "mapfix", []Analyzer{MapOrder{}}},
		{"layfix", "layfix", []Analyzer{Layering{
			Module: "layfix",
			Allow: map[string][]string{
				"layfix/a": {},
				"layfix/b": {"layfix/a"},
				"layfix/c": {"layfix/a"},
			},
		}}},
		{"hotfix", "hotfix", []Analyzer{HotPathAlloc{}}},
		{"wirefix", "wirefix", []Analyzer{WirePair{PkgPath: "wirefix"}}},
		{"ownfix", "ownfix", []Analyzer{Ownership{MsgPath: "ownfix/msg"}}},
		{"supfix", "supfix", []Analyzer{Inventory{Pkg: "supfix"}}},
		{"killfix", "killfix", []Analyzer{Inventory{
			Pkg: "killfix", ConstType: "Point", ConfigType: "Config",
			ChaosKinds: map[string][]string{
				"partition": {"Partition"},
				"burst":     {"LossBurst"},
			},
			ShardMarkers: []string{"Shards"},
		}}},
		{"deadfix", "deadfix", []Analyzer{DeadCode{
			Prefix:    "deadfix/internal/",
			Consumers: []string{"_consumer"},
			Wire:      "deadfix/internal/wire",
			Scaffold:  map[string]bool{"deadfix/internal/scaffold": true},
			Keep:      map[string]bool{"deadfix/internal/dead.Kept": true},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := LoadModule(filepath.Join("testdata", "src", tc.name), tc.module)
			if err != nil {
				t.Fatalf("LoadModule: %v", err)
			}
			var sb strings.Builder
			for _, d := range Run(mod, tc.analyzers) {
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			got := sb.String()

			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestInjectedDoublePutCaught splices a second Put into a temp copy of the
// ownfix drain loop — the fixture mirror of deliver.go's locate-reply
// drain — and asserts the ownership analyzer reports the double release at
// the injected line. This is the proof that a regression in the real drain
// could not land silently.
func TestInjectedDoublePutCaught(t *testing.T) {
	srcRoot := filepath.Join("testdata", "src", "ownfix")
	tmp := t.TempDir()
	marker := "// INJECT:DOUBLE-PUT"
	injectedLine := 0
	err := filepath.WalkDir(srcRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(srcRoot, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(tmp, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if rel == filepath.Join("own", "drain.go") {
			text := string(data)
			if !strings.Contains(text, marker) {
				t.Fatalf("drain fixture lost its %s marker", marker)
			}
			for i, line := range strings.Split(text, "\n") {
				if strings.Contains(line, marker) {
					injectedLine = i + 1
				}
			}
			text = strings.Replace(text, marker, "p.Put(m)", 1)
			data = []byte(text)
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if injectedLine == 0 {
		t.Fatal("injection marker not found")
	}

	mod, err := LoadModule(tmp, "ownfix")
	if err != nil {
		t.Fatalf("LoadModule on injected copy: %v", err)
	}
	caught := false
	for _, d := range Run(mod, []Analyzer{Ownership{MsgPath: "ownfix/msg"}}) {
		if d.Rule == "ownership" && d.Path == "own/drain.go" &&
			d.Line == injectedLine && strings.Contains(d.Msg, "double release") {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("injected double-Put at own/drain.go:%d was not reported", injectedLine)
	}
}

// TestChaosKindInventory pins the chaos fault-kind table wired into the
// repository's inventory configuration: every fault family the injector
// can drive, each with the identifiers that mark it exercised, plus the
// shard markers. Adding a fault family to the injector means adding it
// here AND referencing it from a sharded test in the same commit.
func TestChaosKindInventory(t *testing.T) {
	var kc *Inventory
	for _, a := range DemosAnalyzers() {
		if k, ok := a.(Inventory); ok {
			kc = &k
		}
	}
	if kc == nil {
		t.Fatal("DemosAnalyzers lost its Inventory entry")
	}
	want := map[string][]string{
		"partition":  {"PartitionEvery", "Partition"},
		"loss-burst": {"BurstEvery", "LossBurst"},
		"duplicate":  {"DupEvery", "DuplicateNext"},
		"delay":      {"DelayEvery", "DelayNext"},
		"crash":      {"MaxKills", "Crash"},
		"checkpoint": {"CheckpointEvery", "SaveCheckpoint"},
	}
	if len(kc.ChaosKinds) != len(want) {
		t.Fatalf("ChaosKinds has %d kinds, want %d: %v", len(kc.ChaosKinds), len(want), kc.ChaosKinds)
	}
	for kind, ids := range want {
		got, ok := kc.ChaosKinds[kind]
		if !ok {
			t.Errorf("fault kind %q missing from inventory config", kind)
			continue
		}
		if len(got) != len(ids) {
			t.Errorf("kind %q idents = %v, want %v", kind, got, ids)
			continue
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Errorf("kind %q idents = %v, want %v", kind, got, ids)
				break
			}
		}
	}
	wantMarkers := []string{"Shards", "ShardParallel"}
	if len(kc.ShardMarkers) != len(wantMarkers) {
		t.Fatalf("ShardMarkers = %v, want %v", kc.ShardMarkers, wantMarkers)
	}
	for i := range wantMarkers {
		if kc.ShardMarkers[i] != wantMarkers[i] {
			t.Fatalf("ShardMarkers = %v, want %v", kc.ShardMarkers, wantMarkers)
		}
	}
}
