// demoslint machine-checks the repository's simulator invariants:
// determinism (all randomness through sim.Engine.Rand, no ambient clocks
// or environment), map-iteration order on anything order-sensitive, the
// DEMOS/MP layering DAG, the //demos:hotpath zero-allocation contract,
// encoder/decoder/fuzz pairing of the wire payloads, the pooled-envelope
// ownership discipline (use-after-Put and double-Put within a statement
// list, unblessed retention), an inventory of what the code says about its
// tests (every //demos:hotpath guard exists; every kill-point, Config
// ablation flag and chaos fault kind is test-referenced), and exported
// surface that nothing outside tests uses: eight rules.
//
// Usage:
//
//	go run ./cmd/demoslint ./...
//	go run ./cmd/demoslint -rules     # list analyzers with descriptions
//	go run ./cmd/demoslint -json ./...
//
// The package pattern is accepted for familiarity but the whole module is
// always analyzed (the layering, wirepair, inventory and deadcode rules are
// module-global). Findings print as "file:line: [rule] message" — or, with
// -json, as a JSON array of {path,line,col,rule,msg} objects for CI
// artifacts — and the exit status is non-zero if any exist. There is no
// per-line suppression: a rule that must tolerate a site takes a reviewed
// table in internal/lint/demos.go (Determinism.Exempt, DeadCode.Keep). See
// DESIGN.md §8 for the rule catalogue and internal/lint for the
// implementation (stdlib-only: go/parser + go/types, no x/tools).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"demosmp/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "list the analyzer rules and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout (for CI artifacts)")
	flag.Parse()

	analyzers := lint.DemosAnalyzers()
	if *rules {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return
	}

	root, modulePath, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "demoslint:", err)
		os.Exit(2)
	}
	mod, err := lint.LoadModule(root, modulePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "demoslint:", err)
		os.Exit(2)
	}
	diags := lint.Run(mod, analyzers)
	if *asJSON {
		type finding struct {
			Path string `json:"path"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		}
		out := make([]finding, 0, len(diags)) // 0-length, not nil: empty prints as []
		for _, d := range diags {
			out = append(out, finding{Path: d.Path, Line: d.Line, Col: d.Col, Rule: d.Rule, Msg: d.Msg})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "demoslint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "demoslint: %d finding(s)\n", n)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "demoslint: %d packages clean\n", len(mod.Pkgs))
}

// findModule walks up from the working directory to the enclosing go.mod
// and reads its module path.
func findModule() (root, modulePath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(gomod); statErr == nil {
			path, err := modulePathOf(gomod)
			if err != nil {
				return "", "", err
			}
			return dir, path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePathOf(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
