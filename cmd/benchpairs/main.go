// Command benchpairs compares revisions of this repository with the frozen
// benchmark in alternated pairs, the one procedure every A/B timing claim
// uses.
//
// It exports each revision with git archive into a sibling directory (the
// names have equal length, so no path length differs between the builds),
// builds each with its own bench/run.sh, and then, for every seed and pair,
// runs every workload once on every revision, rotating the revisions' order
// from pair to pair. Per workload it prints one markdown table: for each
// end-to-end metric BENCHMARK.json lists, the median of the per-pair ratios
// (revision over the first revision, the parent), the pairs won, their
// minimum and maximum, the parent's interquartile range, and a verdict.
//
// The verdict rule: a metric is "better" (or "worse") when at least 9 in 10
// of its pairs, rounded up, fall on that side of 1 and the median ratio
// differs from 1 by more than the parent's relative interquartile range
// (the largest over the seeds); "same" when every pair reads exactly equal;
// otherwise "unresolved".
//
// Every repetition prints its sim_fingerprint on standard error. Those of
// one workload and seed must be equal on every revision unless the workload
// is named in -fp-may-differ; benchpairs exits 1 when they are not, when a
// run fails, or when a revision does not build.
//
//	go run ./cmd/benchpairs -revs HEAD~1,HEAD -workloads migrate-storm -seeds 1,2 -pairs 5 -seconds 4 -dir /tmp/pairs
//
// A revision is anything git rev-parse takes, or "." for the working tree
// (tracked and untracked files, less what .gitignore excludes).
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

type options struct {
	revs, workloads []string
	seeds           []int64
	pairs, seconds  int
	dir             string
	fpMayDiffer     []string
}

// rev is one exported revision.
type rev struct {
	name, commit, dir string
}

// run is one bench/run.sh invocation: one workload, seed and revision.
type run struct {
	workload     string
	seed         int64
	pair, rev    int
	metrics      map[string]float64
	fingerprints []string
}

// metric is an end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	revs, err := export(o)
	if err != nil {
		return err
	}
	metrics, err := endToEnd(filepath.Join(revs[0].dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	for _, r := range revs {
		fmt.Fprintf(stderr, "benchpairs: building %s (%s) in %s\n", r.name, r.commit, r.dir)
		if err := build(r); err != nil {
			return err
		}
	}
	var runs []run
	failed := false
	for si, seed := range o.seeds {
		for p := 0; p < o.pairs; p++ {
			for _, w := range o.workloads {
				for _, i := range rotation(len(revs), si*o.pairs+p) {
					r, err := bench(revs[i], w, seed, o.seconds)
					r.pair, r.rev = p, i
					fmt.Fprintf(stderr, "benchpairs: seed %d pair %d %s %s: ops_per_s %.6g\n", seed, p, w, revs[i].name, r.metrics["ops_per_s"])
					if err != nil {
						fmt.Fprintf(stderr, "benchpairs: %v\n", err)
						failed = true
					}
					runs = append(runs, r)
				}
			}
		}
	}
	report(stdout, o, revs, metrics, runs)
	if bad := fingerprintMismatches(o, revs, runs); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(stderr, "benchpairs:", b)
		}
		return errors.New("sim_fingerprint differs between revisions")
	}
	if failed {
		return errors.New("a benchmark run failed")
	}
	return nil
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	revs := fs.String("revs", "HEAD~1,HEAD", "comma-separated revisions; the first is the parent every ratio is taken against")
	workloads := fs.String("workloads", "pingpong,pingpong-par,openloop-1000,migrate-storm,lossy-chatter", "comma-separated workloads")
	seeds := fs.String("seeds", "1,2", "comma-separated seeds")
	fs.IntVar(&o.pairs, "pairs", 5, "pairs per seed")
	fs.IntVar(&o.seconds, "seconds", 4, "bench/run.sh --seconds of each run")
	fs.StringVar(&o.dir, "dir", "", "directory to export the revisions into (made if missing; required)")
	fpMay := fs.String("fp-may-differ", "", "comma-separated workloads whose sim_fingerprint may differ between revisions")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.revs, o.workloads, o.fpMayDiffer = split(*revs), split(*workloads), split(*fpMay)
	for _, s := range split(*seeds) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return o, fmt.Errorf("-seeds: %v", err)
		}
		o.seeds = append(o.seeds, n)
	}
	switch {
	case o.dir == "":
		return o, errors.New("-dir is required")
	case len(o.revs) < 2:
		return o, errors.New("-revs needs at least two revisions")
	case len(o.workloads) == 0 || len(o.seeds) == 0 || o.pairs < 1 || o.seconds < 1:
		return o, errors.New("need a workload, a seed, -pairs >= 1 and -seconds >= 1")
	}
	return o, nil
}

func split(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// rotation returns the order in which round k runs n revisions: 0..n-1
// rotated left by k.
func rotation(n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = (i + k) % n
	}
	return out
}

// export writes each revision into dir/rN, the N zero-padded to one width.
func export(o options) ([]rev, error) {
	width := len(strconv.Itoa(len(o.revs) - 1))
	var revs []rev
	for i, name := range o.revs {
		r := rev{name: name, dir: filepath.Join(o.dir, fmt.Sprintf("r%0*d", width, i))}
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if name == "." {
			r.commit = "working tree"
			err = exportWorktree(r.dir)
		} else {
			var out []byte
			if out, err = git("rev-parse", "--verify", name+"^{commit}"); err == nil {
				r.commit = strings.TrimSpace(string(out))
				err = exportCommit(r.commit, r.dir)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("export %s: %w", name, err)
		}
		revs = append(revs, r)
	}
	return revs, nil
}

func git(args ...string) ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// exportCommit unpacks git archive's tar of commit into dir.
func exportCommit(commit, dir string) error {
	out, err := git("archive", "--format=tar", commit)
	if err != nil {
		return err
	}
	tr := tar.NewReader(bytes.NewReader(out))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, h.FileInfo().Mode().Perm())
		case tar.TypeXGlobalHeader: // git archive's commit id
		default:
			err = fmt.Errorf("%s: not a file or directory", h.Name)
		}
		if err != nil {
			return err
		}
	}
}

// exportWorktree copies the working tree's tracked and untracked files,
// less the ignored ones, into dir.
func exportWorktree(dir string) error {
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root := strings.TrimSpace(string(top))
	out, err := git("-C", root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	if err != nil {
		return err
	}
	for _, name := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
		src := filepath.Join(root, name)
		fi, err := os.Lstat(src)
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted in the working tree
		}
		if err != nil {
			return err
		}
		if !fi.Mode().IsRegular() {
			return fmt.Errorf("%s: not a regular file", name)
		}
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		err = writeFile(filepath.Join(dir, name), f, fi.Mode().Perm())
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, r io.Reader, perm os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// endToEnd reads BENCHMARK.json's end-to-end metrics.
func endToEnd(path string) ([]metric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s lists no end-to-end metric", path)
	}
	return spec.EndToEnd, nil
}

// build runs the revision's bench/run.sh with -h: the script builds the
// benchmark into the export's .bench_build, then the binary prints its
// usage and exits 2.
func build(r rev) error {
	var out bytes.Buffer
	cmd := exec.Command("bash", "bench/run.sh", "-h")
	cmd.Dir, cmd.Stdout, cmd.Stderr = r.dir, &out, &out
	err := cmd.Run()
	if _, serr := os.Stat(filepath.Join(r.dir, ".bench_build", "demosmp-bench")); serr != nil {
		return fmt.Errorf("build %s: %v\n%s", r.name, err, out.String())
	}
	return nil
}

var fingerprintRE = regexp.MustCompile(`sim_fingerprint=(\S+)`)

// bench runs one workload on one revision and reads its JSON result and
// the fingerprint of every repetition.
func bench(r rev, workload string, seed int64, seconds int) (run, error) {
	res := run{workload: workload, seed: seed}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds))
	cmd.Dir, cmd.Stdout, cmd.Stderr = r.dir, &stdout, &stderr
	runErr := cmd.Run()
	for _, m := range fingerprintRE.FindAllStringSubmatch(stderr.String(), -1) {
		res.fingerprints = append(res.fingerprints, m[1])
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return res, fmt.Errorf("%s %s seed %d: no result (%v): %s", r.name, workload, seed, runErr, tail(stderr.String()))
	}
	res.metrics = map[string]float64{}
	for k, v := range out.Metrics {
		res.metrics[k] = v.Value
	}
	if runErr != nil || !out.Correct {
		return res, fmt.Errorf("%s %s seed %d failed (%v): %s", r.name, workload, seed, runErr, tail(stderr.String()))
	}
	return res, nil
}

func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

// fingerprintMismatches lists every workload and seed whose repetitions'
// fingerprints differ between revisions where they must not.
func fingerprintMismatches(o options, revs []rev, runs []run) []string {
	var bad []string
	for _, w := range o.workloads {
		if slices.Contains(o.fpMayDiffer, w) {
			continue
		}
		for _, seed := range o.seeds {
			first, from := "", 0
		scan:
			for _, r := range runs {
				if r.workload != w || r.seed != seed {
					continue
				}
				for _, fp := range r.fingerprints {
					if first == "" {
						first, from = fp, r.rev
					} else if fp != first {
						bad = append(bad, fmt.Sprintf("%s seed %d: %s reads sim_fingerprint %s, %s read %s",
							w, seed, revs[r.rev].name, fp, revs[from].name, first))
						break scan
					}
				}
			}
		}
	}
	return bad
}

// report prints one table per workload and revision after the first.
func report(w io.Writer, o options, revs []rev, metrics []metric, runs []run) {
	fmt.Fprintf(w, "Revisions (ratios are each against %s):\n\n", revs[0].name)
	for i, r := range revs {
		fmt.Fprintf(w, "- r%d `%s`: %s\n", i, r.name, r.commit)
	}
	fmt.Fprintf(w, "\nSeeds %v, %d pairs a seed, --seconds %d; the order rotates every pair.\n", o.seeds, o.pairs, o.seconds)
	for _, wl := range o.workloads {
		for j := 1; j < len(revs); j++ {
			fmt.Fprintf(w, "\n#### %s: %s against %s\n\n", wl, revs[j].name, revs[0].name)
			fmt.Fprintln(w, "| metric | parent median | median | median ratio | pairs won | min | max | parent IQR | verdict |")
			fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|---|")
			for _, m := range metrics {
				ratios, iqr := pairRatios(o, runs, wl, m.Name, j)
				if len(ratios) == 0 {
					fmt.Fprintf(w, "| `%s` | – | – | – | 0/0 | – | – | – | no pairs |\n", m.Name)
					continue
				}
				won := 0
				for _, r := range ratios {
					if wins(r, m.Better) {
						won++
					}
				}
				med := quantile(ratios, 0.5)
				fmt.Fprintf(w, "| `%s` | %.6g | %.6g | %.3f× | %d/%d | %.3f | %.3f | %.1f %% | %s |\n",
					m.Name, median(runs, wl, m.Name, 0), median(runs, wl, m.Name, j), med, won, len(ratios),
					ratios[0], ratios[len(ratios)-1], 100*iqr, verdict(ratios, med, iqr, m.Better))
			}
		}
	}
}

// median returns the median of revision j's values of name over every run
// of the workload, all seeds together.
func median(runs []run, workload, name string, j int) float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok && r.workload == workload && r.rev == j {
			xs = append(xs, v)
		}
	}
	slices.Sort(xs)
	return quantile(xs, 0.5)
}

// pairRatios returns the sorted ratios of revision j's value of name to the
// parent's, one per pair in which both completed, and the parent's
// relative interquartile range, the largest over the seeds.
func pairRatios(o options, runs []run, workload, name string, j int) (ratios []float64, iqr float64) {
	for _, seed := range o.seeds {
		var base []float64
		for p := 0; p < o.pairs; p++ {
			var a, b float64
			var okA, okB bool
			for _, r := range runs {
				if r.workload == workload && r.seed == seed && r.pair == p && r.metrics != nil {
					switch r.rev {
					case 0:
						a, okA = r.metrics[name]
					case j:
						b, okB = r.metrics[name]
					}
				}
			}
			if okA {
				base = append(base, a)
			}
			if okA && okB && a != 0 {
				ratios = append(ratios, b/a)
			}
		}
		slices.Sort(base)
		if med := quantile(base, 0.5); med != 0 {
			iqr = max(iqr, (quantile(base, 0.75)-quantile(base, 0.25))/math.Abs(med))
		}
	}
	slices.Sort(ratios)
	return ratios, iqr
}

func wins(ratio float64, better string) bool {
	if better == "lower" {
		return ratio < 1
	}
	return ratio > 1
}

// verdict applies the rule in the package comment.
func verdict(ratios []float64, med, iqr float64, better string) string {
	equal, won, lost := 0, 0, 0
	for _, r := range ratios {
		switch {
		case r == 1:
			equal++
		case wins(r, better):
			won++
		default:
			lost++
		}
	}
	need := (9*len(ratios) + 9) / 10
	switch {
	case equal == len(ratios):
		return "same"
	case won >= need && math.Abs(med-1) > iqr:
		return "**better**"
	case lost >= need && math.Abs(med-1) > iqr:
		return "**worse**"
	}
	return "unresolved"
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
