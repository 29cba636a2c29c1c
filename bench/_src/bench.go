// Command bench is the repository's benchmark: five workloads on composed
// demosmp clusters, timed end to end untraced, plus one traced repetition
// and isolated call-timing rows for the per-layer numbers. BENCHMARK.json
// at the repository root describes it; ../README.md explains every metric.
// It drives the simulator through its public API only.
//
// It is a module of its own (demosmp/bench, built by ../run.sh), so the
// program's build, vet and test runs never include it, and it lives in a
// directory the program's lint loader skips: the benchmark sits outside
// the simulator's import DAG by design.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names and
// units (the self-test checks they agree).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator pays and gets, measured untraced.
// All times are host time.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"msgs_per_s", "1/s"},
	{"op_ns_p50", "ns"},
	{"heap_live_bytes_per_machine", "bytes"},
	{"heap_peak_bytes", "bytes"},
}

// Per-layer metrics, in the order they are reported.
var (
	// isolatedRows are the workload-independent call timings of layers.go.
	isolatedRows = []metricDef{
		{"sim.schedule_fire_ns.d64", "ns"},
		{"sim.schedule_fire_ns.d16k", "ns"},
		{"sim.schedule_cancel_ns", "ns"},
		{"sim.group_round_ns.seq", "ns"},
		{"sim.group_round_ns.par", "ns"},
		{"netw.send_deliver_ns.inline", "ns"},
		{"netw.send_deliver_ns.canon", "ns"},
		{"netw.send_deliver_ns.arq", "ns"},
		{"msg.encode_ns", "ns"},
		{"msg.pool_get_put_ns", "ns"},
		{"kernel.local_rt_ns", "ns"},
		{"kernel.remote_rt_ns", "ns"},
		{"kernel.forward_ns", "ns"},
		{"kernel.migrate_ns.null", "ns"},
		{"kernel.migrate_ns.counter", "ns"},
		{"kernel.migrate_allocs.counter", "count"},
		{"kernel.spawn_exit_ns", "ns"},
		{"kernel.spawn_exit_allocs", "count"},
		{"workload.counter_snapshot_restore_ns", "ns"},
		{"trace.emit_ns", "ns"},
		{"obs.observe_ns", "ns"},
		{"obs.snapshot_ms.1000m", "ms"},
		{"core.new_us_per_machine.1000m", "us"},
	}
	// exactCounters are simulated results and counts read from public Stats
	// after the untraced repetition. They repeat exactly for a seed: a
	// change meant only to speed up the simulator must leave every one
	// identical.
	exactCounters = []metricDef{
		{"sim.events", "count"},
		{"sim.rounds", "count"},
		{"sim.events_per_round", "count"},
		{"sim.shard_balance", "ratio"},
		{"netw.frames", "count"},
		{"netw.bytes", "bytes"},
		{"netw.frames_per_msg", "ratio"},
		{"netw.retransmit_ratio", "ratio"},
		{"netw.duplicates", "count"},
		{"netw.dead", "count"},
		{"netw.orphan_dropped", "count"},
		{"kernel.msgs_routed", "count"},
		{"kernel.msgs_enqueued", "count"},
		{"kernel.slices", "count"},
		{"kernel.forwarded", "count"},
		{"kernel.link_updates", "count"},
		{"kernel.msgs_held", "count"},
		{"kernel.dead_letters", "count"},
		{"kernel.spawned", "count"},
		{"kernel.migrations", "count"},
		{"model.admin_msgs_per_migration", "count"},
		{"model.admin_bytes_min", "bytes"},
		{"model.admin_bytes_max", "bytes"},
		{"model.transfers_per_migration", "count"},
		{"model.frames_per_forward", "count"},
		{"model.migration_freeze_us_p50", "us"},
		{"model.sim_end_us", "us"},
	}
	// hostCounters are host-side measurements of the same repetition.
	hostCounters = []metricDef{
		{"sim.events_per_s", "1/s"},
		{"sim.group.par_speedup.openloop", "ratio"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.alloc_bytes_per_op", "bytes"},
		{"runtime.cpu_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"host.op_ns_p99", "ns"},
		{"host.calib_ns", "ns"},
		{"host.num_cpu", "count"},
		{"trace.overhead_ratio", "ratio"},
	}
	perLayer = slices.Concat(isolatedRows, exactCounters, hostCounters, spanMetrics())
)

// spanMetrics is one triple per span class of the traced repetition.
func spanMetrics() []metricDef {
	var out []metricDef
	for _, c := range classNames {
		out = append(out,
			metricDef{"span." + c + ".events", "count"},
			metricDef{"span." + c + ".ns_per_event", "ns"},
			metricDef{"span." + c + ".share", "ratio"})
	}
	return out
}

// maxOtherShare fails a traced run whose unclassified events take more
// than this share of traced time, so new event names get classified.
const maxOtherShare = 0.05

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    float64
	out      string // directory for span dumps and per-layer reports
	// Child mode: run exactly one repetition and print it as JSON.
	child, traced, par, seq bool
}

// repRunner runs one repetition. The command runs each in a fresh child
// process; the self-test runs them in-process.
type repRunner func(o options) (repResult, error)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, childProcess))
}

func run(args []string, stdout, stderr io.Writer, rep repRunner) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&o.seconds, "seconds", 10, "host seconds to measure for")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced repetition and isolated rows")
	fs.Float64Var(&o.scale, "scale", 1, "shrink every workload (self-test only; recorded numbers use 1)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for span dumps and per-layer reports")
	fs.BoolVar(&o.child, "child", false, "internal: run one repetition and print its result as JSON")
	fs.BoolVar(&o.traced, "traced", false, "internal: record spans in the repetition")
	fs.BoolVar(&o.par, "par", false, "internal: run the repetition on 2 parallel shards")
	fs.BoolVar(&o.seq, "seq", false, "internal: run parallel shards sequentially")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := findSpec(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; choose one of %s\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}

	fmt.Fprintf(stderr, "bench: workload=%s seed=%d seconds=%d trace=%d scale=%g %s GOMAXPROCS=%d num_cpu=%d\n",
		o.workload, o.seed, o.seconds, o.trace, o.scale, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(stderr, "bench: SKIPPED num_cpu=1: parallel shards have no second core; pingpong-par and sim.group.par_speedup.openloop measure serialized goroutines")
	}
	var (
		res result
		err error
	)
	if o.trace == 0 {
		res, err = endToEndRun(s, o, stderr, rep)
	} else {
		res, err = perLayerRun(s, o, stderr, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// result is the one JSON object the command prints last on stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// oneRep runs one repetition in this process. A traced repetition's raw
// spans go straight to the span dump, not back to the caller.
func oneRep(o options) (repResult, error) {
	s, ok := findSpec(o.workload)
	if !ok {
		return repResult{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runRep(s, params{seed: o.seed, scale: o.scale, par: o.par, seq: o.seq}, o.traced)
	if err != nil || res.Spans == nil {
		return res, err
	}
	err = writeJSON(filepath.Join(o.out, s.name+".spans.json"), res.Spans)
	res.Spans.Raw = nil
	return res, err
}

func runChild(o options, stdout, stderr io.Writer) int {
	res, err := oneRep(o)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// childProcess re-executes this binary for one repetition, so every
// repetition starts with a fresh heap and its memory numbers are its own.
func childProcess(o options) (repResult, error) {
	var res repResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-scale", fmt.Sprint(o.scale), "-out", o.out}
	for _, f := range []struct {
		flag string
		on   bool
	}{{"-traced", o.traced}, {"-par", o.par}, {"-seq", o.seq}} {
		if f.on {
			args = append(args, f.flag)
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("repetition of %s: %w", o.workload, err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("repetition of %s printed no result: %w", o.workload, err)
	}
	return res, nil
}

// noisy reports a drift of the fixed CPU loop across a repetition: the host
// was doing something else while it ran.
func noisy(r repResult) bool {
	lo, hi := r.CalibBeforeNs, r.CalibAfterNs
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo <= 0 || hi/lo > 1.10
}

func describe(w io.Writer, i int, r repResult) {
	flag := ""
	if noisy(r) {
		flag = "  NOISY"
	}
	fmt.Fprintf(w, "bench: rep %d%s setup=%.4fs wall=%.4fs ops=%d msgs=%d op_ns_p50=%.1f (n=%d) heap_live=%d heap_peak=%d allocs=%d failed=%d/%d sim_fingerprint=%s calib=%.3f/%.3fns%s\n",
		i, map[bool]string{true: " (traced)"}[r.Traced], r.SetupS, r.WallS, r.Ops, r.Msgs, r.OpNsP50, r.SliceSamples,
		r.HeapLive, r.HeapPeak, r.Mallocs, r.Failed, r.Attempted, r.Fingerprint, r.CalibBeforeNs, r.CalibAfterNs, flag)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "bench:   FAILED %s\n", f)
	}
}

// tally folds the correctness gate of several repetitions into one result:
// ops attempted and failed are summed, and a simulated outcome that differs
// between repetitions of one seed is itself a failure.
func tally(w io.Writer, reps []repResult) result {
	res := result{Metrics: map[string]metricValue{}}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if r.Fingerprint != reps[0].Fingerprint {
			res.Failed++
			fmt.Fprintf(w, "bench:   FAILED determinism: sim_fingerprint %s differs from the first repetition's %s\n", r.Fingerprint, reps[0].Fingerprint)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// endToEndRun repeats the workload untraced, each repetition in a fresh
// process, until the measuring budget is used, and reports every end-to-end
// metric.
func endToEndRun(s spec, o options, stderr io.Writer, rep repRunner) (result, error) {
	const minReps = 3
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var reps []repResult
	for {
		r, err := rep(o)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		describe(stderr, len(reps), r)
		elapsed := time.Since(start)
		if len(reps) >= minReps && elapsed+elapsed/time.Duration(len(reps)) > budget {
			break
		}
	}
	res := tally(stderr, reps)

	col := func(f func(r repResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		sort.Float64s(xs)
		return xs
	}
	// A timing's reported value is a minimum over the repetitions:
	// interference on a shared host only ever adds time. For the timed
	// window the minimum is taken slice by slice (quietWindow), for set-up
	// over the whole. Memory is reported as a median.
	quiet, perOp, same := quietWindow(reps)
	if !same {
		res.Failed++
		res.Correct = false
		fmt.Fprintln(stderr, "bench:   FAILED determinism: repetitions of one seed cut the timed window into different slices")
	}
	walls := col(func(r repResult) float64 { return r.WallS })
	values := map[string]float64{
		"setup_s":                     col(func(r repResult) float64 { return r.SetupS })[0],
		"wall_s":                      quiet,
		"op_ns_p50":                   quantile(perOp, 0.5),
		"ops_per_s":                   float64(reps[0].Ops) / quiet,
		"msgs_per_s":                  float64(reps[0].Msgs) / quiet,
		"heap_live_bytes_per_machine": quantile(col(func(r repResult) float64 { return float64(r.HeapLive) }), 0.5) / float64(reps[0].Machines),
		"heap_peak_bytes":             quantile(col(func(r repResult) float64 { return float64(r.HeapPeak) }), 0.5),
	}
	fmt.Fprintf(stderr, "bench: %s: %d repetitions in %.1fs; whole repetitions took min=%.4f q1=%.4f median=%.4f q3=%.4f s, %d slices each; failed %d of %d attempted\n",
		s.name, len(reps), time.Since(start).Seconds(), walls[0], quantile(walls, 0.25), quantile(walls, 0.5), quantile(walls, 0.75), len(reps[0].SliceNs), res.Failed, res.Attempted)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		fmt.Fprintf(stderr, "bench:   %-30s %16.6g %s\n", m.name, values[m.name], m.unit)
	}
	return res, nil
}

// quietWindow is the timed window on a quiet host. A slice does the same
// simulated work in every repetition of a seed, so the fastest repetition of
// each slice is that slice without interference; a host that is busy for
// seconds on end still leaves most slices a quiet repetition, which the
// fastest whole repetition does not. It returns the sum of those minima in
// seconds, the sorted host ns per op of the slices that completed ops, and
// whether every repetition cut the window into the same slices.
func quietWindow(reps []repResult) (seconds float64, perOp []float64, same bool) {
	ns := slices.Clone(reps[0].SliceNs)
	same = true
	for _, r := range reps[1:] {
		if !slices.Equal(r.SliceOps, reps[0].SliceOps) {
			same = false
		}
		ns = ns[:min(len(ns), len(r.SliceNs))]
		for i := range ns {
			ns[i] = min(ns[i], r.SliceNs[i])
		}
	}
	for _, v := range ns {
		seconds += v / 1e9
	}
	return seconds, nsPerOp(ns, reps[0].SliceOps[:len(ns)]), same
}

// perLayerRun makes one untraced and one traced repetition of the workload
// (sequential shards, so span intervals are exact), measures the isolated
// rows and the open-loop parallel speed-up, and reports every per-layer
// metric.
func perLayerRun(s spec, o options, stderr io.Writer, rep repRunner) (result, error) {
	plain, err := rep(o)
	if err != nil {
		return result{}, err
	}
	describe(stderr, 1, plain)
	to := o
	to.traced, to.seq = true, true
	traced, err := rep(to)
	if err != nil {
		return result{}, err
	}
	describe(stderr, 2, traced)
	if traced.Spans == nil {
		return result{}, errors.New("traced repetition recorded no spans")
	}
	res := tally(stderr, []repResult{plain, traced})

	values := map[string]float64{}
	for k, v := range plain.Counters {
		values[k] = v
	}
	ops := float64(max(plain.Ops, 1))
	values["runtime.allocs_per_op"] = float64(plain.Mallocs) / ops
	values["runtime.alloc_bytes_per_op"] = float64(plain.AllocB) / ops
	values["runtime.cpu_s"] = plain.CPUS
	values["runtime.gc_cycles"] = float64(plain.GCCycles)
	values["runtime.gc_pause_ms"] = plain.GCPauseMs
	values["host.op_ns_p99"] = plain.OpNsP99
	values["host.calib_ns"] = min(plain.CalibBeforeNs, plain.CalibAfterNs)
	values["host.num_cpu"] = float64(runtime.NumCPU())
	values["trace.overhead_ratio"] = traced.WallS / plain.WallS

	var total int64
	for _, a := range traced.Spans.Classes {
		total += a.Ns
	}
	for _, c := range classNames {
		a := traced.Spans.Classes[c]
		values["span."+c+".events"] = float64(a.Events)
		if a.Events > 0 {
			values["span."+c+".ns_per_event"] = float64(a.Ns) / float64(a.Events)
		}
		if total > 0 {
			values["span."+c+".share"] = float64(a.Ns) / float64(total)
		}
	}
	if share := values["span.other.share"]; share > maxOtherShare {
		res.Failed++
		fmt.Fprintf(stderr, "bench:   FAILED span.other.share = %.3f > %.2f: classify the new event names in spans.go (%s)\n",
			share, maxOtherShare, strings.Join(unclassified(traced.Spans.EventNames), ", "))
	}

	rows, err := layerRows(o.scale)
	if err != nil {
		return result{}, err
	}
	for k, v := range rows {
		values[k] = v
	}

	// The multicore data point: the open-loop run on 2 parallel shards
	// against the same run on one. The simulated outcome may not depend on
	// the shard count.
	seq, po := plain, o
	po.workload = "openloop-1000"
	if s.name != po.workload {
		if seq, err = rep(po); err != nil {
			return result{}, err
		}
		res.Attempted += seq.Attempted
		res.Failed += seq.Failed
	}
	po.par = true
	par, err := rep(po)
	if err != nil {
		return result{}, err
	}
	res.Attempted += par.Attempted
	res.Failed += par.Failed
	if par.Fingerprint != seq.Fingerprint {
		res.Failed++
		fmt.Fprintf(stderr, "bench:   FAILED determinism: openloop-1000 sim_fingerprint is %s on 1 shard, %s on 2 parallel shards\n", seq.Fingerprint, par.Fingerprint)
	}
	values["sim.group.par_speedup.openloop"] = seq.WallS / par.WallS

	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		fmt.Fprintf(stderr, "bench:   %-40s %16.6g %s\n", m.name, values[m.name], m.unit)
	}
	if err := reportModel(s.name, o, res, traced.Spans, stderr); err != nil {
		return result{}, err
	}
	return res, nil
}

// unclassified lists the event names the class table does not know.
func unclassified(names map[string]uint64) []string {
	var out []string
	for _, n := range sortedKeys(names) {
		if eventClass(n) == classOther {
			out = append(out, n)
		}
	}
	return out
}

// layerReport is what a per-layer run leaves in the out directory, beside
// the span dump its traced repetition wrote.
type layerReport struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Scale    float64                `json:"scale"`
	Metrics  map[string]metricValue `json:"metrics"`
	Spans    *spanReport            `json:"span_aggregates"`
}

// reportModel writes the per-layer report and flags every simulated result
// or count that differs from the previous recorded run of the same inputs:
// a change meant only to speed up the simulator must leave them identical.
func reportModel(name string, o options, res result, spans *spanReport, stderr io.Writer) error {
	path := filepath.Join(o.out, name+".json")
	var prev layerReport
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &prev) == nil &&
		prev.Seed == o.seed && prev.Scale == o.scale {
		for _, m := range exactCounters {
			if was, now := prev.Metrics[m.name].Value, res.Metrics[m.name].Value; was != now {
				fmt.Fprintf(stderr, "bench:   MODEL-CHANGED %s: %v -> %v\n", m.name, was, now)
			}
		}
	}
	return writeJSON(path, layerReport{Workload: name, Seed: o.seed, Scale: o.scale, Metrics: res.Metrics, Spans: spans})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
