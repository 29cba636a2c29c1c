// Package obs is the cluster observability plane: a deterministic metrics
// registry, the per-migration cost ledger (§6), and exporters (text/JSON
// snapshots, Chrome trace_event timelines).
//
// Design rules, in priority order:
//
//  1. Zero allocations on the hot path. Counters are plain uint64 struct
//     fields and histogram buckets a fixed array; no maps, no locks, no
//     interfaces anywhere a per-message code path can reach. Everything
//     else — registration, snapshotting, export — is cold and may allocate
//     freely.
//  2. Exactly one declaration per value, and names only in Snapshot. The
//     registry is a list of row owners (AddRows): each renders its rows
//     when Snapshot runs, so a machine costs the registry one interface
//     value, and its metric names exist only in the snapshot. A counter is
//     a field of its owner's stats struct and nothing else: the owner
//     renders the struct through AppendStruct, which derives metric names
//     from field names (derive.go) and reads the fields at that moment, so
//     a number can never drift between "the struct" and "the registry".
//     Only genuinely new metrics (latency/size histograms) and values an
//     owner computes are not fields of a stats struct.
//  3. Deterministic output. Snapshots are sorted by metric name and
//     rendered through explicit structs — no map iteration feeds an
//     exporter (demoslint maporder), so two same-seed runs emit
//     byte-identical bytes.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"demosmp/internal/sim"
)

// Histogram is a power-of-two-bucket histogram: bucket 0 counts
// observations of exactly 0, bucket i (1..64) counts observations whose bit
// length is i, i.e. values in [2^(i-1), 2^i). Observe is a bits.Len64,
// three increments and a bounds test — cheap enough for per-message paths.
// buckets reaches only up to the highest bucket observed, so a histogram of
// small values costs a few words, not 65 of them: a kernel's latency
// histogram keeps ~100–200 B where a fixed array took 576.
type Histogram struct {
	count   uint64
	sum     uint64
	buckets []uint64
}

// Metric renders h as the histogram metric called name. A nil h renders as
// an empty histogram (count=0 sum=0), so an owner may leave its histogram
// unallocated until the first observation.
func (h *Histogram) Metric(name string) Metric {
	out := Metric{Name: name, Kind: "histogram"}
	if h == nil {
		return out
	}
	out.Count = h.count
	out.Sum = h.sum
	out.Value = h.count
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		le := uint64(0)
		if i > 0 {
			le = 1<<uint(i) - 1
		}
		out.Buckets = append(out.Buckets, Bucket{Le: le, N: n})
	}
	return out
}

// Observe records one value. It must inline into the per-message path
// (scripts/check.sh): a new highest bucket grows buckets through append,
// whose growth is the runtime's out-of-line growslice.
//
//demos:hotpath — bucketing via bits.Len64, growing only at a new highest bucket: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip and /netw-send with obs attached.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	i := bits.Len64(v)
	if i >= len(h.buckets) {
		h.buckets = append(h.buckets, make([]uint64, i+1-len(h.buckets))...)
	}
	h.buckets[i]++
}

// Rows is a registration that renders its own metrics when Snapshot runs,
// appending them to dst: an owner registers itself once with AddRows, and
// holds no name, closure or slot in the registry until then. The names it
// renders must be unique; Snapshot panics on a duplicate.
type Rows interface {
	AppendMetrics(dst []Metric) []Metric
}

// Registry is the cluster's list of row owners. It is built once at boot;
// registration is not safe concurrently with snapshots, which is fine in a
// single-threaded discrete-event simulator.
type Registry struct {
	rows []Rows
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// AddRows registers an owner whose metrics Snapshot renders by calling its
// AppendMetrics. Nothing about it is claimed up front: a name it renders
// that collides with another metric is caught in Snapshot.
func (r *Registry) AddRows(rows Rows) {
	r.rows = append(r.rows, rows)
}

// Histogram registers and returns a histogram the registry renders as the
// metric called name.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.AddRows(namedHistogram{name, h})
	return h
}

// namedHistogram is the row owner Histogram registers.
type namedHistogram struct {
	name string
	h    *Histogram
}

func (n namedHistogram) AppendMetrics(dst []Metric) []Metric {
	return append(dst, n.h.Metric(n.name))
}

// Bucket is one histogram bucket in a snapshot: N observations with
// values <= Le (Le = 2^i - 1; the zero bucket has Le = 0).
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// Metric is one rendered metric in a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   uint64   `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time rendering of every registered metric, sorted
// by name. It is plain data: safe to hold across further simulation.
type Snapshot struct {
	AtMicros uint64   `json:"at_us"`
	Metrics  []Metric `json:"metrics"`
}

// Snapshot renders every row owner (cold) and returns a name-sorted
// snapshot stamped with the given simulated time. It panics if a rendered
// name collides with another metric.
func (r *Registry) Snapshot(at sim.Time) Snapshot {
	s := Snapshot{AtMicros: uint64(at), Metrics: []Metric{}}
	for _, rows := range r.rows {
		s.Metrics = rows.AppendMetrics(s.Metrics)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	for i := 1; i < len(s.Metrics); i++ {
		if s.Metrics[i].Name == s.Metrics[i-1].Name {
			panic("obs: duplicate metric name " + s.Metrics[i].Name)
		}
	}
	return s
}

// Get returns the metric with the given name, if present.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	return Metric{}, false
}

// Value returns the named metric's value, or 0 if absent.
func (s Snapshot) Value(name string) uint64 {
	m, _ := s.Get(name)
	return m.Value
}

// WriteText renders the snapshot as stable "name kind value" lines, one
// metric per line, histograms with count/sum/bucket columns.
func (s Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# obs snapshot at t=%dus metrics=%d\n", s.AtMicros, len(s.Metrics))
	for _, m := range s.Metrics {
		if m.Kind == "histogram" {
			fmt.Fprintf(bw, "%s histogram count=%d sum=%d", m.Name, m.Count, m.Sum)
			for _, b := range m.Buckets {
				fmt.Fprintf(bw, " le%d=%d", b.Le, b.N)
			}
			fmt.Fprintln(bw)
			continue
		}
		fmt.Fprintf(bw, "%s %s %d\n", m.Name, m.Kind, m.Value)
	}
	return bw.Flush()
}

// WriteJSON renders the snapshot as indented JSON. Field order comes from
// the struct definitions and metric order from the name sort, so the bytes
// are deterministic.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
