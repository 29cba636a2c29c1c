// Merging for the sharded runtime: each shard owns a private Registry and
// Ledger (hot paths never cross a shard boundary to bump a counter), and
// the cluster materializes whole-cluster views on demand by merging the
// per-shard snapshots. Same-named metrics sum — netw.* counters intersect
// across shards by design (a shard accounts FramesIn for remote receivers
// it sends to), while kernel.mN.* rows are naturally disjoint — so the
// merged view equals what a single shared registry would have recorded.
package obs

import "sort"

// MergeSnapshots combines per-shard snapshots into one cluster snapshot at
// time at: same-named counters and samples add their values; same-named
// histograms add Count/Sum and merge buckets by upper bound. The result is
// name-sorted like any Registry snapshot, so WriteText/WriteJSON output is
// deterministic regardless of shard count.
//
// A lone snapshot is returned as it is, stamped at: Registry.Snapshot is
// already name-sorted with no duplicate name, and its histogram buckets are
// fresh slices, so the result shares nothing with registry state (it shares
// its metrics with the argument). One registry's snapshot, the cluster's on
// a single shard, needs no map and no re-sort.
func MergeSnapshots(at uint64, snaps ...Snapshot) Snapshot {
	if len(snaps) == 1 {
		s := snaps[0]
		s.AtMicros = at
		return s
	}
	byName := make(map[string]*Metric)
	var order []string
	for _, s := range snaps {
		for i := range s.Metrics {
			m := &s.Metrics[i]
			acc, ok := byName[m.Name]
			if !ok {
				cp := *m
				cp.Buckets = append([]Bucket(nil), m.Buckets...)
				byName[m.Name] = &cp
				order = append(order, m.Name)
				continue
			}
			acc.Value += m.Value
			acc.Count += m.Count
			acc.Sum += m.Sum
			acc.Buckets = mergeBuckets(acc.Buckets, m.Buckets)
		}
	}
	sort.Strings(order)
	out := Snapshot{AtMicros: at, Metrics: make([]Metric, 0, len(order))}
	for _, name := range order {
		out.Metrics = append(out.Metrics, *byName[name])
	}
	return out
}

// mergeBuckets sums histogram buckets keyed by upper bound. Registries use
// the same power-of-two layout, so this is normally an index-wise add; the
// by-Le merge also handles histograms that grew to different depths.
func mergeBuckets(a, b []Bucket) []Bucket {
	if len(b) == 0 {
		return a
	}
	merged := append([]Bucket(nil), a...)
	for _, bb := range b {
		found := false
		for i := range merged {
			if merged[i].Le == bb.Le {
				merged[i].N += bb.N
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, bb)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Le < merged[j].Le })
	return merged
}

// MergeLedgers returns a ledger viewing every record of the inputs. Records
// are shared, not copied: kernels keep mutating their records after
// completion (forward/link-update attribution), and Records() sorts by
// (Start, PID) at read time, so the merged view stays deterministic and
// live. The view shares the inputs' chunks with their capacity cut, so an
// Add to it never writes into an input.
func MergeLedgers(ledgers ...*Ledger) *Ledger {
	out := &Ledger{}
	for _, l := range ledgers {
		if l == nil {
			continue
		}
		for _, c := range l.chunks {
			out.chunks = append(out.chunks, c[:len(c):len(c)])
		}
	}
	return out
}
