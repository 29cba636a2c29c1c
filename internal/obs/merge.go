package obs

// Merging for the sharded runtime: each shard owns a private Registry and
// Ledger (hot paths never cross a shard boundary to bump a counter), and
// the cluster materializes whole-cluster views on demand by merging the
// per-shard snapshots. Same-named metrics sum — netw.* counters intersect
// across shards by design (a shard accounts FramesIn for remote receivers
// it sends to), while kernel.mN.* rows are naturally disjoint — so the
// merged view equals what a single shared registry would have recorded.

// MergeSnapshots combines per-shard snapshots into one cluster snapshot at
// time at: same-named counters and gauges add their values; same-named
// histograms add Count/Sum and merge buckets by upper bound. Every input is
// name-sorted with no duplicate name, as Registry.Snapshot makes it, so the
// merge walks the inputs in step and the result is name-sorted too:
// WriteText/WriteJSON output is deterministic regardless of shard count.
// The merge writes into no input (it may share an input's metrics), and
// Registry.Snapshot renders buckets into fresh slices, so the result
// shares nothing with registry state.
func MergeSnapshots(at uint64, snaps ...Snapshot) Snapshot {
	out := Snapshot{AtMicros: at, Metrics: []Metric{}}
	for _, s := range snaps {
		out.Metrics = mergeMetrics(out.Metrics, s.Metrics)
	}
	return out
}

// mergeMetrics walks two name-sorted metric lists into a new one, adding
// the two metrics of a name both hold. Merged into nothing, b is its own
// result: the fold's first input is taken as it is, not copied.
func mergeMetrics(a, b []Metric) []Metric {
	if len(a) == 0 {
		return b
	}
	out := make([]Metric, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Name < b[0].Name:
			out, a = append(out, a[0]), a[1:]
		case a[0].Name > b[0].Name:
			out, b = append(out, b[0]), b[1:]
		default:
			m := a[0]
			m.Value += b[0].Value
			m.Count += b[0].Count
			m.Sum += b[0].Sum
			m.Buckets = mergeBuckets(m.Buckets, b[0].Buckets)
			out, a, b = append(out, m), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// mergeBuckets walks two Le-sorted bucket lists into a new one, adding the
// counts of a bound both hold: histograms that grew to different depths
// merge like any other pair.
func mergeBuckets(a, b []Bucket) []Bucket {
	var out []Bucket
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].Le < b[0].Le:
			out, a = append(out, a[0]), a[1:]
		case a[0].Le > b[0].Le:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, Bucket{Le: a[0].Le, N: a[0].N + b[0].N}), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
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
