package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
)

// verdict accumulates the correctness gate of one repetition. attempted and
// failed count workload ops (a refused or lost op is a failed op); a broken
// invariant that is not an op counts as one failure, so failed > 0 and a
// non-zero exit code always go together.
type verdict struct {
	attempted, failed uint64
	failures          []string
	// model holds simulated-time results of the run (the §6 bill); a
	// simulator-only speed-up must leave every one identical.
	model map[string]float64
}

func newVerdict() *verdict { return &verdict{model: map[string]float64{}} }

func (v *verdict) check(ok bool, format string, args ...any) {
	if !ok {
		v.failN(1, format, args...)
	}
}

func (v *verdict) failN(n uint64, format string, args ...any) {
	if n == 0 {
		return
	}
	v.failed += n
	if len(v.failures) < 16 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

// section6 is the paper's §6 per-migration bill. The reference error is
// stated as 0: every migration must match exactly.
type section6 struct {
	adminMsgsMin, adminMsgs      int // billed administrative messages: at least, at most
	adminMinBytes, adminMaxBytes int
	transfers                    int
	framesPerForward             int
}

var ref6 = section6{adminMsgsMin: 9, adminMsgs: 9, adminMinBytes: 6, adminMaxBytes: 12, transfers: 3, framesPerForward: 2}

// ref6Lossy is the bill under frame loss. The source bills the messages it
// sees before it completes the migration; a retransmitted MigrateAccept
// (informational at the source) can arrive after that and go unbilled, so a
// lossy run may bill 8. Nothing else about the bill changes.
var ref6Lossy = section6{adminMsgsMin: 8, adminMsgs: 9, adminMinBytes: 6, adminMaxBytes: 12, transfers: 3}

// checkSection6 requires every requested migration to be in the ledger,
// completed, and to have cost exactly the reference bill.
func checkSection6(v *verdict, c *demosmp.Cluster, requested int, ref section6) {
	recs := c.Ledger().Records()
	if len(recs) != requested {
		v.failN(absDiff(uint64(len(recs)), uint64(requested)), "§6: ledger holds %d migrations, %d were requested", len(recs), requested)
	}
	var admin, transfers, bad uint64
	minB, maxB := 0, 0
	freeze := make([]float64, 0, len(recs))
	for _, r := range recs {
		ok := r.OK && r.AdminMsgs >= ref.adminMsgsMin && r.AdminMsgs <= ref.adminMsgs && r.MoveDataTransfers == ref.transfers &&
			r.AdminMinBytes >= ref.adminMinBytes && r.AdminMaxBytes <= ref.adminMaxBytes
		if !ok {
			if bad == 0 {
				v.failures = append(v.failures, fmt.Sprintf(
					"§6: migration of %v %v->%v ok=%v admin=%d (want %d-%d) payload=[%d,%d]B (want %d-%dB) transfers=%d (want %d)",
					r.PID, r.From, r.To, r.OK, r.AdminMsgs, ref.adminMsgsMin, ref.adminMsgs, r.AdminMinBytes, r.AdminMaxBytes,
					ref.adminMinBytes, ref.adminMaxBytes, r.MoveDataTransfers, ref.transfers))
			}
			bad++
		}
		admin += uint64(r.AdminMsgs)
		transfers += uint64(r.MoveDataTransfers)
		if minB == 0 || r.AdminMinBytes < minB {
			minB = r.AdminMinBytes
		}
		if r.AdminMaxBytes > maxB {
			maxB = r.AdminMaxBytes
		}
		freeze = append(freeze, float64(r.FreezeMicros()))
	}
	v.failed += bad
	if n := float64(len(recs)); n > 0 {
		v.model["model.admin_msgs_per_migration"] = float64(admin) / n
		v.model["model.transfers_per_migration"] = float64(transfers) / n
		v.model["model.admin_bytes_min"] = float64(minB)
		v.model["model.admin_bytes_max"] = float64(maxB)
		sort.Float64s(freeze)
		v.model["model.migration_freeze_us_p50"] = quantile(freeze, 0.5)
	}
}

// probeForwardFrames measures, on the quiescent post-run cluster, how many
// network frames a message sent to a stale address costs beyond one sent to
// the current address (paper §6: two — the forwarded resend and the link
// update). It returns -1 if the cluster offers no usable forwarder.
func probeForwardFrames(c *demosmp.Cluster, pid addr.ProcessID) int {
	cur, ok := c.Locate(pid)
	if !ok {
		return -1
	}
	// The machine the process last left holds a forwarder pointing at cur.
	stale := addr.NoMachine
	for m := 1; m <= c.Machines(); m++ {
		if info, ok := c.Kernel(m).Process(pid); ok && info.State == kernel.StateForwarder && info.FwdTo == cur {
			stale = addr.MachineID(m)
		}
	}
	if stale == addr.NoMachine {
		return -1
	}
	// A live process on a third machine is the sender, so the link update
	// has somewhere to go and both hops cross the network.
	var from addr.ProcessAddr
	for m := 1; m <= c.Machines() && from.ID.IsNil(); m++ {
		if addr.MachineID(m) == cur || addr.MachineID(m) == stale {
			continue
		}
		for _, info := range c.Kernel(m).Processes() {
			if info.State != kernel.StateForwarder {
				from = addr.At(info.PID, addr.MachineID(m))
				break
			}
		}
	}
	if from.ID.IsNil() {
		return -1
	}
	frames := func(to addr.MachineID) int {
		before := c.NetStats().Frames
		c.Kernel(int(from.LastKnown)).GiveMessageTo(addr.At(pid, to), from, []byte("probe"))
		c.Run()
		return int(c.NetStats().Frames - before)
	}
	direct := frames(cur)
	return frames(stale) - direct
}

// sumUints adds every unsigned-integer field of struct value s into out
// under the field's name. Reading the public Stats structs by reflection
// keeps the fingerprint and the counters independent of which fields a
// later change adds.
func sumUints(out map[string]uint64, s any) {
	rv := reflect.ValueOf(s)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.CanUint() {
			out[rv.Type().Field(i).Name] += f.Uint()
		}
	}
}

// sumKernelStats sums every kernel's counters cluster-wide.
func sumKernelStats(c *demosmp.Cluster) map[string]uint64 {
	out := map[string]uint64{}
	for m := 1; m <= c.Machines(); m++ {
		ks := c.Kernel(m).Stats()
		sumUints(out, ks)
		out["AdminTotal"] += ks.AdminTotal()
	}
	return out
}

// fingerprint hashes the simulated outcome of a run: merged network
// counters, summed kernel counters and the final simulated clock. It must
// be identical across every repetition of a workload at one seed — traced
// or not, parallel or not — and is printed, not pinned to a golden value.
func fingerprint(c *demosmp.Cluster, ks map[string]uint64) string {
	ns := c.NetStats()
	net := map[string]uint64{}
	sumUints(net, ns)
	for k, n := range ns.ByKind {
		net["kind."+k.String()] = n
	}
	h := fnv.New64a()
	for _, part := range []struct {
		tag string
		m   map[string]uint64
	}{{"netw", net}, {"kernel", ks}} {
		for _, k := range sortedKeys(part.m) {
			fmt.Fprintf(h, "%s.%s=%d\n", part.tag, k, part.m[k])
		}
	}
	fmt.Fprintf(h, "now=%d fired=%d\n", c.Now(), c.TotalFired())
	return fmt.Sprintf("%016x", h.Sum64())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile reads the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
