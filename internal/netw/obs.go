package netw

// Observability wiring for the network: the live counters stay the single
// owner of every wire-level number (frames, wire bytes, drops, retransmits)
// and RegisterObs adopts them by pointer, so the registry reads them at
// snapshot time and nothing is listed twice. The one registry-owned metric
// is the frame-size histogram fed from account behind a nil check, so an
// un-instrumented network pays nothing and an instrumented one pays a
// bits.Len64.

import (
	"strconv"

	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// kindNames are the shared element names of the two per-kind arrays.
var kindNames = func() []string {
	names := make([]string, msg.KindCount)
	for k := range names {
		names[k] = msg.Kind(k).String()
	}
	return names
}()

// RegisterObs registers the network's wire-level counters under "netw.*"
// and attaches the frame-size histogram. Call once. The per-machine rows
// are one registration, rendered at snapshot time for every machine in the
// table then (SetCanonical sizes it to the whole cluster: a shard accounts
// FramesIn for remote receivers, so every shard renders every machine's
// rows and merged snapshots sum to cluster totals).
func (n *Network) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c := &n.stats
	reg.SampleStruct("netw.", &c.Stats)
	reg.SampleArray("netw.frames.", &c.byKind, kindNames)
	reg.SampleArray("netw.bytes.", &c.bytesByKind, kindNames)
	reg.AddRows(c)
	n.hFrame = reg.Histogram("netw.frame_bytes")
}

// AppendMetrics renders the netw.m<id>. rows of every machine in the
// per-machine table through the registry's field-derived rule.
func (c *counters) AppendMetrics(dst []obs.Metric) []obs.Metric {
	for m := 1; m < len(c.perMachine); m++ {
		dst = obs.AppendStruct(dst, "netw.m"+strconv.Itoa(m)+".", &c.perMachine[m])
	}
	return dst
}
