package netw

// Observability wiring for the network: the live counters stay the single
// owner of every wire-level number (frames, wire bytes, drops, retransmits)
// and the network renders them itself at snapshot time, so nothing is
// listed twice. The one metric that is not a counter is the frame-size
// histogram fed from account behind a nil check, so an un-instrumented
// network pays nothing and an instrumented one pays a bits.Len64.

import (
	"strconv"

	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

// kindNames name the frames.<kind> and bytes.<kind> rows, indexed by kind.
var kindNames = func() []string {
	names := make([]string, msg.KindCount)
	for k := range names {
		names[k] = msg.Kind(k).String()
	}
	return names
}()

// RegisterObs registers the network's rows under "netw.*" (AppendMetrics)
// and attaches the frame-size histogram. Call once.
func (n *Network) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.hFrame = new(obs.Histogram)
	reg.AddRows(n)
}

// AppendMetrics renders the network's rows: every Stats counter through the
// registry's field-derived rule, a frames.<kind> and a bytes.<kind> row per
// message kind, the frame_bytes histogram, and the netw.m<id>. rows of every
// machine in the per-machine table then (SetCanonical sizes it to the whole
// cluster: a shard accounts FramesIn for remote receivers, so every shard
// renders every machine's rows and merged snapshots sum to cluster totals).
func (n *Network) AppendMetrics(dst []obs.Metric) []obs.Metric {
	c := &n.stats
	dst = obs.AppendStruct(dst, "netw.", &c.Stats)
	for k, name := range kindNames {
		dst = append(dst,
			obs.Metric{Name: "netw.frames." + name, Kind: "counter", Value: c.byKind[k]},
			obs.Metric{Name: "netw.bytes." + name, Kind: "counter", Value: c.bytesByKind[k]})
	}
	dst = append(dst, n.hFrame.Metric("netw.frame_bytes"))
	for m := 1; m < len(c.perMachine); m++ {
		dst = obs.AppendStruct(dst, "netw.m"+strconv.Itoa(m)+".", &c.perMachine[m])
	}
	return dst
}
