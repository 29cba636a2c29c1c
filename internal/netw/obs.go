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
// and attaches the frame-size histogram. Call once, after every machine
// has been attached (and after SetCanonical, which sizes the per-machine
// table to the whole cluster — a shard accounts FramesIn for remote
// receivers, so every shard registers every machine's rows and merged
// snapshots sum to cluster totals): per-machine rows are registered for the
// machines known at call time, by pointer into a table that must not grow
// once it has rows registered (counters.machine panics if it would).
func (n *Network) RegisterObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c := &n.stats
	reg.SampleStruct("netw.", &c.Stats)
	reg.SampleArray("netw.frames.", &c.byKind, kindNames)
	reg.SampleArray("netw.bytes.", &c.bytesByKind, kindNames)
	for m := 1; m < len(c.perMachine); m++ {
		reg.SampleStruct("netw.m"+strconv.Itoa(m)+".", &c.perMachine[m])
	}
	c.sampled = len(c.perMachine) > 1
	n.hFrame = reg.Histogram("netw.frame_bytes")
}
