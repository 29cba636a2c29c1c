// Package mapfix is a maporder fixture: map iteration feeding
// order-sensitive sinks (trace emission, message sends, event scheduling,
// printing) and slices that escape unsorted, against the accepted
// collect-then-sort idiom.
package mapfix

import "sort"

// Tracer mimics trace.Tracer: Emit is an order-sensitive sink by name.
type Tracer struct{}

func (Tracer) Emit(ev string, args ...any) {}

// Net mimics a network handle: Send is an order-sensitive sink by name.
type Net struct{}

func (Net) Send(to uint16, payload string) {}

// Engine mimics sim.Engine: After schedules an event, order-sensitive.
type Engine struct{}

func (Engine) After(d uint64, name string, fn func()) {}

// BadEmit traces straight out of a map range: iteration order leaks into
// the trace, so two runs disagree byte-for-byte.
func BadEmit(tr Tracer, procs map[uint32]string) {
	for pid, name := range procs {
		tr.Emit("proc", pid, name) // want maporder
	}
}

// BadSend fires messages in map order.
func BadSend(n Net, peers map[uint16]string) {
	for m, payload := range peers {
		n.Send(m, payload) // want maporder
	}
}

// BadSchedule seeds the event queue in map order.
func BadSchedule(e Engine, waits map[uint32]uint64) {
	for pid, d := range waits {
		_ = pid
		e.After(d, "wake", func() {}) // want maporder
	}
}

// BadCollect appends to an escaping slice in map order and never sorts it.
func BadCollect(procs map[uint32]string) []uint32 {
	var pids []uint32
	for pid := range procs {
		pids = append(pids, pid) // want maporder
	}
	return pids
}

// OKCollectSort is the canonical idiom: collect in any order, then sort
// before the slice is used. No finding.
func OKCollectSort(procs map[uint32]string) []uint32 {
	pids := make([]uint32, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}

// OKFold accumulates an order-insensitive reduction. No finding.
func OKFold(loads map[uint16]uint64) uint64 {
	var total uint64
	for _, l := range loads {
		total += l
	}
	return total
}
