package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// TimelineEvent is one Chrome trace_event object (the "JSON Array Format"
// consumed by chrome://tracing and Perfetto). Simulated time maps directly:
// sim.Time is microseconds and "ts" is microseconds, so the viewer shows
// the run on the simulation's own clock. "pid" carries the machine number
// so each machine renders as its own process row.
type TimelineEvent struct {
	Name string        `json:"name"`
	Cat  string        `json:"cat"`
	Ph   string        `json:"ph"`
	TS   uint64        `json:"ts"`
	Dur  uint64        `json:"dur,omitempty"`
	PID  int           `json:"pid"`
	TID  int           `json:"tid"`
	Args *timelineArgs `json:"args,omitempty"`
}

type timelineArgs struct {
	Detail string  `json:"detail,omitempty"`
	Value  *uint64 `json:"value,omitempty"`
}

// Timeline accumulates trace events in append order; every producer feeds
// it deterministically (trace ring order, ledger sort order, sample order),
// so the exported bytes are stable across same-seed runs.
type Timeline struct {
	evs []TimelineEvent
}

// WriteJSON renders the timeline in the trace_event JSON object format.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []TimelineEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}{TraceEvents: tl.evs, DisplayTimeUnit: "ms"})
}

// BuildTimeline assembles the standard export, in this order: the event
// recorder's ring as instant events ("ph":"i") on each machine's row — the
// trace.Tracer is one obs sink among several, not a separate plane — then
// every completed migration as a complete event ("ph":"X") on its source
// machine's row, so freeze time is a bar with the §6 cost breakdown in its
// args, then each engine counter sample as two "ph":"C" series the viewer
// draws as stacked area charts.
func BuildTimeline(recs []trace.Record, led *Ledger, samples []CounterSample) *Timeline {
	tl := &Timeline{}
	detail := func(s string) *timelineArgs {
		if s == "" {
			return nil
		}
		return &timelineArgs{Detail: s}
	}
	for _, r := range recs {
		tl.evs = append(tl.evs, TimelineEvent{Name: r.Event(), Cat: r.Cat().String(), Ph: "i",
			TS: uint64(r.T), PID: int(r.Machine), Args: detail(r.Detail())})
	}
	if led != nil {
		for _, r := range led.Records() {
			d := fmt.Sprintf("pid=%v %v->%v bytes=%d packets=%d admin=%d/%dB forwards=%d conv=%d",
				r.PID, r.From, r.To, r.BytesMoved(), r.DataPackets,
				r.AdminMsgs, r.AdminBytes, r.ForwardsAbsorbed, r.ConvergenceForwards)
			tl.evs = append(tl.evs, TimelineEvent{Name: "migrate " + fmt.Sprint(r.PID), Cat: "migrate", Ph: "X",
				TS: uint64(r.Start), Dur: uint64(r.End - r.Start), PID: int(r.From), Args: detail(d)})
		}
	}
	counter := func(name string, at sim.Time, v uint64) {
		tl.evs = append(tl.evs, TimelineEvent{Name: name, Cat: "counter", Ph: "C", TS: uint64(at),
			Args: &timelineArgs{Value: &v}})
	}
	for _, s := range samples {
		counter("events.pending", s.At, uint64(s.Pending))
		counter("events.fired", s.At, s.Fired)
	}
	return tl
}
