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

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Instant adds a zero-duration event ("ph":"i") on the given machine row.
func (tl *Timeline) Instant(name, cat string, at sim.Time, machine int, detail string) {
	ev := TimelineEvent{Name: name, Cat: cat, Ph: "i", TS: uint64(at), PID: machine}
	if detail != "" {
		ev.Args = &timelineArgs{Detail: detail}
	}
	tl.evs = append(tl.evs, ev)
}

// Span adds a complete event ("ph":"X") from start to end on the given
// machine row.
func (tl *Timeline) Span(name, cat string, start, end sim.Time, machine int, detail string) {
	ev := TimelineEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: uint64(start), Dur: uint64(end - start), PID: machine,
	}
	if detail != "" {
		ev.Args = &timelineArgs{Detail: detail}
	}
	tl.evs = append(tl.evs, ev)
}

// Counter adds a counter sample ("ph":"C") rendered by the viewer as a
// stacked area chart named after the series.
func (tl *Timeline) Counter(name string, at sim.Time, v uint64) {
	val := v
	tl.evs = append(tl.evs, TimelineEvent{
		Name: name, Cat: "counter", Ph: "C", TS: uint64(at),
		Args: &timelineArgs{Value: &val},
	})
}

// AddTrace converts the existing event recorder's ring into instant events
// — the trace.Tracer is one obs sink among several, not a separate plane.
func (tl *Timeline) AddTrace(recs []trace.Record) {
	for _, r := range recs {
		tl.Instant(r.Event(), r.Cat().String(), r.T, int(r.Machine), r.Detail())
	}
}

// AddLedger converts every completed migration into a span on the source
// machine's row, so freeze time is visible as a bar with the §6 cost
// breakdown in its args.
func (tl *Timeline) AddLedger(l *Ledger) {
	if l == nil {
		return
	}
	for _, r := range l.Records() {
		detail := fmt.Sprintf("pid=%v %v->%v bytes=%d packets=%d admin=%d/%dB forwards=%d conv=%d",
			r.PID, r.From, r.To, r.BytesMoved(), r.DataPackets,
			r.AdminMsgs, r.AdminBytes, r.ForwardsAbsorbed, r.ConvergenceForwards)
		tl.Span("migrate "+fmt.Sprint(r.PID), "migrate", r.Start, r.End, int(r.From), detail)
	}
}

// AddSamples converts engine counter samples into "ph":"C" series.
func (tl *Timeline) AddSamples(samples []CounterSample) {
	for _, s := range samples {
		tl.Counter("events.pending", s.At, uint64(s.Pending))
		tl.Counter("events.fired", s.At, s.Fired)
	}
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

// BuildTimeline assembles the standard export: recorder instants, ledger
// spans, and optional engine counter samples.
func BuildTimeline(recs []trace.Record, led *Ledger, samples []CounterSample) *Timeline {
	tl := NewTimeline()
	tl.AddTrace(recs)
	tl.AddLedger(led)
	tl.AddSamples(samples)
	return tl
}
