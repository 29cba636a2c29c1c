package main

import (
	"math/bits"
	"strings"
	"time"

	"demosmp/internal/sim"
)

// Span classes. One span is one fired event: it runs from the moment the
// engine fires the event to the moment the same engine fires its next one,
// so it covers the callback plus the engine's own pop/push work. The class
// is the event name's layer, which is as fine as spans recorded from outside
// the program can be: netw-delivery includes kernel.DeliverFrame (routing,
// enqueue, migration-admin handling), kernel-slice includes Body.Step and
// every syscall and send it makes.
const (
	classNetwDelivery = iota
	classNetwARQ
	classKernelSlice
	classKernelLocal
	classKernelMovedata
	classKernelTimer
	classKernelHousekeeping
	classWorkloadArrival
	classDriver
	classOther
	numClasses
)

var classNames = [numClasses]string{
	"netw-delivery", "netw-arq", "kernel-slice", "kernel-local", "kernel-movedata",
	"kernel-timer", "kernel-housekeeping", "workload-arrival", "driver", "other",
}

// eventClass is the event-name -> class table. A name it does not know is
// classOther; the run fails if other exceeds 5% of traced time, so a new
// event name gets classified rather than silently pooled.
func eventClass(name string) int {
	switch name {
	case "netw:deliver", "netw:pump", "netw:dup", "netw:sink":
		return classNetwDelivery
	case "netw:ack", "netw:retrans-check":
		return classNetwARQ
	case "kernel:slice":
		return classKernelSlice
	case "kernel:local-deliver":
		return classKernelLocal
	case "kernel:data-packet":
		return classKernelMovedata
	case "kernel:timer":
		return classKernelTimer
	case "kernel:migrate-watchdog", "kernel:search-timeout", "kernel:load-report":
		return classKernelHousekeeping
	case "wl:arrival":
		return classWorkloadArrival
	}
	if strings.HasPrefix(name, "bench:") {
		return classDriver
	}
	return classOther
}

// rawSpan is one recorded span. Start and End are host ns since the timed
// window began; ID is the event's ordinal on its engine; the parent of
// every span is the run span (the timed window itself).
type rawSpan struct {
	Engine int    `json:"engine"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const maxRawSpans = 65536 // raw spans kept per engine; aggregates cover all

type classAgg struct {
	Events uint64     `json:"events"`
	Ns     int64      `json:"ns"`
	Log2   [40]uint64 `json:"log2_ns_histogram"`
}

// engineTracer turns one engine's OnFire hook into spans. Each engine has
// its own, so sequential shards need no locking.
type engineTracer struct {
	engine   int
	origin   time.Time
	hookCost int64 // calibrated cost of the hook itself, subtracted per span

	open      bool
	openKind  int // index into kinds
	openStart int64
	ordinal   uint64

	agg [numClasses]classAgg
	// kinds holds every event name seen with its class and count. A run
	// fires about ten names, so a scan beats a map on the per-event path.
	kinds []eventKind
	raw   []rawSpan
}

type eventKind struct {
	name  string
	class int
	count uint64
}

func (t *engineTracer) onFire(name string, _ sim.Time) {
	now := int64(time.Since(t.origin))
	t.close(now)
	kind := -1
	for i := range t.kinds {
		if t.kinds[i].name == name {
			kind = i
			break
		}
	}
	if kind < 0 {
		kind = len(t.kinds)
		t.kinds = append(t.kinds, eventKind{name: name, class: eventClass(name)})
	}
	t.open, t.openKind, t.openStart = true, kind, now
	t.ordinal++
}

// close ends the open span at host time now.
func (t *engineTracer) close(now int64) {
	if !t.open {
		return
	}
	t.open = false
	d := now - t.openStart - t.hookCost
	if d < 0 {
		d = 0
	}
	k := &t.kinds[t.openKind]
	k.count++
	a := &t.agg[k.class]
	a.Events++
	a.Ns += d
	a.Log2[bits.Len64(uint64(d))]++
	if len(t.raw) < maxRawSpans {
		t.raw = append(t.raw, rawSpan{Engine: t.engine, Class: classNames[k.class],
			Name: k.name, ID: t.ordinal, Start: t.openStart, End: now})
	}
}

// spanReport is what a traced repetition adds to its result.
type spanReport struct {
	HookCostNs int64               `json:"hook_cost_ns"`
	Classes    map[string]classAgg `json:"classes"`
	EventNames map[string]uint64   `json:"event_names"`
	Raw        []rawSpan           `json:"raw,omitempty"`
}

// installTracers hooks every engine of the instance and returns a function
// that closes the open spans and merges the per-engine aggregates.
func installTracers(inst *instance, origin time.Time) func() spanReport {
	cost := calibrateHook()
	tracers := make([]*engineTracer, max(inst.c.Shards(), 1)) // Shards() is 0 on the single-engine runtime
	for s := range tracers {
		t := &engineTracer{engine: s, origin: origin, hookCost: cost, raw: make([]rawSpan, 0, maxRawSpans)}
		tracers[s] = t
		inst.c.EngineOfShard(s).OnFire = t.onFire
	}
	return func() spanReport {
		end := int64(time.Since(origin))
		rep := spanReport{HookCostNs: cost, Classes: map[string]classAgg{}, EventNames: map[string]uint64{}}
		for s, t := range tracers {
			inst.c.EngineOfShard(s).OnFire = nil
			t.close(end)
			for c, a := range t.agg {
				sum := rep.Classes[classNames[c]]
				sum.Events += a.Events
				sum.Ns += a.Ns
				for i, n := range a.Log2 {
					sum.Log2[i] += n
				}
				rep.Classes[classNames[c]] = sum
			}
			for _, k := range t.kinds {
				rep.EventNames[k.name] += k.count
			}
			rep.Raw = append(rep.Raw, t.raw...)
		}
		return rep
	}
}

// calibrateHook times the hook against an empty callback: the per-span cost
// of observing, which close subtracts so that spans report the program's
// time rather than the tracer's.
func calibrateHook() int64 {
	const n = 200_000
	best := int64(1 << 62)
	for r := 0; r < 3; r++ {
		t := &engineTracer{origin: time.Now(), raw: make([]rawSpan, 0, maxRawSpans)}
		start := time.Now()
		for i := 0; i < n; i++ {
			t.onFire("kernel:slice", 0)
		}
		if d := int64(time.Since(start)) / n; d < best {
			best = d
		}
	}
	return best
}
