// Package netw simulates the inter-machine communication of DEMOS/MP.
//
// The paper assumes that "reliable message delivery is provided by some
// lower level mechanism, for example, published communications". This
// package is that lower level: frames between kernels experience a base
// latency plus a per-byte transmission cost, may be lost (when a loss rate
// is configured), and are recovered by a per-frame acknowledge/retransmit
// scheme with receiver-side deduplication, so the guarantee the kernels see
// is the paper's: "any message sent will eventually be delivered".
//
// There is one delivery path (canon.go): every frame waits in an arrival
// calendar — a table of lists indexed by arrival time, each ordered by
// (arrival time, receiver, sender, per-sender sequence) — and is handed to
// its receiver by the one gate event of its arrival time, which lands every
// frame due then, so delivery order is a function of simulated time and frame
// identity alone — the same on one engine as on a cluster split across
// several. The engine still counts an event per frame landed.
//
// Both send paths are allocation-free in steady state: per-kind and
// per-machine counters are fixed-size arrays and a dense slice (the map
// form of Stats is rebuilt only in Stats() snapshots), the calendar holds
// its entries by value in a recycled arena, the pump's callback is bound
// once, and the ARQ's copies and flight records are pooled (arq.go) — see
// bench_hotpath_test.go for the zero-alloc guards.
package netw

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// Config sets the network model parameters. Defaults approximate the
// paper's era: a few-Mbit LAN between Z8000-class machines.
type Config struct {
	// Latency is the fixed per-frame propagation+processing delay.
	Latency sim.Time
	// PerByteNanos is the transmission cost per byte, in nanoseconds.
	PerByteNanos uint32
	// LossRate is the probability a frame (or its network-level ack) is
	// dropped. Zero disables the ARQ machinery entirely.
	LossRate float64
	// RetransTimeout is how long the sender waits for a network-level
	// ack before retransmitting.
	RetransTimeout sim.Time
	// MaxRetries bounds retransmissions; afterwards the frame is
	// abandoned: counted Dead and released (e.g. the destination crashed).
	MaxRetries int
}

// DefaultConfig returns the standard parameters: 500µs latency,
// ~2.7µs/byte (≈3 Mbit/s), lossless.
func DefaultConfig() Config {
	return Config{
		Latency:        500,
		PerByteNanos:   2700,
		RetransTimeout: 20000,
		MaxRetries:     30,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Latency == 0 {
		c.Latency = d.Latency
	}
	if c.PerByteNanos == 0 {
		c.PerByteNanos = d.PerByteNanos
	}
	if c.RetransTimeout == 0 {
		c.RetransTimeout = d.RetransTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
}

// Endpoint receives frames addressed to a machine; kernels implement it.
type Endpoint interface {
	DeliverFrame(m *msg.Message)
}

// Stats aggregates network activity. Per-kind counters let the experiments
// separate administrative traffic from data streams and link updates.
// The scalar fields are each counter's only declaration: the live counters
// embed this struct and increment it in place, and the network renders it
// through obs.AppendStruct, so a field added here is the metric
// netw.<snake_case field> with no other edit. The maps are filled only in
// the point-in-time copy Network.Stats() returns; live, they are nil and
// flat arrays stand in.
type Stats struct {
	Frames      uint64
	Bytes       uint64
	Delivered   uint64
	Dropped     uint64 // frames lost to the configured loss rate
	Retransmits uint64
	Duplicates  uint64 // retransmissions suppressed at the receiver
	Dead        uint64 // frames abandoned after MaxRetries

	// Fault-injection accounting (see fault.go). An abandoned frame is
	// counted once, in exactly one of SendFromDown, PartitionDropped,
	// BurstDropped, OrphanDropped or Dead, and released where it dies; no
	// other layer counts it again.
	SendFromDown     uint64 // sends attempted by a crashed machine
	PartitionDropped uint64 // lossless frames severed by a partition
	BurstDropped     uint64 // lossless frames lost to a loss burst
	DupInjected      uint64 // duplicate wire copies injected
	DelayInjected    uint64 // frames given extra transit (reordering)
	OrphanDropped    uint64 // lossless frames that reached a down machine

	ByKind      map[msg.Kind]uint64
	BytesByKind map[msg.Kind]uint64
	PerMachine  map[addr.MachineID]MachineStats
}

// MachineStats counts a single machine's network activity.
type MachineStats struct {
	FramesOut, FramesIn uint64
	BytesOut, BytesIn   uint64
}

// counters is the live, allocation-free form of Stats: the scalars in place
// (maps nil), per-kind tallies in fixed arrays indexed by msg.Kind,
// per-machine tallies in a dense slice indexed by machine id.
type counters struct {
	Stats
	byKind      [msg.KindCount]uint64
	bytesByKind [msg.KindCount]uint64
	perMachine  []MachineStats // indexed by uint16(MachineID)
}

// machine returns the dense slot for m, growing the slice on first sight.
func (c *counters) machine(m addr.MachineID) *MachineStats {
	if n := int(m) + 1 - len(c.perMachine); n > 0 {
		c.perMachine = append(c.perMachine, make([]MachineStats, n)...)
	}
	return &c.perMachine[m]
}

// snapshot copies the scalars and rebuilds the public maps.
func (c *counters) snapshot() Stats {
	s := c.Stats
	s.ByKind = make(map[msg.Kind]uint64)
	s.BytesByKind = make(map[msg.Kind]uint64)
	s.PerMachine = make(map[addr.MachineID]MachineStats)
	for k, v := range c.byKind {
		if v > 0 {
			s.ByKind[msg.Kind(k)] = v
		}
	}
	for k, v := range c.bytesByKind {
		if v > 0 {
			s.BytesByKind[msg.Kind(k)] = v
		}
	}
	for m, ms := range c.perMachine {
		if ms != (MachineStats{}) {
			s.PerMachine[addr.MachineID(m)] = ms
		}
	}
	return s
}

// dedupSpan is how far below a pair's highest delivered sequence the
// receiver still remembers what it delivered, in the SENDER's sequence space
// (a sender's sequence is dense over all its receivers, so a pair sees a
// sparse, increasing subset of it); the window moves a 64-sequence word at a
// time, so it covers between dedupSpan-63 and dedupSpan sequences. A
// duplicate trails its original by at most MaxRetries*RetransTimeout, so
// dedup is exact while one machine sends fewer than dedupSpan-63 frames in
// that time: 16 321 frames in the default 30 × 20 ms retry budget is
// 27 frames/ms sustained by ONE sender, against the ~5 messages/ms its
// simulated CPU handles. Must be a multiple of 64.
const (
	dedupSpan  = 16384
	dedupWords = dedupSpan / 64
)

// dedup is the receiver's memory of one (from, to) pair: the highest
// sequence delivered so far and a bit per sequence in the dedupSpan below it.
// The sender's sequence is monotone, so an arrival above hi is new by
// construction — one compare, the common case; only retransmissions,
// reordered frames and injected duplicates at or below hi read a bit. A
// sequence that has fallen out of the window has aged out and is treated as
// unseen (delivered again) — the case the bound above makes unreachable. The
// state is a fixed ~2 KB per pair however long loss is sustained.
//
// Pairs are sparse: state is created on a pair's first arrival, stamped on
// every use, and evicted back to a free pool once the pair has been idle
// longer than any duplicate could survive (sweepDedup). On a 1000-machine
// topology the map therefore tracks O(active pairs), never O(n²) — see
// TestDedupMemoryBoundedOnLargeTopology.
type dedup struct {
	hi   uint64             // highest sequence delivered; 0 before the first
	bits [dedupWords]uint64 // word w%dedupWords: sequences 64w..64w+63, for the dedupWords words up to hi's
	last sim.Time           // sim time of the pair's most recent arrival
	next *dedup             // free-pool linkage while evicted
}

// reset clears the window in place so the struct can be recycled for a
// different pair.
func (d *dedup) reset() { *d = dedup{} }

// admit records sequence seq as delivered and reports whether it was new.
// A word holds only bits of sequences delivered since the window entered it:
// it is zeroed on entry, and nothing above hi is ever recorded.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq and TestDedupMatchesReferenceSet.
func (d *dedup) admit(seq uint64) bool {
	w, hw, bit := seq/64, d.hi/64, uint64(1)<<(seq%64)
	word := &d.bits[w%dedupWords]
	switch {
	case seq > d.hi:
		if w-hw >= dedupWords {
			d.bits = [dedupWords]uint64{}
		} else {
			for x := hw + 1; x <= w; x++ {
				d.bits[x%dedupWords] = 0
			}
		}
		d.hi = seq
	case hw-w >= dedupWords:
		return true // aged out of the window: unseen, and nowhere to record it
	case *word&bit != 0:
		return false
	}
	*word |= bit
	return true
}

// Network connects the machines of a cluster.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	ms    []machine // per-machine state, indexed by uint16(MachineID)
	stats counters

	// Delivery state (canon.go). Until SetCanonical narrows it, every
	// attached machine is local: local and ship stay nil and total is 0.
	total  addr.MachineID            // cluster size once SetCanonical ran: ids up to it are routable
	local  func(addr.MachineID) bool // nil: every machine is on this engine
	ship   func(RemoteFrame)         // hands a frame for another shard to the cluster
	ret    *msg.Pool                 // what release puts through: a plain pool (Put sends home), this shard's return pool once SetCanonical ran
	pumpFn func()                    // bound once; fires pending deliveries due now

	// The arrival calendar (canon.go): pendSlots[at&mask] is the list of the
	// frames due at at (and at any time that aliases to it), in pendLess
	// order, threaded through the arena pend.
	pend      []pendEnt  // index-stable entry storage; entry 0 is the nil link
	pendSlots []pendSlot // len is a power of two
	pendFree  int32      // first recycled entry (they chain through next), 0 if none
	pendN     int        // queued entries: PendingFrames

	// ARQ state (arq.go), armed when LossRate > 0. flights is the
	// per-sender in-flight table, indexed by sending machine and then
	// direct-mapped by its dense sequence — a side table, so the lossless
	// machine record carries none of it; every flight lives on the sending
	// machine's own shard, inflight counts the un-acked ones and flightFree
	// recycles the records. delivered is the receiver-side dedup state:
	// sparse (first arrival creates a pair's state) and bounded (idle pairs
	// are swept back into dedupFree), so long runs on large topologies stay
	// O(active pairs). seed keys every hash draw, lossless burst drops
	// included.
	seed       uint64
	arqOn      bool
	flights    []arqSender
	inflight   int
	flightFree *arqFlight
	delivered  map[pair]*dedup
	dedupFree  *dedup // pool of evicted, reset dedup states
	arrivals   uint64 // arrive() calls, drives the amortized sweep

	// Fault-injection state (fault.go). faulty is the single hot-path
	// guard: it is true only while some injected condition could alter a
	// send, so the annotated fast path pays one boolean test when the
	// fault plane is idle.
	faulty    bool
	parts     map[pair]struct{} // severed pairs, normalized from<to
	burstRate float64
	burstEnd  sim.Time
	dupNext   map[pair]int      // directional: duplicate the next n frames
	delayNext map[pair]sim.Time // directional: extra transit for next frame

	// Observability (obs.go): the frame-size histogram, nil until
	// RegisterObs; account touches it behind one nil check.
	hFrame *obs.Histogram
}

type pair struct{ from, to addr.MachineID }

// machine is the network's state for one machine id, attached here or (in a
// sharded cluster) merely known: a dense table, so the send path does no
// hashing.
type machine struct {
	ep    Endpoint   // nil: not attached to this engine
	owner FrameOwner // ep, if it also takes back the envelopes it sent
	down  bool       // crashed: frames to it are lost
	seq   uint64     // dense count of frames it has sent (shard-invariant)
}

// mach returns machine m's slot, growing the table on first sight.
func (n *Network) mach(m addr.MachineID) *machine {
	if grow := int(m) + 1 - len(n.ms); grow > 0 {
		n.ms = append(n.ms, make([]machine, grow)...)
	}
	return &n.ms[m]
}

// New creates a network driven by eng, with every machine attached to it
// local to that engine. Hash-drawn loss decisions are keyed by the engine's
// seed; with LossRate > 0 the ARQ (arq.go) is armed.
func New(eng *sim.Engine, cfg Config) *Network {
	cfg.fillDefaults()
	n := &Network{
		eng:       eng,
		cfg:       cfg,
		seed:      uint64(eng.Seed()),
		delivered: make(map[pair]*dedup),
		parts:     make(map[pair]struct{}),
		dupNext:   make(map[pair]int),
		delayNext: make(map[pair]sim.Time),
		pend:      make([]pendEnt, 1), // entry 0: the nil link
		pendSlots: make([]pendSlot, pendMinSlots),
		ret:       msg.NewPool(),
	}
	n.pumpFn = n.pump
	n.arqOn = cfg.LossRate > 0
	return n
}

// Config returns the active configuration.
func (n *Network) Config() Config { return n.cfg }

// Attach registers the endpoint for machine m. An endpoint that also
// implements FrameOwner lends the network its pool; on a shard
// (SetCanonical) that pool joins the shard's return pool.
func (n *Network) Attach(m addr.MachineID, ep Endpoint) {
	ms := n.mach(m)
	if ms.ep != nil {
		panic(fmt.Sprintf("netw: machine %v attached twice", m))
	}
	ms.ep = ep
	ms.owner, _ = ep.(FrameOwner)
	if ms.owner != nil && n.local != nil {
		ms.owner.FramePool().ReturnVia(n.ret)
	}
	n.stats.machine(m) // pre-size the dense per-machine counters
}

// SetDown marks a machine as crashed (true) or recovered (false). Frames to
// a down machine are lost; the ARQ keeps retrying until MaxRetries.
func (n *Network) SetDown(m addr.MachineID, down bool) { n.mach(m).down = down }

// Down reports whether machine m is marked crashed.
func (n *Network) Down(m addr.MachineID) bool { return int(m) < len(n.ms) && n.ms[m].down }

// Stats returns a snapshot of the accumulated counters.
func (n *Network) Stats() Stats { return n.stats.snapshot() }

// TransitTime returns the modeled one-way time for a frame of size bytes:
// one LAN hop, the fixed latency plus the per-byte transmission cost.
func (n *Network) TransitTime(size int) sim.Time {
	return n.cfg.Latency + sim.Time(uint64(size)*uint64(n.cfg.PerByteNanos)/1000)
}

// Routable reports whether to names a machine frames can be sent to.
// Machines on other shards have no local endpoint; any id within the
// cluster is routable. Senders that take a machine id off the wire check
// it here: Send treats an unroutable id as a programming error.
func (n *Network) Routable(to addr.MachineID) bool {
	return to != 0 && int(to) < len(n.ms) && (n.ms[to].ep != nil || to <= n.total)
}

// Send transmits m from machine 'from' to machine 'to'. Delivery is
// asynchronous; with a configured loss rate the frame is retransmitted
// until acknowledged. A send from a down machine is counted (SendFromDown)
// and released on the spot: a crashed kernel cannot transmit, but the loss
// must not be silent. m is dead to the caller once Send returns: the network
// may already have released it.
//
//demos:hotpath — the lossless path must stay allocation-free: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send and BenchmarkNetwSend in bench_hotpath_test.go.
func (n *Network) Send(from, to addr.MachineID, m *msg.Message) {
	if from == to {
		panicLocalSend(from, to)
	}
	if !n.Routable(to) {
		panicNoEndpoint(to)
	}
	if n.Down(from) {
		n.stats.SendFromDown++
		n.release(m)
		return
	}
	if n.faulty {
		n.sendFaulty(from, to, m)
		return
	}
	size := m.WireSize()
	n.account(from, to, m, size)
	if n.arqOn {
		n.canonSendARQ(from, to, m, size, 0, false)
		return
	}
	n.canonSend(from, to, m, size, 0)
}

// panicLocalSend and panicNoEndpoint keep fmt's formatting machinery (and
// its interface boxing) off the annotated Send hot path; they run only on
// programming errors.
func panicLocalSend(from, to addr.MachineID) {
	panic(fmt.Sprintf("netw: local send %v->%v must not use the network", from, to))
}

func panicNoEndpoint(to addr.MachineID) {
	panic(fmt.Sprintf("netw: no endpoint for machine %v", to))
}

//demos:hotpath — flat-array counters, no map writes: checked by demoslint (hotpathalloc) and TestHotPathZeroAlloc/netw-send.
func (n *Network) account(from, to addr.MachineID, m *msg.Message, size int) {
	c := &n.stats
	c.Frames++
	c.Bytes += uint64(size)
	if k := int(m.Kind); k < msg.KindCount {
		c.byKind[k]++
		c.bytesByKind[k] += uint64(size)
	}
	fs := c.machine(from)
	fs.FramesOut++
	fs.BytesOut += uint64(size)
	ts := c.machine(to)
	ts.FramesIn++
	ts.BytesIn += uint64(size)
	if n.hFrame != nil {
		n.hFrame.Observe(uint64(size))
	}
}

//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send in bench_hotpath_test.go.
func (n *Network) deliver(to addr.MachineID, m *msg.Message) {
	t := &n.ms[to]
	if t.down {
		n.dropToDown(to, m)
		return
	}
	n.stats.Delivered++
	t.ep.DeliverFrame(m)
}

// dedupPairs reports how many pairs currently hold dedup state (test hook
// for the O(active pairs) bound).
func (n *Network) dedupPairs() int { return len(n.delivered) }

// dedupPooled reports how many evicted dedup states sit in the free pool
// (test hook).
func (n *Network) dedupPooled() int {
	c := 0
	for d := n.dedupFree; d != nil; d = d.next {
		c++
	}
	return c
}

// dedupSweepEvery amortizes idle-pair eviction: one sweep per this many
// arrivals keeps the scan cost negligible against delivery work.
const dedupSweepEvery = 256

// dedupRetention is how long an idle pair's dedup state must be kept: no
// duplicate can trail the original by more than the full retry budget, so
// twice that is a safe eviction horizon.
func (n *Network) dedupRetention() sim.Time {
	return 2 * n.cfg.RetransTimeout * sim.Time(n.cfg.MaxRetries)
}

// sweepDedup evicts dedup state for pairs idle past the retention horizon,
// recycling the structs through the free pool. Keys are collected and
// sorted before mutation so the pool's ordering stays deterministic.
func (n *Network) sweepDedup() {
	ret := n.dedupRetention()
	now := n.eng.Now()
	if now <= ret {
		return
	}
	cutoff := now - ret
	var idle []pair
	for k, d := range n.delivered {
		if d.last < cutoff {
			idle = append(idle, k)
		}
	}
	if len(idle) == 0 {
		return
	}
	sort.Slice(idle, func(i, j int) bool {
		if idle[i].from != idle[j].from {
			return idle[i].from < idle[j].from
		}
		return idle[i].to < idle[j].to
	})
	for _, k := range idle {
		d := n.delivered[k]
		d.reset()
		d.next = n.dedupFree
		n.dedupFree = d
		delete(n.delivered, k)
	}
}

// getDedup pops a recycled dedup state or builds a fresh one.
func (n *Network) getDedup() *dedup {
	if d := n.dedupFree; d != nil {
		n.dedupFree = d.next
		d.next = nil
		return d
	}
	return new(dedup)
}

// arrive lands one ARQ frame copy at the receiver, suppressing (and
// releasing) copies of a sequence already delivered — retransmissions and
// injected duplicates alike. Returns whether the frame was actually delivered.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (n *Network) arrive(from, to addr.MachineID, m *msg.Message, seq uint64) bool {
	n.arrivals++
	if n.arrivals%dedupSweepEvery == 0 {
		n.sweepDedup()
	}
	key := pair{from, to}
	seen := n.delivered[key]
	if seen == nil {
		seen = n.getDedup()
		n.delivered[key] = seen
	}
	seen.last = n.eng.Now()
	if !seen.admit(seq) {
		n.stats.Duplicates++
		n.release(m)
		return false
	}
	n.deliver(to, m)
	return true
}
