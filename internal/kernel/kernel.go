// Package kernel implements the per-node DEMOS/MP kernel: processes,
// messages, links, the scheduler, the move-data facility, and — the paper's
// contribution — the 8-step process migration mechanism with forwarding
// addresses and lazy link updating (§3–§5).
//
// A copy of the kernel runs on (is instantiated for) each machine. Kernels
// cooperate purely by exchanging messages through the network substrate;
// "different modules of the kernel on the same processor, as well as
// kernels on different processors, use the message mechanism to communicate
// with each other".
package kernel

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/dvm"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// ProcState is a process's scheduling/lifecycle state as the kernel sees it.
type ProcState uint8

const (
	// StateReady: runnable (queued or currently in a slice).
	StateReady ProcState = iota + 1
	// StateWaiting: blocked in receive on an empty message queue.
	StateWaiting
	// StateSuspended: stopped by the process manager.
	StateSuspended
	// StateInMigration: frozen on the source machine; arriving messages
	// (including DELIVERTOKERNEL ones) are held on the queue (§3.1 step 1).
	StateInMigration
	// StateIncoming: the empty process state allocated on the
	// destination machine (§3.1 step 3), being filled by data moves.
	StateIncoming
	// A forwarding address (§3.1 step 7, type fwd) as Process and
	// Processes report it; no process record is ever in this state.
	StateForwarder
	// StateDead: terminated; the entry is removed immediately after.
	StateDead
)

func (s ProcState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateWaiting:
		return "waiting"
	case StateSuspended:
		return "suspended"
	case StateInMigration:
		return "in-migration"
	case StateIncoming:
		return "incoming"
	case StateForwarder:
		return "forwarder"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ForwardMode selects how messages for a departed process are handled (§4).
type ForwardMode uint8

const (
	// ModeForward leaves a forwarding address and re-routes messages —
	// the paper's design.
	ModeForward ForwardMode = iota
	// ModeReturnToSender is the alternative the paper describes and
	// rejects: no state is left behind; messages bounce to the sending
	// kernel, which must locate the process via the process manager.
	ModeReturnToSender
)

// The timing model, the scheduling quantum and the swap bound. No caller,
// test or benchmark ever set these, so they are constants, not Config
// fields. (The link-table bound is link.DefaultCap for the same reason.)
const (
	// Quantum is the instruction budget per VM scheduling slice.
	Quantum = 500
	// InstrCostNanos is the cost of one VM instruction (Z8000-class: 2µs).
	InstrCostNanos = 2000
	// NativeStepCost charges a native (server) body per Step call.
	NativeStepCost sim.Time = 100
	// NativeMsgCost charges a native body per message received.
	NativeMsgCost sim.Time = 50
	// CtxSwitch is the cost between slices.
	CtxSwitch sim.Time = 50
	// LocalLatency is same-machine message delivery time.
	LocalLatency sim.Time = 30
	// SwapCapacity bounds the swap store (0 = unlimited).
	SwapCapacity = 0
)

// Config parameterizes one kernel. The zero value is filled with defaults.
// Stable storage takes no setting: it follows a checkpointed process (stepCleanup).
type Config struct {
	// DataPacket is the move-data packet payload size (§6: the facility
	// "minimize[s] network overhead by sending larger packets").
	DataPacket int
	// MemCapacity bounds real memory for process images (0 = unlimited).
	MemCapacity int
	// SwapSoftLimit, when set, is the resident-byte threshold above
	// which the kernel swaps out pages of waiting/suspended processes —
	// the load-limiting behavior the paper assumes of contemporary
	// systems (§3.1: "This function is often available in systems with
	// load-limiting schedulers").
	SwapSoftLimit int
	// Mode selects forwarding vs the return-to-sender baseline.
	Mode ForwardMode
	// EagerUpdate broadcasts the new location to every kernel at
	// migration time instead of relying on lazy updates (ablation).
	EagerUpdate bool
	// ReclaimForwarders enables the §4 garbage collection: on process
	// death, forwarding addresses are removed via "pointers backwards
	// along the path of migration".
	ReclaimForwarders bool
	// MigrateTimeout bounds how long either kernel waits for migration
	// progress before aborting and restoring/discarding state. Every
	// protocol message and every data packet of a region moves the
	// deadline, so it only passes when the peer has actually gone silent
	// (e.g. crashed mid-transfer).
	MigrateTimeout sim.Time
	// Registry re-instantiates bodies on arrival.
	Registry *proc.Registry
	// Programs instantiates named programs for OpCreateProcess.
	Programs func(name string, args []string) (SpawnSpec, error)
	// LoadReportEvery enables periodic load reports to the process
	// manager (SetPMLink).
	LoadReportEvery sim.Time
	// OnReport receives a MigrationReport when this kernel completes a
	// migration as the source.
	OnReport func(MigrationReport)
	// Tracer receives structured events (may be nil).
	Tracer *trace.Tracer
	// Machines lists all machines in the cluster (for the EagerUpdate
	// broadcast and the §4 search). The kernel only reads it, so one
	// slice may be shared by every kernel of a cluster.
	Machines []addr.MachineID
}

func (c *Config) fillDefaults() {
	if c.DataPacket <= 0 {
		c.DataPacket = 512
	}
	if c.MigrateTimeout == 0 {
		c.MigrateTimeout = 30_000_000 // 30 simulated seconds
	}
	if c.Registry == nil {
		c.Registry = proc.NewRegistry()
	}
}

// Process is the kernel's process record. The exported view is ProcInfo.
// Field order is by use, not by topic, and the record is exactly 96 bytes,
// Go's 96-byte size class (TestProcessRecordLayout). With tens of
// thousands of short processes alive the first touch of a record is a
// cache miss per line, so the first 64 bytes hold every pointer, so the
// collector's scan of a record stops there, and with them all that a
// scheduling slice reads: state, body, queue and the run-queue link. The
// eight words of that line are full, so cpuUsed, the one field a slice
// writes besides them, opens the second, beside msgsIn, which the
// delivery that woke the process has just written. What only some records
// use (an image, a migration, the previous host, load-report deltas) lives
// beside it in ext, and the queue's high-water mark in its ring
// (queueHighWater).
type Process struct {
	id         addr.ProcessID
	state      ProcState
	prevState  ProcState // state to restore after migration/suspension
	privileged bool
	body       proc.Body
	queue      mailbox
	// runNext is the record behind this one on the kernel's run queue
	// (runQueue), nil when it is the tail or not queued.
	runNext *Process

	// links is nil until the process's first link (a nil table reads as
	// empty); a recycled record keeps its table, emptied.
	links *link.Table
	// ext is nil until the record first needs it (extOf), and on kernels
	// with load reports every record has one from getProcRec on. A recycled
	// record keeps it, emptied.
	ext       *procExt
	cpuUsed   sim.Time
	msgsIn    uint64
	msgsOut   uint64
	createdAt sim.Time
}

// queueHighWater returns the most messages p's queue has held at once. A
// queue holds a second message only in its ring (mailbox), so a count past
// 1 is the ring's; below that, the queue has held one message if it holds
// one now or p has received any.
func (p *Process) queueHighWater() uint32 {
	if r := p.queue.more; r != nil && r.hw > 1 {
		return r.hw
	}
	if p.msgsIn > 0 || p.queue.head != nil {
		return 1
	}
	return 0
}

// procExt is what only some process records use: the memory image of a VM
// or an image-backed native body; the migration half moving the record
// (frozen source, incoming destination); the previous host, for
// death-notice GC; and the load-report deltas since the last report, which
// only kernels with LoadReportEvery > 0 count and only sendLoadReport
// reads. commDelta counts sends per peer machine.
type procExt struct {
	image     *memory.Image
	mig       *migration
	commDelta map[addr.MachineID]uint64
	cpuDelta  sim.Time
	msgsDelta uint64
	cameFrom  addr.MachineID
}

// image returns p's memory image, nil when it has none or p is nil.
func (p *Process) image() *memory.Image {
	if p == nil || p.ext == nil {
		return nil
	}
	return p.ext.image
}

// mig returns the migration half moving p, nil when none is or p is nil.
func (p *Process) mig() *migration {
	if p == nil || p.ext == nil {
		return nil
	}
	return p.ext.mig
}

// cameFrom returns p's previous host, NoMachine when it was created here.
func (p *Process) cameFrom() addr.MachineID {
	if p.ext == nil {
		return addr.NoMachine
	}
	return p.ext.cameFrom
}

// ForwarderWireSize is the storage a forwarding address needs:
// pid(4) + destination machine(2) + back pointer(2) = 8 bytes,
// matching the paper's "it uses 8 bytes of storage".
const ForwarderWireSize = 8

// ProcInfo is a read-only snapshot of a process for tests and tools.
type ProcInfo struct {
	PID        addr.ProcessID
	State      ProcState
	Kind       string
	Links      int
	QueueLen   int
	ImageSize  int
	CPUUsed    sim.Time
	MsgsIn     uint64
	MsgsOut    uint64
	FwdTo      addr.MachineID
	Privileged bool
}

// ExitInfo records how a process ended.
type ExitInfo struct {
	Code int32
	Err  error
	At   sim.Time
}

// uidSlot is one entry of the dense table of locally created pids: the
// live record holding the UID, and how its last holder ended, in 24 bytes
// with one pointer. exited is the flag because the zero exit (time 0, code
// 0) is a valid one. A crash's error is the only part that needs a
// pointer, so it lives in Kernel.localErrs instead.
type uidSlot struct {
	p      *Process
	at     sim.Time
	code   int32
	exited bool
}

// slotPage is the number of UID slots in a page of Kernel.local: 16 slots
// of 24 B fill the 384-byte size class with no slack.
const slotPage = 16

// SpawnSpec describes a process to create.
type SpawnSpec struct {
	// Program, if set, creates a VM process (Body must be nil).
	Program *dvm.Program
	// Body, if set, creates a native process.
	Body proc.Body
	// ImageSize allocates a memory image for a native body (for data
	// areas); ignored for VM processes, whose program defines the size.
	ImageSize int
	// Links are installed in the new process's table in order, getting
	// IDs 1..n. By convention slot 1 is the switchboard link.
	Links []link.Link
	// Privileged marks system processes (may mint links, send control
	// ops).
	Privileged bool
}

// Kernel is one machine's kernel.
type Kernel struct {
	// The small scalars share the struct's first word (2+2+1+1+1 bytes):
	// each in its own padded word, they would push Kernel and the Delivery
	// slot in sliceCtx into the next allocation size class
	// (TestKernelSizeClass). observed: a registry reads this kernel
	// (SetObs), so its first enqueue allocates hLat.
	machine     addr.MachineID
	nextUID     addr.LocalUID
	sliceQueued bool
	crashed     bool
	observed    bool

	eng *sim.Engine
	net *netw.Network
	cfg Config
	// pmLink, when set (SetPMLink), is where self-migration requests, load
	// reports and locate queries go. accept (SetAccept) decides whether to
	// accept an inbound migration; nil accepts whenever memory fits.
	pmLink link.Link
	accept func(ask msg.MigrateAsk, memFree int) bool

	// The process table, split by where the pid was created. local holds
	// the pids this machine created, record and exit record in one slot
	// indexed by local UID, in pages of slotPage slots (UID u is slot
	// u%slotPage of page u/slotPage): a spawn, a delivery lookup and an exit
	// cost two bounds checks each and touch no hash map. The first page
	// grows by append up to a full page, so a kernel that creates a few
	// pids keeps a few slots; every later page is made whole and never
	// moves, so a growing table copies only its page headers and keeps no
	// slack beyond its last page. localErrs holds the errors of
	// local pids that crashed (nil until the first). procs and exits hold
	// only foreign pids (migrated in, revived). eachProc walks both halves.
	// Every map of the kernel is nil until its first write, so a machine
	// that never sees a foreign pid, a transfer or a checkpoint carries no
	// empty map.
	local     [][]uidSlot
	localErrs map[addr.LocalUID]error
	procs     map[addr.ProcessID]*Process
	exits     map[addr.ProcessID]ExitInfo
	runq      runQueue

	// pool recycles message envelopes on the kernel-to-kernel fast path.
	// An envelope it constructed always comes back to it, whichever kernel
	// releases it (msg.Pool.Put forwards home; from another shard, at the
	// next round barrier). Safe on a lossy network too: the ARQ keeps the
	// sent envelope as its master and draws wire copies from here through
	// FramePool, so pooling does not depend on the loss mode and PoolStats
	// audits the ARQ's copies too.
	pool *msg.Pool
	// pendingFree recycles deferred-delivery records (local latency hops,
	// paced data packets and timers): a LIFO chained through the parked
	// records' next fields (getPending, putPending).
	pendingFree *pending

	cpuFreeAt sim.Time

	// runSliceFn and sliceCtx are bound once so arming a slice and running
	// a body allocate nothing: a method value or a fresh procCtx per slice
	// would otherwise be the scheduler's per-slice garbage.
	runSliceFn func()
	sliceCtx   procCtx

	// memUsed is the real memory images hold. swap is the store their
	// pages go out to, nil until the first image (swapStore).
	memUsed int
	swap    *memory.Store

	// procFree recycles whole Process records, each with its queue's ring
	// (if it grew one), emptied link table and emptied side record (see
	// DESIGN.md §7): Spawn/terminate and migrations share it, so a warm
	// kernel spawns and retires processes without growing the heap.
	// It is a LIFO chained through the parked records' body fields
	// (parked, freelist.go): no backing slice, no byte added to a record.
	// Restart orphans the chain to the GC with the records it wipes; the
	// chain only ever holds released records.
	procFree *Process

	// The hot/cold split (cold.go): stats holds the counters a machine
	// that only runs jobs and exchanges user messages writes; coldRec
	// holds the rest of the counters and every field such a machine never
	// touches, nil until the first use of any of them (k.cold()).
	stats   hotStats
	coldRec *coldState
	// rep is the load-report state, made at boot only on a kernel with
	// LoadReportEvery > 0 (sched.go), so a load-reporting machine that
	// never migrates makes no cold record.
	rep *loadReport

	// Observability plane (obs.go): the migration ledger and the kernel's
	// one histogram. led is the one store of this kernel's migration
	// records — the cluster's, attached by SetObs, or else one of its own
	// made at its first completed migration. hLat is nil until the first
	// enqueue of an observed kernel (it renders as empty until then); the
	// hot-path touch is behind a nil check, so a bare kernel pays one
	// predictable branch.
	led  *obs.Ledger
	hLat *obs.Histogram // delivery latency of every queued message, timers included (route -> enqueue), µs
}

// New creates a kernel for machine m, attaches it to the network, and
// returns it ready for Spawn calls.
func New(m addr.MachineID, eng *sim.Engine, net *netw.Network, cfg Config) *Kernel {
	if m == addr.NoMachine {
		panic("kernel: machine 0 is reserved")
	}
	cfg.fillDefaults()
	k := &Kernel{
		machine: m,
		eng:     eng,
		net:     net,
		cfg:     cfg,
		nextUID: 1,
	}
	k.pool = msg.NewPool()
	k.runSliceFn = k.runSlice
	k.sliceCtx.k = k
	net.Attach(m, k)
	if cfg.LoadReportEvery > 0 {
		k.rep = new(loadReport)
		k.scheduleLoadReport()
	}
	return k
}

// Machine returns this kernel's machine id.
func (k *Kernel) Machine() addr.MachineID { return k.machine }

// Config returns the active configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Reports returns the migration reports this kernel produced as a source,
// in completion order: copies of its ledger records as they stand now. The
// transfer, administrative and timing fields are final at completion; the
// §4/§5 residual fields (ForwardsAbsorbed, LinkUpdatesSent,
// ConvergenceForwards) include what the forwarding address has absorbed
// since. (OnReport receives the record as it was at completion.)
func (k *Kernel) Reports() []MigrationReport {
	if k.led == nil {
		return nil
	}
	return k.led.From(k.machine)
}

// Crashed reports whether Crash was called.
func (k *Kernel) Crashed() bool { return k.crashed }

// Crash simulates processor failure: the machine stops sending and
// receiving, and all local state freezes. Frames in flight to it are the
// network's: retried under the ARQ, or counted and released.
func (k *Kernel) Crash() {
	k.crashed = true
	k.net.SetDown(k.machine, true)
}

// Spawn creates a process and schedules it. Mirrors process creation in
// DEMOS: the new process's only connections are the links it is given.
func (k *Kernel) Spawn(spec SpawnSpec) (addr.ProcessID, error) {
	if k.crashed {
		return addr.NilPID, fmt.Errorf("kernel %v: crashed", k.machine)
	}
	var body proc.Body
	var img *memory.Image
	switch {
	case spec.Program != nil && spec.Body != nil:
		return addr.NilPID, fmt.Errorf("kernel: SpawnSpec has both Program and Body")
	case spec.Program != nil:
		var err error
		img, err = spec.Program.BuildImage(k.swapStore())
		if err != nil {
			return addr.NilPID, err
		}
		body = proc.NewVMBody(spec.Program.Entry)
	case spec.Body != nil:
		body = spec.Body
		if spec.ImageSize > 0 {
			img = memory.NewImage(spec.ImageSize, k.swapStore())
		}
	default:
		return addr.NilPID, fmt.Errorf("kernel: SpawnSpec has neither Program nor Body")
	}
	imgSize := 0
	if img != nil {
		imgSize = img.Size()
	}
	if k.cfg.MemCapacity > 0 && k.memUsed+imgSize > k.cfg.MemCapacity {
		return addr.NilPID, fmt.Errorf("kernel %v: out of memory (%d + %d > %d)",
			k.machine, k.memUsed, imgSize, k.cfg.MemCapacity)
	}

	uid, ok := k.allocUID()
	if !ok {
		return addr.NilPID, fmt.Errorf("kernel %v: all %d local process ids are live", k.machine, maxLocalUID)
	}
	pid := addr.ProcessID{Creator: k.machine, Local: uid}
	p := k.getProcRec()
	p.id = pid
	p.state = StateReady
	p.body = body
	if img != nil {
		k.extOf(p).image = img
	}
	p.privileged = spec.Privileged
	p.createdAt = k.eng.Now()
	for _, l := range spec.Links {
		if _, err := k.linksOf(p).Insert(l); err != nil {
			k.putProcRec(p)
			return addr.NilPID, fmt.Errorf("kernel: installing initial link: %w", err)
		}
	}
	if mh, ok := body.(proc.MemoryHolder); ok && img != nil {
		mh.SetImage(img)
	}
	k.memUsed += imgSize
	k.addProc(p)
	k.stats.Spawned++
	k.relieveMemory()
	k.trace(siteSpawn, body.Kind(), trace.PID(pid), trace.Int(imgSize), trace.Int(p.links.Len()))
	k.enqueueRun(p)
	return pid, nil
}

// Process returns a snapshot of a local process, or of the forwarding
// address this kernel holds for pid.
func (k *Kernel) Process(pid addr.ProcessID) (ProcInfo, bool) {
	p := k.lookup(pid)
	if p == nil {
		f, ok := k.coldView().fwds[pid]
		if !ok {
			return ProcInfo{}, false
		}
		return ProcInfo{PID: pid, State: StateForwarder, FwdTo: f.to}, true
	}
	info := ProcInfo{
		PID: p.id, State: p.state, QueueLen: p.queue.Len(),
		CPUUsed: p.cpuUsed, MsgsIn: p.msgsIn, MsgsOut: p.msgsOut,
		Privileged: p.privileged, Links: p.links.Len(),
	}
	if p.body != nil {
		info.Kind = p.body.Kind()
	}
	if img := p.image(); img != nil {
		info.ImageSize = img.Size()
	}
	return info, true
}

// Processes lists local process snapshots and forwarding addresses in
// deterministic pid order, each pid once.
func (k *Kernel) Processes() []ProcInfo {
	var pids []addr.ProcessID
	k.eachProc(func(p *Process) { pids = append(pids, p.id) })
	for pid := range k.coldView().fwds {
		if k.lookup(pid) == nil {
			pids = append(pids, pid)
		}
	}
	sort.Slice(pids, func(i, j int) bool { return pidLess(pids[i], pids[j]) })
	out := make([]ProcInfo, len(pids))
	for i, pid := range pids {
		out[i], _ = k.Process(pid)
	}
	return out
}

// Console returns the lines a process printed on this machine.
func (k *Kernel) Console(pid addr.ProcessID) []string {
	return append([]string(nil), k.coldView().console[pid]...)
}

// Exit returns how a process ended on this machine, if it did.
func (k *Kernel) Exit(pid addr.ProcessID) (ExitInfo, bool) {
	if pid.Creator == k.machine {
		if s := k.slotOf(pid.Local); s != nil && s.exited {
			return ExitInfo{Code: s.code, Err: k.localErrs[pid.Local], At: s.at}, true
		}
		return ExitInfo{}, false
	}
	e, ok := k.exits[pid]
	return e, ok
}

// noteExit records how pid ended here: in pid's slot of the dense table
// (and a crash's error in localErrs) for a pid this machine created, in the
// map otherwise.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) noteExit(pid addr.ProcessID, info ExitInfo) {
	if pid.Creator != k.machine {
		if k.exits == nil {
			k.exits = make(map[addr.ProcessID]ExitInfo)
		}
		k.exits[pid] = info
		return
	}
	s := k.slot(pid.Local)
	s.at, s.code, s.exited = info.At, info.Code, true
	if info.Err != nil {
		if k.localErrs == nil {
			k.localErrs = make(map[addr.LocalUID]error)
		}
		k.localErrs[pid.Local] = info.Err
	}
}

// MintLinkTo fabricates a link to a process address — the trusted-system
// path the process manager uses to get DELIVERTOKERNEL links.
func (k *Kernel) MintLinkTo(l link.Link, owner addr.ProcessID) (link.ID, error) {
	p := k.lookup(owner)
	if p == nil {
		return link.NilID, fmt.Errorf("kernel %v: no process %v", k.machine, owner)
	}
	return k.linksOf(p).Insert(l)
}

// linksOf returns p's link table, installing an empty one at p's first link:
// every Insert goes through here, and every read takes a nil table as empty.
func (k *Kernel) linksOf(p *Process) *link.Table {
	if p.links == nil {
		p.links = &link.Table{}
		p.links.Reset(link.DefaultCap)
	}
	return p.links
}

// ResidentBytes returns the real memory actually occupied by resident
// pages of local process images.
func (k *Kernel) ResidentBytes() int {
	total := 0
	k.eachProc(func(p *Process) {
		if img := p.image(); img != nil {
			total += img.ResidentPages() * memory.PageSize
		}
	})
	return total
}

// relieveMemory swaps out pages of idle (waiting or suspended) processes
// until resident memory falls under the soft limit. Ready processes are
// left alone; their pages would fault right back in.
func (k *Kernel) relieveMemory() {
	if k.cfg.SwapSoftLimit <= 0 {
		return
	}
	resident := k.ResidentBytes()
	if resident <= k.cfg.SwapSoftLimit {
		return
	}
	for _, p := range k.sortedProcs() {
		if resident <= k.cfg.SwapSoftLimit {
			return
		}
		img := p.image()
		if img == nil || (p.state != StateWaiting && p.state != StateSuspended) {
			continue
		}
		freed := img.ResidentPages()
		if _, err := k.SwapOutProcess(p.id); err != nil {
			continue // swap store full; stop trying this process
		}
		freed -= img.ResidentPages()
		resident -= freed * memory.PageSize
		if freed > 0 {
			k.trace(siteSwappedOut, "", trace.PID(p.id), trace.Int(freed))
		}
	}
}

// SwapOutProcess pushes every resident page of a process's image to the
// swap store, freeing real memory. The pages fault back in transparently on
// access — including during migration's program transfer, per §3.1 step 5:
// "the kernel move data operation handles reading or writing of swapped out
// memory". Returns the number of pages moved to swap.
func (k *Kernel) SwapOutProcess(pid addr.ProcessID) (int, error) {
	img := k.lookup(pid).image()
	if img == nil {
		return 0, fmt.Errorf("kernel %v: no swappable image for %v", k.machine, pid)
	}
	moved := 0
	for i := 0; i < img.Pages(); i++ {
		before := img.ResidentPages()
		if err := img.SwapOut(i); err != nil {
			return moved, err
		}
		if img.ResidentPages() < before {
			moved++
		}
	}
	return moved, nil
}

// GiveMessage injects a user message into a local process's queue, as if it
// had arrived from outside the cluster (used by drivers and tests).
func (k *Kernel) GiveMessage(pid addr.ProcessID, from addr.ProcessAddr, body []byte, links ...link.Link) error {
	m := &msg.Message{Kind: msg.KindUser, From: from, To: addr.At(pid, k.machine),
		Body: body, Links: links, SentAt: k.eng.Now()}
	k.deliverLocal(m)
	return nil
}

// GiveMessageTo routes a user message from this kernel toward an explicit —
// possibly stale — process address, exactly as a process holding an
// un-updated link would (used to exercise forwarding paths).
func (k *Kernel) GiveMessageTo(to, from addr.ProcessAddr, body []byte, links ...link.Link) {
	k.route(&msg.Message{Kind: msg.KindUser, From: from, To: to,
		Body: body, Links: links, SentAt: k.eng.Now()})
}

// SetPMLink re-points this kernel's process-manager link after boot.
func (k *Kernel) SetPMLink(l link.Link) { k.pmLink = l }

// SetAccept installs this kernel's migration acceptance policy (§3.2
// autonomy: "If the destination machine refuses, the process cannot be
// migrated"; "The destination processor may simply refuse to accept any
// migrations not fitting its criteria").
func (k *Kernel) SetAccept(f func(ask msg.MigrateAsk, memFree int) bool) {
	k.accept = f
}

// BodyOf returns the live body of a local process. After a migration the
// destination kernel holds a fresh instance restored from the snapshot —
// callers must re-fetch from the new machine.
func (k *Kernel) BodyOf(pid addr.ProcessID) (proc.Body, bool) {
	p := k.lookup(pid)
	if p == nil || p.body == nil {
		return nil, false
	}
	return p.body, true
}

// RequestMigrationOf initiates a migration as if this kernel's machine ran
// the process manager: it sends the OpMigrateRequest administrative message
// over the normal delivery path (DELIVERTOKERNEL semantics), so the full
// 9-message protocol is exercised. The kernel keeps the latest MigrateDone
// reply and a count (stepDone).
func (k *Kernel) RequestMigrationOf(target addr.ProcessAddr, dest addr.MachineID) {
	req := msg.MigrateRequest{PID: target.ID, Dest: dest}
	m := k.newControl(msg.OpMigrateRequest, target)
	m.DTK = true
	m.Body = req.AppendTo(m.Body[:0])
	k.sendAdmin(m, nil)
}

// Hard caps on per-PID buffers the outside world can grow: without them a
// dead locate target (return-to-sender baseline) or a chatty process could
// grow kernel memory without limit. Overflow increments a drop counter.
const (
	// PendingLocateCap bounds messages held per PID while a locate query
	// is outstanding.
	PendingLocateCap = 64
	// ConsoleLineCap bounds console lines retained per PID.
	ConsoleLineCap = 256
)

// maxLocalUID is the number of processes of one creator that can be alive
// at once: every LocalUID but 0, which names the kernel.
const maxLocalUID = 1<<16 - 1

// allocUID issues the next local UID that is neither 0 (the kernel's own
// address) nor still taken — by a live process, or by the forwarding
// address of one that left. The counter wraps, so a UID long dead is issued
// again (its new holder starts with no exit on record); ok is false only
// when all 65 535 are taken.
func (k *Kernel) allocUID() (uid addr.LocalUID, ok bool) {
	uid = k.nextUID
	fwds := k.coldView().fwds // a present entry is never the zero fwd: its to is a machine
	for n := 0; uid == 0 || k.lookup(addr.ProcessID{Creator: k.machine, Local: uid}) != nil ||
		fwds[addr.ProcessID{Creator: k.machine, Local: uid}] != (fwd{}); n++ {
		if n == maxLocalUID {
			return 0, false
		}
		uid++
	}
	k.nextUID = uid + 1
	if s := k.slotOf(uid); s != nil {
		*s = uidSlot{}
		delete(k.localErrs, uid)
	}
	return uid, true
}

// slotOf returns uid's entry in the dense table, nil when the table does
// not reach it yet.
func (k *Kernel) slotOf(uid addr.LocalUID) *uidSlot {
	if pg := int(uid) / slotPage; pg < len(k.local) {
		if i := int(uid) % slotPage; i < len(k.local[pg]) {
			return &k.local[pg][i]
		}
	}
	return nil
}

// slot returns uid's entry in the dense table, growing the table to hold
// it: the first page one slot at a time through append until it is whole,
// then whole pages.
func (k *Kernel) slot(uid addr.LocalUID) *uidSlot {
	for {
		if s := k.slotOf(uid); s != nil {
			return s
		}
		if len(k.local) == 0 {
			k.local = append(k.local, nil)
		}
		if first := k.local[0]; len(first) < slotPage {
			k.local[0] = append(first, uidSlot{})
		} else {
			k.local = append(k.local, make([]uidSlot, slotPage))
		}
	}
}

// addProc installs a process record in the table: the dense slice when this
// machine created the pid, the map otherwise.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) addProc(p *Process) {
	if p.id.Creator != k.machine {
		if k.procs == nil {
			k.procs = make(map[addr.ProcessID]*Process)
		}
		k.procs[p.id] = p
		return
	}
	k.slot(p.id.Local).p = p
}

// delProc removes a process record from the table.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) delProc(pid addr.ProcessID) {
	if pid.Creator != k.machine {
		delete(k.procs, pid)
	} else if s := k.slotOf(pid.Local); s != nil {
		s.p = nil
	}
}

// eachProc calls fn for every process record this kernel holds, in no
// particular order (sortedProcs is the deterministic view).
func (k *Kernel) eachProc(fn func(*Process)) {
	for _, pg := range k.local {
		for _, s := range pg {
			if s.p != nil {
				fn(s.p)
			}
		}
	}
	for _, p := range k.procs {
		fn(p)
	}
}

// lookup finds a local process record (nil if absent). Locally-created
// pids — the overwhelming majority of delivery targets — resolve through
// the dense table's pages; foreign pids (migrated in, revived) fall back to
// the map. It must inline into the per-message path (scripts/check.sh).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) lookup(pid addr.ProcessID) *Process {
	if pid.Creator == k.machine {
		if s := k.slotOf(pid.Local); s != nil {
			return s.p
		}
		return nil
	}
	return k.procs[pid]
}

// getMsg acquires a pooled message envelope for the send path.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (k *Kernel) getMsg() *msg.Message { return k.pool.Get() }

// putMsg releases an envelope after its final consumption. Heap messages
// (drivers, tests, cold paths) pass through the pool as no-ops.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
//demos:releases m — demoslint's ownership rule treats a putMsg call like Pool.Put: the argument is dead on every path after it.
func (k *Kernel) putMsg(m *msg.Message) { k.pool.Put(m) }

// putBounced releases an envelope that may carry a bounced original
// (OpNotDeliverable's Orig) — both die together on every drop path.
//
//demos:releases m — the argument (and the Orig it owns) is dead on every path after it.
func (k *Kernel) putBounced(m *msg.Message) {
	if m.Orig != nil {
		k.putMsg(m.Orig)
	}
	k.putMsg(m)
}

// releaseImage gives back the real memory and swap space of p's image when
// the process leaves this kernel (exit, migration, discard).
func (k *Kernel) releaseImage(p *Process) {
	if img := p.image(); img != nil {
		k.memUsed -= img.Size()
		img.Discard()
	}
}

// newControl acquires an envelope pre-addressed as a control message from
// this kernel. The caller fills Body (reusing the envelope's backing array
// via an AppendTo encoder) and routes it.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode in bench_hotpath_test.go.
func (k *Kernel) newControl(op msg.Op, to addr.ProcessAddr) *msg.Message {
	m := k.getMsg()
	m.Kind = msg.KindControl
	m.Op = op
	m.From = addr.KernelAddr(k.machine)
	m.To = to
	m.SentAt = k.eng.Now()
	return m
}

// pending is a pooled deferred-submission record, put back on its free
// chain before it runs, used for the local delivery latency hop, for paced
// data packets and for process timers. fn is bound once so scheduling one
// allocates nothing in steady state. A timer holds no envelope (m is nil)
// from SetTimer to its queue: at the deadline the same record fires (fire)
// and rides the local hop (hop), where it queues the kernel's mark, and an
// envelope is drawn only where the mark cannot stand for the timer. So a
// long timer pins this record rather than a message, and the pool ledger
// (PoolStats) never has to look inside the engine's event queue.
type pending struct {
	m        *msg.Message
	next     *pending       // the free chain (Kernel.pendingFree) while parked
	fn       func()         // d.run(k), bound once (newPending)
	timerPID addr.ProcessID // timer (m == nil): the process that set it
	timerTag uint16
	// resubmit: re-route (paced packet) instead of delivering locally; for
	// a timer, the deadline (fire) rather than the local hop.
	resubmit bool
}

// newPending makes a pending record for k with its fn bound. The closure
// names the kernel, so the record needs no field for it and stays in the
// 32-byte size class with its chain link.
func (k *Kernel) newPending() *pending {
	d := &pending{}
	d.fn = func() { d.run(k) }
	return d
}

//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (d *pending) run(k *Kernel) {
	m, res := d.m, d.resubmit
	if m == nil {
		if res {
			d.fire(k)
		} else {
			d.hop(k)
		}
		return
	}
	// Release before running so nested schedules can reuse the record.
	d.m = nil
	k.putPending(d)
	if k.crashed {
		// The kernel crashed while this local hop was in flight: the
		// message dies with the machine, but not silently.
		k.dropCrashed(m)
		return
	}
	if res {
		k.route(m)
	} else {
		k.deliverLocal(m)
	}
}

// trace records an event at site s, one of the package-level sites in
// tracesites.go: str is the site's string argument ("" if it has none) and
// args the others in order. The detail is rendered from them only if the
// record is read (trace.Tracer.Log): free of allocation with a tracer
// attached, a nil check without one.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) trace(s trace.Site, str string, args ...trace.Val) {
	k.cfg.Tracer.Log(k.machine, s, str, args...)
}

// getProcRec acquires a Process record for Spawn and for the migration
// path: recycled when available (retaining the queue's ring, the emptied link
// table and the emptied side record of a process that exited or migrated
// away), fresh otherwise, with no table until its first link (linksOf). The
// side record with its commDelta map exists from here on only where load
// reports read it; elsewhere extOf makes it on first use.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) getProcRec() *Process {
	p := k.getParked()
	if p == nil {
		p = &Process{}
	}
	if k.cfg.LoadReportEvery > 0 {
		if x := k.extOf(p); x.commDelta == nil {
			x.commDelta = make(map[addr.MachineID]uint64)
		}
	}
	return p
}

// extOf returns p's side record, installing an empty one at first use.
func (k *Kernel) extOf(p *Process) *procExt {
	if p.ext == nil {
		p.ext = &procExt{}
	}
	return p.ext
}

// putProcRec releases a Process record whose identity has left this kernel
// (exited, migrated away, failed incoming). The caller must have drained
// the queue and removed the record from the tables and the run queue; the
// queue's ring (if any), the link table (if any, emptied) and the side
// record (if any, emptied but keeping its map) survive for the next holder.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) putProcRec(p *Process) {
	if p.queue.Len() != 0 {
		return // defensive: never recycle a record with live messages
	}
	q, links, x := p.queue, p.links, p.ext
	if links != nil {
		links.Reset(link.DefaultCap)
	}
	if x != nil {
		clear(x.commDelta)
		*x = procExt{commDelta: x.commDelta}
	}
	if q.more != nil {
		q.more.hw = 0
	}
	*p = Process{}
	p.queue, p.links, p.ext = q, links, x
	k.park(p)
}

// internKind canonicalizes a body-kind decoded from a resident record for
// Registry.New, whose argument escapes (its error names the kind), so a
// plain string(b) would allocate on every arrival. The map probe with a
// string(b) key does not allocate on hit, so a kind that has arrived here
// before costs one lookup.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (k *Kernel) internKind(b []byte) string {
	c := k.cold()
	if s, ok := c.kinds[string(b)]; ok {
		return s
	}
	s := string(b)
	if c.kinds == nil {
		c.kinds = make(map[string]string)
	}
	c.kinds[s] = s
	return s
}

// newXferID allocates a transfer id for an inbound stream.
func (k *Kernel) newXferID() uint16 {
	c := k.cold()
	c.nextXfer++
	if c.nextXfer == 0 {
		c.nextXfer = 1
	}
	return c.nextXfer
}
