// Package procmgr implements the DEMOS/MP process manager: the system
// process that "handle[s] all the high-level scheduling decisions for
// processes... They control processes by sending messages to kernels to
// manipulate process states. For example, although the kernel implements
// the mechanisms of migrating a process, the process manager makes the
// decision of when and to where to migrate a process" (§2.3).
package procmgr

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memsched"
	"demosmp/internal/msg"
	"demosmp/internal/policy"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// Kind is the registry name of the process manager body.
const Kind = "procmgr"

// Command opcodes for the PM's user protocol (shell, drivers).
const (
	cmdMigrate = 'M' // pid(4) dest(2); carries optional reply link
	cmdSpawn   = 'S' // machine(2) tag(2) name... ; carries optional reply link
	cmdStat    = '?' // carries reply link; reply: text table
	cmdSignal  = 'K' // pid(4) signal(1); signal: 's'uspend 'r'esume 'k'ill
	cmdEvict   = 'E' // pid(4); migrate anywhere, retrying on refusal (§3.2)
)

// CmdEvict builds a migrate-anywhere command: the PM picks a destination
// and, if that machine refuses (§3.2: "The destination processor may simply
// refuse to accept any migrations not fitting its criteria"), tries the
// remaining machines in turn — "The source processor, once rebuffed, has
// the option of looking elsewhere."
func CmdEvict(pid addr.ProcessID) []byte {
	return append([]byte{cmdEvict}, addr.EncodePID(nil, pid)...)
}

// AnyMachine as a CmdSpawn machine asks the PM to place the process via
// the memory scheduler (least-loaded machine).
const AnyMachine addr.MachineID = 0

// Signals for CmdSignal.
const (
	SigSuspend = 's'
	SigResume  = 'r'
	SigKill    = 'k'
)

// CmdSignal builds a process-control command body.
func CmdSignal(pid addr.ProcessID, sig byte) []byte {
	b := append([]byte{cmdSignal}, addr.EncodePID(nil, pid)...)
	return append(b, sig)
}

// CmdMigrate builds a migrate command body.
func CmdMigrate(pid addr.ProcessID, dest addr.MachineID) []byte {
	b := append([]byte{cmdMigrate}, addr.EncodePID(nil, pid)...)
	return append(b, byte(dest), byte(dest>>8))
}

// CmdSpawn builds a spawn command body.
func CmdSpawn(machine addr.MachineID, tag uint16, name string, args ...string) []byte {
	b := []byte{cmdSpawn, byte(machine), byte(machine >> 8), byte(tag), byte(tag >> 8)}
	b = append(b, byte(len(name)))
	b = append(b, name...)
	for _, a := range args {
		b = append(b, byte(len(a)))
		b = append(b, a...)
	}
	return b
}

// CmdStat builds a status query body.
func CmdStat() []byte { return []byte{cmdStat} }

// Event is a notification delivered on a reply link after an asynchronous
// PM command completes.
type Event struct {
	What    string // "migrated", "migrate-failed", "spawned", "spawn-failed"
	PID     addr.ProcessID
	Machine addr.MachineID
	Tag     uint16
}

// EncodeEvent serializes an event for a reply message.
func EncodeEvent(e Event) []byte {
	b := []byte{byte(len(e.What))}
	b = append(b, e.What...)
	b = addr.EncodePID(b, e.PID)
	b = append(b, byte(e.Machine), byte(e.Machine>>8), byte(e.Tag), byte(e.Tag>>8))
	return b
}

// DecodeEvent parses an event reply.
func DecodeEvent(b []byte) (Event, error) {
	var e Event
	if len(b) < 1 {
		return e, fmt.Errorf("procmgr: empty event")
	}
	n := int(b[0])
	b = b[1:]
	if len(b) < n+addr.PIDWireSize+4 {
		return e, fmt.Errorf("procmgr: short event")
	}
	e.What = string(b[:n])
	b = b[n:]
	pid, b, err := addr.DecodePID(b)
	if err != nil {
		return e, err
	}
	e.PID = pid
	e.Machine = addr.MachineID(uint16(b[0]) | uint16(b[1])<<8)
	e.Tag = uint16(b[2]) | uint16(b[3])<<8
	return e, nil
}

// PendingSpawn is a spawn command waiting for a placement decision.
type PendingSpawn struct {
	Tag  uint16
	Name string
	Args []string
}

// Manager is the process manager body. It is privileged: it mints
// DELIVERTOKERNEL links to drive kernels and processes.
type Manager struct {
	// Locations is the PM's view of where every known process runs,
	// updated by MigrateDone and CreateDone notifications.
	Locations map[addr.ProcessID]addr.MachineID
	// Loads holds the latest load report per machine.
	Loads map[addr.MachineID]msg.LoadReport

	// MemSchedLink, when set, receives a copy of every load report so
	// the memory scheduler shares the PM's view (§2.3).
	MemSchedLink link.ID

	// inflight tracks requester reply links per pending migration.
	Inflight map[addr.ProcessID]link.ID
	// spawnReply tracks reply links per pending spawn tag.
	SpawnReply map[uint16]link.ID
	// PendingPlace queues spawns awaiting a memsched placement answer
	// (FIFO; the scheduler answers in order).
	PendingPlace []PendingSpawn
	// Evicting tracks migrate-anywhere attempts: remaining candidate
	// destinations per process.
	Evicting map[addr.ProcessID][]addr.MachineID
	// Machines lists the cluster (for eviction candidates).
	Machines []addr.MachineID

	// MigrationsOrdered counts requests this manager issued.
	MigrationsOrdered uint64
	// PolicyDecisions counts policy-driven orders.
	PolicyDecisions uint64
	// PolicySweeps counts closed report rounds handed to the policy.
	PolicySweeps uint64
	// CollectMaxAge bounds how stale a machine's sample may be before the
	// collector drops it from the policy's view (0 keeps all).
	CollectMaxAge sim.Time
	// DecisionTrace records policy orders as "now policy pid from->dest
	// reason" lines (bounded); the shard-invariance tests compare it
	// byte-for-byte across shard counts.
	DecisionTrace []string

	pol  policy.Policy     // not serialized: a restored manager has none
	coll *policy.Collector // rebuilt lazily (after New or Restore)
}

// maxDecisionTrace bounds DecisionTrace; beyond it orders still execute
// but are no longer recorded.
const maxDecisionTrace = 8192

// New returns a process manager with the given (possibly nil) policy.
func New(pol policy.Policy) *Manager {
	return &Manager{
		Locations:  make(map[addr.ProcessID]addr.MachineID),
		Loads:      make(map[addr.MachineID]msg.LoadReport),
		Inflight:   make(map[addr.ProcessID]link.ID),
		SpawnReply: make(map[uint16]link.ID),
		Evicting:   make(map[addr.ProcessID][]addr.MachineID),
		pol:        pol,
	}
}

// SetMachines tells the manager the cluster topology (for evictions).
func (m *Manager) SetMachines(ms []addr.MachineID) {
	m.Machines = append([]addr.MachineID(nil), ms...)
}

// Note records a process location learned out of band (boot-time spawns).
func (m *Manager) Note(pid addr.ProcessID, at addr.MachineID) { m.Locations[pid] = at }

// Kind implements proc.Body.
func (m *Manager) Kind() string { return Kind }

// Step implements proc.Body.
func (m *Manager) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		switch d.Op {
		case msg.OpLoadReport:
			m.handleLoadReport(ctx, d)
		case msg.OpMigrateDone:
			m.handleMigrateDone(ctx, d)
		case msg.OpCreateDone:
			m.handleCreateDone(ctx, d)
		case msg.OpLocate:
			m.handleLocate(ctx, d)
		case msg.OpMigrateRequest:
			// A process asked to migrate itself (§3.1: "one more
			// piece of information that the process manager can
			// use"). Honor it directly.
			if req, err := msg.DecodeMigrateRequest(d.Body); err == nil {
				m.order(ctx, req.PID, d.From.LastKnown, req.Dest, link.NilID)
			}
		case msg.OpNone:
			if m.isMemSchedReply(ctx, d) {
				m.handlePlacement(ctx, d)
			} else {
				m.handleCommand(ctx, d)
			}
		}
	}
}

func (m *Manager) isMemSchedReply(ctx proc.Context, d *proc.Delivery) bool {
	if m.MemSchedLink == link.NilID || len(m.PendingPlace) == 0 {
		return false
	}
	l, ok := ctx.LinkAddr(m.MemSchedLink)
	return ok && d.From.ID == l.Addr.ID
}

// handlePlacement finishes a spawn once the memory scheduler has picked a
// machine.
func (m *Manager) handlePlacement(ctx proc.Context, d *proc.Delivery) {
	ps := m.PendingPlace[0]
	m.PendingPlace = m.PendingPlace[1:]
	machine, err := memsched.ParseBestFit(d.Body)
	if err != nil || machine == addr.NoMachine {
		machine = 1 // placement failed; fall back to machine 1
	}
	m.createAt(ctx, machine, ps.Tag, ps.Name, ps.Args)
}

func (m *Manager) handleLoadReport(ctx proc.Context, d *proc.Delivery) {
	rep, err := msg.DecodeLoadReport(d.Body)
	if err != nil {
		return
	}
	m.Loads[rep.Machine] = rep
	for _, pl := range rep.Procs {
		m.Locations[pl.PID] = rep.Machine
	}
	if m.MemSchedLink != link.NilID {
		ctx.SendOp(m.MemSchedLink, msg.OpLoadReport, d.Body)
	}
	if m.pol == nil {
		return
	}
	// Feed the collector and run the policy once per closed round over
	// the assembled cluster view, not once per report over a half-stale
	// one. The collector's sweep signal depends only on report arrival
	// order at this process, which is canonical under sharding — so
	// decision times and contents are bit-identical across shard counts.
	if m.coll == nil {
		m.coll = policy.NewCollector(m.Machines, m.CollectMaxAge)
	}
	if !m.coll.Observe(ctx.Now(), rep) {
		return
	}
	m.PolicySweeps++
	for _, dec := range m.pol.Decide(ctx.Now(), m.coll.View(ctx.Now())) {
		m.PolicyDecisions++
		if len(m.DecisionTrace) < maxDecisionTrace {
			m.DecisionTrace = append(m.DecisionTrace, fmt.Sprintf(
				"%d %s %v %v->%v %s", ctx.Now(), m.pol.Name(), dec.PID, dec.From, dec.Dest, dec.Reason))
		}
		ctx.Logf("policy %s: move %v %v->%v (%s)", m.pol.Name(), dec.PID, dec.From, dec.Dest, dec.Reason)
		m.order(ctx, dec.PID, dec.From, dec.Dest, link.NilID)
	}
}

// order issues the real OpMigrateRequest over a minted DELIVERTOKERNEL
// link — message 1 of the migration protocol.
func (m *Manager) order(ctx proc.Context, pid addr.ProcessID, hint, dest addr.MachineID, reply link.ID) {
	if at, known := m.Locations[pid]; known {
		hint = at
	}
	if hint == addr.NoMachine {
		hint = dest // last resort; forwarding will chase it
	}
	l, err := ctx.MintLink(link.Link{
		Addr:  addr.At(pid, hint),
		Attrs: link.AttrDeliverToKernel,
	})
	if err != nil {
		return
	}
	req := msg.MigrateRequest{PID: pid, Dest: dest}
	ctx.SendOp(l, msg.OpMigrateRequest, req.Encode())
	ctx.DestroyLink(l)
	m.MigrationsOrdered++
	if reply != link.NilID {
		m.Inflight[pid] = reply
	}
}

func (m *Manager) handleMigrateDone(ctx proc.Context, d *proc.Delivery) {
	done, err := msg.DecodeMigrateDone(d.Body)
	if err != nil {
		return
	}
	if done.OK {
		m.Locations[done.PID] = done.Machine
		delete(m.Evicting, done.PID)
	} else if rest, evicting := m.Evicting[done.PID]; evicting {
		// §3.2: rebuffed — look elsewhere.
		if len(rest) > 0 {
			next := rest[0]
			m.Evicting[done.PID] = rest[1:]
			ctx.Logf("evict %v: %v refused, trying %v", done.PID, done.Machine, next)
			reply := m.Inflight[done.PID] // keep the requester's reply armed
			delete(m.Inflight, done.PID)
			m.order(ctx, done.PID, done.Machine, next, reply)
			return
		}
		delete(m.Evicting, done.PID)
	}
	if reply, ok := m.Inflight[done.PID]; ok {
		delete(m.Inflight, done.PID)
		what := "migrated"
		if !done.OK {
			what = "migrate-failed"
		}
		ctx.Send(reply, EncodeEvent(Event{What: what, PID: done.PID, Machine: done.Machine}))
	}
}

func (m *Manager) handleCreateDone(ctx proc.Context, d *proc.Delivery) {
	done, err := msg.DecodeCreateDone(d.Body)
	if err != nil {
		return
	}
	if !done.PID.IsNil() {
		m.Locations[done.PID] = done.Machine
	}
	if reply, ok := m.SpawnReply[done.Tag]; ok {
		delete(m.SpawnReply, done.Tag)
		what := "spawned"
		if done.PID.IsNil() {
			what = "spawn-failed"
		}
		ctx.Send(reply, EncodeEvent(Event{What: what, PID: done.PID, Machine: done.Machine, Tag: done.Tag}))
	}
}

// handleLocate answers a kernel's where-is query (the return-to-sender
// baseline, §4).
func (m *Manager) handleLocate(ctx proc.Context, d *proc.Delivery) {
	pid, _, err := addr.DecodePID(d.Body)
	if err != nil {
		return
	}
	reply := msg.PIDMachine{PID: pid, Machine: m.Locations[pid]}
	l, err := ctx.MintLink(link.Link{Addr: d.From})
	if err != nil {
		return
	}
	ctx.SendOp(l, msg.OpLocateReply, reply.Encode())
	ctx.DestroyLink(l)
}

func (m *Manager) handleCommand(ctx proc.Context, d *proc.Delivery) {
	if len(d.Body) < 1 {
		return
	}
	switch d.Body[0] {
	case cmdMigrate:
		pid, rest, err := addr.DecodePID(d.Body[1:])
		if err != nil || len(rest) < 2 {
			return
		}
		dest := addr.MachineID(uint16(rest[0]) | uint16(rest[1])<<8)
		reply := link.NilID
		if len(d.Carried) > 0 {
			reply = d.Carried[0]
		}
		m.order(ctx, pid, d.From.LastKnown, dest, reply)
	case cmdSpawn:
		m.handleSpawnCmd(ctx, d)
	case cmdStat:
		if len(d.Carried) > 0 {
			ctx.Send(d.Carried[0], []byte(m.statText()))
		}
	case cmdSignal:
		m.handleSignal(ctx, d)
	case cmdEvict:
		m.handleEvict(ctx, d)
	}
}

// handleEvict starts a migrate-anywhere: order the first candidate, keep
// the rest for retries on refusal.
func (m *Manager) handleEvict(ctx proc.Context, d *proc.Delivery) {
	pid, _, err := addr.DecodePID(d.Body[1:])
	if err != nil {
		return
	}
	at := m.Locations[pid]
	var candidates []addr.MachineID
	for _, mm := range m.Machines {
		if mm != at {
			candidates = append(candidates, mm)
		}
	}
	if len(candidates) == 0 {
		return
	}
	reply := link.NilID
	if len(d.Carried) > 0 {
		reply = d.Carried[0]
	}
	m.Evicting[pid] = candidates[1:]
	m.order(ctx, pid, d.From.LastKnown, candidates[0], reply)
}

// handleSignal drives a process through a minted DELIVERTOKERNEL link —
// §2.2's example: "the process manager can send a message to the process's
// kernel asking that the process be stopped."
func (m *Manager) handleSignal(ctx proc.Context, d *proc.Delivery) {
	pid, rest, err := addr.DecodePID(d.Body[1:])
	if err != nil || len(rest) < 1 {
		return
	}
	var op msg.Op
	switch rest[0] {
	case SigSuspend:
		op = msg.OpSuspend
	case SigResume:
		op = msg.OpResume
	case SigKill:
		op = msg.OpKill
	default:
		return
	}
	hint := m.Locations[pid]
	if hint == addr.NoMachine {
		hint = d.From.LastKnown
	}
	l, err := ctx.MintLink(link.Link{
		Addr:  addr.At(pid, hint),
		Attrs: link.AttrDeliverToKernel,
	})
	if err != nil {
		return
	}
	ctx.SendOp(l, op, nil)
	ctx.DestroyLink(l)
	if len(d.Carried) > 0 {
		ctx.Send(d.Carried[0], EncodeEvent(Event{What: "signalled", PID: pid, Machine: hint}))
	}
}

func (m *Manager) handleSpawnCmd(ctx proc.Context, d *proc.Delivery) {
	b := d.Body[1:]
	if len(b) < 5 {
		return
	}
	machine := addr.MachineID(uint16(b[0]) | uint16(b[1])<<8)
	tag := uint16(b[2]) | uint16(b[3])<<8
	n := int(b[4])
	b = b[5:]
	if len(b) < n {
		return
	}
	name := string(b[:n])
	b = b[n:]
	var args []string
	for len(b) > 0 {
		an := int(b[0])
		b = b[1:]
		if len(b) < an {
			return
		}
		args = append(args, string(b[:an]))
		b = b[an:]
	}
	if len(d.Carried) > 0 {
		m.SpawnReply[tag] = d.Carried[0]
	}
	if machine == AnyMachine {
		if m.MemSchedLink != link.NilID {
			// Let the memory scheduler place it (§2.3: the process
			// and memory managers share the scheduling decisions).
			m.PendingPlace = append(m.PendingPlace, PendingSpawn{Tag: tag, Name: name, Args: args})
			reply, err := ctx.CreateLink(link.AttrReply, link.DataArea{})
			if err == nil {
				ctx.Send(m.MemSchedLink, memsched.BestFitMsg(0), reply)
				return
			}
			m.PendingPlace = m.PendingPlace[:len(m.PendingPlace)-1]
		}
		machine = 1
	}
	m.createAt(ctx, machine, tag, name, args)
}

// createAt asks a kernel to instantiate the program.
func (m *Manager) createAt(ctx proc.Context, machine addr.MachineID, tag uint16, name string, args []string) {
	l, err := ctx.MintLink(link.Link{Addr: addr.KernelAddr(machine)})
	if err != nil {
		return
	}
	req := msg.CreateProcess{Tag: tag, Name: name, Args: args}
	ctx.SendOp(l, msg.OpCreateProcess, req.Encode())
	ctx.DestroyLink(l)
}

func (m *Manager) statText() string {
	pids := make([]addr.ProcessID, 0, len(m.Locations))
	for pid := range m.Locations {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool {
		a, b := pids[i], pids[j]
		if a.Creator != b.Creator {
			return a.Creator < b.Creator
		}
		return a.Local < b.Local
	})
	s := ""
	for _, pid := range pids {
		s += fmt.Sprintf("%v @ %v\n", pid, m.Locations[pid])
	}
	machines := make([]addr.MachineID, 0, len(m.Loads))
	for mm := range m.Loads {
		machines = append(machines, mm)
	}
	sort.Slice(machines, func(i, j int) bool { return machines[i] < machines[j] })
	for _, mm := range machines {
		l := m.Loads[mm]
		s += fmt.Sprintf("%v cpu=%d%% ready=%d procs=%d mem=%dKB\n",
			mm, l.CPUPercent, l.Ready, l.ProcCount, l.MemUsedKB)
	}
	return s
}

// Snapshot implements proc.Body. The policy is not serialized (policies
// hold only heuristic state): a restored manager runs without one.
func (m *Manager) Snapshot() ([]byte, error) { return proc.Snapshot(m) }

// Restore implements proc.Body.
func (m *Manager) Restore(data []byte) error { return proc.Restore(m, data) }

var _ proc.Body = (*Manager)(nil)
