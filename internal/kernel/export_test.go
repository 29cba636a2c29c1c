package kernel

import (
	"strings"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
)

// ProtocolRow is one row of the protocol table as the external tests (and,
// through TestProtocolTableDoc, docs/PROTOCOLS.md) see it.
type ProtocolRow struct {
	Op     msg.Op
	Num    string
	Dir    string
	Bytes  int
	Role   string // the receiving half: "source", "destination", "either", or "—" for none
	Orphan string // what a kernel holding no such half does; "ignored" if the row has no rule
	Steps  string
	// LegalAt names the steps of the receiving half at which the row is
	// believed: "any", a list of steps, or "—" for a row with no half.
	LegalAt string
	Kills   []KillPoint
}

// ProtocolTable returns the protocol table, in op order.
func ProtocolTable() []ProtocolRow {
	roles := map[migRole]string{0: "—", roleSource: "source", roleDest: "destination", roleEither: "either"}
	out := make([]ProtocolRow, len(protocol))
	for i, r := range protocol {
		out[i] = ProtocolRow{Op: r.op, Num: r.num, Dir: r.dir, Bytes: r.bytes,
			Role: roles[r.role], Orphan: r.orphanDoc, Steps: r.steps, LegalAt: legalAtDoc(r), Kills: r.kills}
		switch {
		case r.role == 0:
			out[i].Orphan = "—"
		case r.orphan == nil:
			out[i].Orphan = "ignored"
		}
	}
	return out
}

// legalAtDoc renders a row's legal-at column.
func legalAtDoc(r protoRow) string {
	switch {
	case r.role == 0:
		return "—"
	case r.at == atAny:
		return "any"
	}
	var steps []string
	for s := migStep(msg.RegionResident); s <= stepEstablished; s++ {
		if r.at&(1<<s) == 0 {
			continue
		}
		name := "established"
		if s < stepEstablished {
			name = msg.Region(s).String()
		}
		steps = append(steps, "`"+name+"`")
	}
	out := strings.Join(steps, ", ")
	if r.op == msg.OpMoveDataReq {
		out += ": the one its region names"
	}
	return out
}

// MigrationStep reports the step of the migration half moving pid on this
// kernel, and whether there is one.
func (k *Kernel) MigrationStep(pid addr.ProcessID) (step int, ok bool) {
	if mg := k.lookup(pid).mig(); mg != nil {
		return int(mg.step), true
	}
	return 0, false
}

// IsMigrationOp reports whether kernelControl hands op to the migration
// dispatcher.
func IsMigrationOp(op msg.Op) bool { return protocolRow(op) != nil }

// EncodeForwarder serializes a forwarding address the way ForwarderWireSize
// counts it: pid(4) + destination machine(2) + back pointer(2). The
// forwarding test checks the paper's 8-byte claim against it.
func EncodeForwarder(pid addr.ProcessID, to, back addr.MachineID) []byte {
	b := addr.EncodePID(make([]byte, 0, ForwarderWireSize), pid)
	b = append(b, byte(to), byte(to>>8))
	b = append(b, byte(back), byte(back>>8))
	return b
}

// DoneMigrations returns the latest MigrateDone reply addressed to this
// kernel (self-initiated migrations without a process manager) and how many
// arrived.
func (k *Kernel) DoneMigrations() (last msg.MigrateDone, n int) {
	c := k.coldView()
	return c.lastDone, c.dones
}

// MemUsed returns bytes of real memory in use by process images.
func (k *Kernel) MemUsed() int { return k.memUsed }

// Swap exposes the swap store (nil until the first image).
func (k *Kernel) Swap() *memory.Store { return k.swap }

// HasSwapStore reports whether the kernel has made its swap store: nil
// until the first image (swapStore).
func (k *Kernel) HasSwapStore() bool { return k.swap != nil }

// SwappedPages reports how many of a local process's pages are in swap.
func (k *Kernel) SwappedPages(pid addr.ProcessID) int {
	if img := k.lookup(pid).image(); img != nil {
		return img.SwappedPages()
	}
	return 0
}

// LinksOf returns a copy of a local process's link table entries.
func (k *Kernel) LinksOf(pid addr.ProcessID) map[link.ID]link.Link {
	var out map[link.ID]link.Link
	k.VisitLinks(pid, func(id link.ID, l link.Link) {
		if out == nil {
			out = make(map[link.ID]link.Link)
		}
		out[id] = l
	})
	return out
}

// GiveControl injects a DELIVERTOKERNEL control message addressed to a
// process, standing in for the process manager.
func (k *Kernel) GiveControl(pid addr.ProcessID, op msg.Op, body []byte) {
	k.GiveControlFrom(addr.KernelAddr(k.machine), pid, op, body)
}

// GiveControlFrom is GiveControl with an explicit sender — used when a
// process manager's identity must appear as the requester so the
// MigrateDone reply reaches it.
func (k *Kernel) GiveControlFrom(from addr.ProcessAddr, pid addr.ProcessID, op msg.Op, body []byte) {
	k.route(&msg.Message{
		Kind: msg.KindControl, Op: op,
		From: from, To: addr.At(pid, k.machine),
		DTK: true, Body: body, SentAt: k.eng.Now(),
	})
}

// VisitLinks calls fn for each link of a local process in slot order.
// Returns false if the process (or its table) does not exist here.
func (k *Kernel) VisitLinks(pid addr.ProcessID, fn func(link.ID, link.Link)) bool {
	p := k.lookup(pid)
	if p == nil || p.links == nil {
		return false
	}
	for id, seen := link.ID(1), 0; seen < p.links.Len(); id++ {
		if l, ok := p.links.Get(id); ok {
			fn(id, l)
			seen++
		}
	}
	return true
}

// LiveMaps names the kernel's maps that exist: every one is nil until its
// first write.
func (k *Kernel) LiveMaps() []string {
	var out []string
	c := k.coldView()
	for _, m := range []struct {
		name string
		live bool
	}{
		{"procs", k.procs != nil}, {"exits", k.exits != nil}, {"localErrs", k.localErrs != nil},
		{"xfersIn", c.xfersIn != nil}, {"moveOps", c.moveOps != nil}, {"kinds", c.kinds != nil},
		{"pendingLocate", c.pendingLocate != nil}, {"console", c.console != nil},
		{"stable", c.stable != nil}, {"lostPIDs", c.lostPIDs != nil},
		{"fwds", c.fwds != nil}, {"runs", c.runs != nil},
	} {
		if m.live {
			out = append(out, m.name)
		}
	}
	return out
}

// HasColdRecord reports whether the kernel has made its cold record
// (cold.go): nil until its first use.
func (k *Kernel) HasColdRecord() bool { return k.coldRec != nil }

// fwdOf returns the forwarding address k holds for pid, if any.
func (k *Kernel) fwdOf(pid addr.ProcessID) (fwd, bool) {
	f, ok := k.coldView().fwds[pid]
	return f, ok
}

// parkedRecs lists the records on the free chain (procFree), most recently
// parked first.
func (k *Kernel) parkedRecs() []*Process {
	var out []*Process
	for p := k.procFree; p != nil; p = (*Process)(p.body.(*parked)) {
		out = append(out, p)
	}
	return out
}

// localSlots counts the slots of the dense UID table over all its pages.
func (k *Kernel) localSlots() (n int) {
	for _, pg := range k.local {
		n += len(pg)
	}
	return n
}
