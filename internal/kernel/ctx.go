package kernel

import (
	"encoding/binary"
	"fmt"
	"strings"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/trace"
)

// procCtx is the kernel-call interface handed to a body for one Step. The
// kernel owns a single reusable instance (sliceCtx): runSlice repoints it at
// the scheduled process, recvd accumulates the pooled envelopes handed out
// by Recv this slice so they can be released when Step returns, and d is
// the one Delivery slot every Recv overwrites and returns a pointer to.
type procCtx struct {
	k           *Kernel
	p           *Process
	msgsHandled int
	recvd       []*msg.Message
	d           proc.Delivery
}

var _ proc.Context = (*procCtx)(nil)

func (c *procCtx) PID() addr.ProcessID     { return c.p.id }
func (c *procCtx) Machine() addr.MachineID { return c.k.machine }
func (c *procCtx) Now() sim.Time           { return c.k.eng.Now() }
func (c *procCtx) Rand() uint32            { return c.k.eng.Rand().Uint32() }

func (c *procCtx) Send(on link.ID, body []byte, carry ...link.ID) error {
	return c.send(on, msg.KindUser, msg.OpNone, body, carry)
}

func (c *procCtx) SendOp(on link.ID, op msg.Op, body []byte) error {
	if !c.p.privileged {
		return fmt.Errorf("kernel: %v is not privileged", c.p.id)
	}
	return c.send(on, msg.KindControl, op, body, nil)
}

//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
func (c *procCtx) send(on link.ID, kind msg.Kind, op msg.Op, body []byte, carry []link.ID) error {
	l, ok := c.p.links.Get(on)
	if !ok {
		return c.errNoLink(on)
	}
	k := c.k
	m := k.getMsg()
	m.Kind = kind
	m.Op = op
	m.From = addr.At(c.p.id, k.machine)
	m.To = l.Addr
	m.DTK = l.Attrs&link.AttrDeliverToKernel != 0
	b := m.Body[:0]
	b = append(b, body...)
	m.Body = b
	for _, cid := range carry {
		cl, ok := c.p.links.Get(cid)
		if !ok {
			k.putMsg(m)
			return c.errUnknownCarry(cid)
		}
		m.Links = append(m.Links, cl)
		if cl.Attrs&link.AttrReply != 0 {
			// Passing a reply link transfers it.
			c.p.links.Remove(cid)
		}
	}
	if l.Attrs&link.AttrReply != 0 {
		// §2.4: reply links "are used only once to respond to requests".
		c.p.links.Remove(on)
	}
	c.p.msgsOut++
	if k.cfg.LoadReportEvery > 0 { // only load reports read the deltas
		x := c.p.ext
		x.msgsDelta++
		x.commDelta[l.Addr.LastKnown]++
	}
	k.route(m)
	return nil
}

// errNoLink / errUnknownCarry hold send's fmt work off the hot path.
func (c *procCtx) errNoLink(on link.ID) error {
	return fmt.Errorf("kernel: %v has no link %v", c.p.id, on)
}

func (c *procCtx) errUnknownCarry(cid link.ID) error {
	return fmt.Errorf("kernel: %v carries unknown link %v", c.p.id, cid)
}

// Recv pops the next queued message into the context's one Delivery slot
// and returns a pointer to it. The *Delivery is valid until the next Recv
// or until Step returns, whichever comes first; its Body (and Data) alias
// the message envelope, which is recycled when Step returns. A body that
// needs a delivery longer copies *d, and copies the bytes out to keep them
// across steps.
//
// The slot is reset field by field, not by a whole-struct store (which
// measured about 4 % slower on the pingpong benchmark): only the fields a
// message always sets are written, and Carried/Data are cleared only when a
// previous delivery set them, so a plain message stores no extra pointer.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/kernel-local-roundtrip in bench_hotpath_test.go.
//demos:owner mailbox — Recv IS the blessed aliasing boundary: recvd holds popped envelopes until the slice drain in runSlice; the returned *Delivery is valid until the next Recv or the end of Step, and its Body/Data alias the envelope for exactly one step (ownership rule in the doc above; checked by demoslint ownership elsewhere).
func (c *procCtx) Recv() (*proc.Delivery, bool) {
	m := c.p.queue.pop()
	if m == nil {
		return nil, false
	}
	c.recvd = append(c.recvd, m)
	c.msgsHandled++
	d := &c.d
	d.From, d.Body, d.Op, d.Xfer, d.OK = m.From, m.Body, m.Op, 0, false
	if d.Carried != nil {
		d.Carried = nil
	}
	if d.Data != nil {
		d.Data = nil
	}
	if len(m.Links) > 0 {
		c.insertCarried(m, d)
	}
	if m.Kind == msg.KindControl {
		switch m.Op {
		case msg.OpMoveWriteDone:
			if st, err := msg.DecodeXferStatus(m.Body); err == nil {
				d.Xfer, d.OK = st.Xfer, st.OK
			}
		case msg.OpMoveReadDone:
			if st, err := msg.DecodeXferStatus(m.Body); err == nil {
				d.Xfer, d.OK = st.Xfer, st.OK
				d.Data = m.Body[3:]
			}
		case msg.OpTimer:
			// The tag is all a timer carries; its bytes may be the
			// kernel's shared mark, so the body never sees them.
			if len(m.Body) >= 2 {
				d.Xfer = binary.LittleEndian.Uint16(m.Body)
			}
			d.Body = nil
		}
	}
	return d, true
}

// insertCarried moves a message's carried links into the receiver's table
// (cold: only messages that actually carry links get here).
func (c *procCtx) insertCarried(m *msg.Message, d *proc.Delivery) {
	for _, l := range m.Links {
		id, err := c.k.linksOf(c.p).Insert(l)
		if err != nil {
			c.k.trace(siteCarriedDropped, err.Error(), trace.PID(c.p.id))
			break
		}
		d.Carried = append(d.Carried, id)
	}
}

func (c *procCtx) CreateLink(attrs link.Attr, area link.DataArea) (link.ID, error) {
	if !area.IsZero() {
		img := c.p.image()
		if img == nil {
			return link.NilID, fmt.Errorf("kernel: %v has no memory image for a data area", c.p.id)
		}
		if int(area.Offset)+int(area.Length) > img.Size() {
			return link.NilID, fmt.Errorf("kernel: data area [%d+%d) outside image of %d bytes",
				area.Offset, area.Length, img.Size())
		}
	}
	l := link.Link{Addr: addr.At(c.p.id, c.k.machine), Attrs: attrs, Area: area}
	return c.k.linksOf(c.p).Insert(l)
}

func (c *procCtx) DestroyLink(id link.ID) error {
	if !c.p.links.Remove(id) {
		return fmt.Errorf("kernel: %v has no link %v", c.p.id, id)
	}
	return nil
}

func (c *procCtx) LinkAddr(id link.ID) (link.Link, bool) { return c.p.links.Get(id) }

func (c *procCtx) MintLink(l link.Link) (link.ID, error) {
	if !c.p.privileged {
		return link.NilID, fmt.Errorf("kernel: %v is not privileged", c.p.id)
	}
	return c.k.linksOf(c.p).Insert(l)
}

// MoveTo streams data into the data area granted by a held link (§2.2).
func (c *procCtx) MoveTo(on link.ID, off uint32, data []byte, userXfer uint16) error {
	l, ok := c.p.links.Get(on)
	if !ok {
		return fmt.Errorf("kernel: %v has no link %v", c.p.id, on)
	}
	if l.Attrs&link.AttrDataWrite == 0 {
		return fmt.Errorf("kernel: link %v grants no write access", on)
	}
	if !l.Area.Contains(off, uint32(len(data))) {
		return fmt.Errorf("kernel: write [%d+%d) outside granted area of %d bytes",
			off, len(data), l.Area.Length)
	}
	kx := c.k.newXferID()
	base := l.Area.Offset + off
	n := c.k.streamWrite(l.Addr, kx, base, data)
	cold := c.k.cold()
	if cold.moveOps == nil {
		cold.moveOps = make(map[uint16]*moveOp)
	}
	cold.moveOps[kx] = &moveOp{
		initiator: c.p.id, userXfer: userXfer,
		packets: n, base: base, pkt: c.k.cfg.DataPacket,
		acked: make([]uint64, (n+63)/64),
	}
	return nil
}

// MoveFrom streams data out of the data area granted by a held link.
func (c *procCtx) MoveFrom(on link.ID, off, n uint32, userXfer uint16) error {
	l, ok := c.p.links.Get(on)
	if !ok {
		return fmt.Errorf("kernel: %v has no link %v", c.p.id, on)
	}
	if l.Attrs&link.AttrDataRead == 0 {
		return fmt.Errorf("kernel: link %v grants no read access", on)
	}
	if !l.Area.Contains(off, n) {
		return fmt.Errorf("kernel: read [%d+%d) outside granted area of %d bytes",
			off, n, l.Area.Length)
	}
	k := c.k
	pid := c.p.id
	kx := k.newXferID()
	cold := k.cold()
	if cold.xfersIn == nil {
		cold.xfersIn = make(map[uint16]*inStream)
	}
	cold.xfersIn[kx] = &inStream{total: -1, complete: func(data []byte) {
		body := msg.XferStatus{Xfer: userXfer, OK: true}.Encode()
		body = append(body, data...)
		k.route(&msg.Message{
			Kind: msg.KindControl, Op: msg.OpMoveReadDone,
			From: addr.KernelAddr(k.machine), To: addr.At(pid, k.machine),
			Body: body,
		})
	}, fail: func() {
		k.route(&msg.Message{
			Kind: msg.KindControl, Op: msg.OpMoveReadDone,
			From: addr.KernelAddr(k.machine), To: addr.At(pid, k.machine),
			Body: msg.XferStatus{Xfer: userXfer, OK: false}.Encode(),
		})
	}}
	req := msg.MoveRead{PID: l.Addr.ID, AreaOff: l.Area.Offset, Off: off, Len: n, Xfer: kx}
	k.route(&msg.Message{
		Kind: msg.KindControl, Op: msg.OpMoveRead,
		From: addr.KernelAddr(k.machine), To: l.Addr, DTK: true,
		Body: req.Encode(),
	})
	return nil
}

func (c *procCtx) ImageRead(off int, b []byte) error {
	img := c.p.image()
	if img == nil {
		return fmt.Errorf("kernel: %v has no memory image", c.p.id)
	}
	return img.ReadAt(b, off)
}

func (c *procCtx) ImageWrite(off int, b []byte) error {
	img := c.p.image()
	if img == nil {
		return fmt.Errorf("kernel: %v has no memory image", c.p.id)
	}
	return img.WriteAt(b, off)
}

// SetTimer delivers an OpTimer message to this process after d. The wait
// rides a pooled pending record (no envelope, no closure, no body bytes per
// call); when it fires the timer is a normal routed message, so it follows
// the process through a migration. On the process's queue it waits as the
// kernel's shared, read-only mark (enqueue), so a job queued behind a busy
// CPU holds no envelope; step 6 and redeliver turn the mark back into an
// envelope (unmark) before they send it on.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestSpawnExitSteadyStateAllocs in bench_hotpath_test.go.
func (c *procCtx) SetTimer(d sim.Time, tag uint16) {
	t := c.k.getPending(nil, true)
	t.timerPID, t.timerTag = c.p.id, tag
	c.k.eng.After(d, "kernel:timer", t.fn)
}

func (c *procCtx) Print(b []byte) {
	cold := c.k.cold()
	if len(cold.console[c.p.id]) >= ConsoleLineCap {
		// Bounded per-PID console: a chatty process cannot grow kernel
		// memory without limit. Drops are counted, not silent.
		cold.ConsoleDropped++
		return
	}
	line := string(b)
	if cold.console == nil {
		cold.console = make(map[addr.ProcessID][]string)
	}
	cold.console[c.p.id] = append(cold.console[c.p.id], line)
	c.k.trace(sitePrint, strings.TrimRight(line, "\n"), trace.PID(c.p.id))
}

func (c *procCtx) Logf(format string, args ...any) {
	c.Print([]byte(fmt.Sprintf(format, args...)))
}

// RequestMigration forwards the wish to the process manager, or — when no
// manager is configured — lets the kernel act as its own manager.
func (c *procCtx) RequestMigration(dest addr.MachineID) error {
	req := msg.MigrateRequest{PID: c.p.id, Dest: dest}
	if !c.k.pmLink.IsNil() {
		c.k.route(&msg.Message{
			Kind: msg.KindControl, Op: msg.OpMigrateRequest,
			From: addr.At(c.p.id, c.k.machine), To: c.k.pmLink.Addr,
			Body: req.Encode(),
		})
		return nil
	}
	c.k.RequestMigrationOf(addr.At(c.p.id, c.k.machine), dest)
	return nil
}
