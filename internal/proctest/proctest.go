// Package proctest provides a scriptable proc.Context for unit-testing
// server bodies without booting a kernel.
package proctest

import (
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// Sent records one Send made by the body under test.
type Sent struct {
	On    link.ID
	Op    msg.Op
	Body  []byte
	Carry []link.ID
}

// Ctx is a fake proc.Context. Feed deliveries through Push, step the body,
// then inspect Sends/Prints. Like the kernel's, its Recv returns a pointer
// to one slot that every Recv overwrites, so a body that keeps a delivery
// past the next Recv fails here as it would in a kernel.
type Ctx struct {
	Pid      addr.ProcessID
	Mach     addr.MachineID
	Clock    sim.Time
	Inbox    []proc.Delivery
	Sends    []Sent
	Prints   []string
	Links    map[link.ID]link.Link
	NextLink link.ID
	Img      *memory.Image
	Timers   []struct {
		D   sim.Time
		Tag uint16
	}
	Migrations []addr.MachineID
	MoveTos    []Sent // On = link, Body = data
	MoveFroms  []struct {
		On     link.ID
		Off, N uint32
		Xfer   uint16
	}
	d proc.Delivery // the one slot Recv returns
}

// New returns a fake context for a process on machine 1.
func New() *Ctx {
	return &Ctx{
		Pid:   addr.ProcessID{Creator: 1, Local: 50},
		Mach:  1,
		Links: map[link.ID]link.Link{},
		Img:   memory.NewImage(4096, nil),
	}
}

// Push queues a delivery for the body's next Recv.
func (c *Ctx) Push(d proc.Delivery) { c.Inbox = append(c.Inbox, d) }

// PushBody queues a plain user message.
func (c *Ctx) PushBody(from addr.ProcessAddr, body []byte, carried ...link.ID) {
	c.Push(proc.Delivery{From: from, Body: body, Carried: carried})
}

// LastSend returns the most recent send.
func (c *Ctx) LastSend() (Sent, bool) {
	if len(c.Sends) == 0 {
		return Sent{}, false
	}
	return c.Sends[len(c.Sends)-1], true
}

func (c *Ctx) PID() addr.ProcessID     { return c.Pid }
func (c *Ctx) Machine() addr.MachineID { return c.Mach }
func (c *Ctx) Now() sim.Time           { return c.Clock }
func (c *Ctx) Rand() uint32            { return 7 }

func (c *Ctx) Send(on link.ID, body []byte, carry ...link.ID) error {
	c.Sends = append(c.Sends, Sent{On: on, Body: append([]byte(nil), body...), Carry: carry})
	return nil
}

func (c *Ctx) SendOp(on link.ID, op msg.Op, body []byte) error {
	c.Sends = append(c.Sends, Sent{On: on, Op: op, Body: append([]byte(nil), body...)})
	return nil
}

func (c *Ctx) Recv() (*proc.Delivery, bool) {
	if len(c.Inbox) == 0 {
		return nil, false
	}
	c.d = c.Inbox[0]
	c.Inbox = c.Inbox[1:]
	return &c.d, true
}

func (c *Ctx) CreateLink(attrs link.Attr, area link.DataArea) (link.ID, error) {
	c.NextLink++
	l := link.Link{Addr: addr.At(c.Pid, c.Mach), Attrs: attrs, Area: area}
	c.Links[c.NextLink] = l
	return c.NextLink, nil
}

func (c *Ctx) DestroyLink(id link.ID) error {
	if _, ok := c.Links[id]; !ok {
		return fmt.Errorf("proctest: no link %v", id)
	}
	delete(c.Links, id)
	return nil
}

func (c *Ctx) LinkAddr(id link.ID) (link.Link, bool) {
	l, ok := c.Links[id]
	return l, ok
}

func (c *Ctx) MintLink(l link.Link) (link.ID, error) {
	c.NextLink++
	c.Links[c.NextLink] = l
	return c.NextLink, nil
}

func (c *Ctx) MoveTo(on link.ID, off uint32, data []byte, xfer uint16) error {
	c.MoveTos = append(c.MoveTos, Sent{On: on, Body: append([]byte(nil), data...)})
	return nil
}

func (c *Ctx) MoveFrom(on link.ID, off, n uint32, xfer uint16) error {
	c.MoveFroms = append(c.MoveFroms, struct {
		On     link.ID
		Off, N uint32
		Xfer   uint16
	}{on, off, n, xfer})
	return nil
}

func (c *Ctx) ImageRead(off int, b []byte) error  { return c.Img.ReadAt(b, off) }
func (c *Ctx) ImageWrite(off int, b []byte) error { return c.Img.WriteAt(b, off) }

func (c *Ctx) SetTimer(d sim.Time, tag uint16) {
	c.Timers = append(c.Timers, struct {
		D   sim.Time
		Tag uint16
	}{d, tag})
}

func (c *Ctx) Print(b []byte) { c.Prints = append(c.Prints, string(b)) }

func (c *Ctx) Logf(format string, args ...any) {
	c.Print([]byte(fmt.Sprintf(format, args...)))
}

func (c *Ctx) RequestMigration(m addr.MachineID) error {
	c.Migrations = append(c.Migrations, m)
	return nil
}

var _ proc.Context = (*Ctx)(nil)
