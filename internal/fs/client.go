package fs

import (
	"fmt"

	"demosmp/internal/link"
	"demosmp/internal/proc"
)

// ClientKind is the registry name of the scripted file system client.
const ClientKind = "fs-client"

// Client states.
const (
	csStart   = iota // send create
	csCreated        // awaiting fid
	csOpened         // awaiting handle
	csWriting        // awaiting write reply
	csReading        // awaiting read reply
	csClosing        // awaiting close ack
	csDone
)

// Client is a scripted file system user: it creates a file, then performs
// Rounds of write-pattern / read-back / verify through link data areas,
// then closes and exits with the number of verified rounds. Several of
// these running during a file-server migration reproduce the paper's test
// example ("It migrates a file system process while several user processes
// are performing I/O").
type Client struct {
	File   string
	Rounds int
	Size   uint32 // bytes per round; the client image must be at least this big
	Stride bool   // vary the file offset per round (multi-block files)

	DirLink  link.ID // slot 1
	FileLink link.ID // slot 2
	AreaLink link.ID // created at start: read|write area over the buffer

	State    int
	Round    int
	FID      uint32
	Handle   uint16
	Verified int
	Failed   []string
}

// NewClient returns a scripted client. Spawn it with ImageSize >= size and
// links [dir, file] in slots 1 and 2.
func NewClient(file string, rounds int, size uint32) *Client {
	return &Client{File: file, Rounds: rounds, Size: size, DirLink: 1, FileLink: 2}
}

// Kind implements proc.Body.
func (c *Client) Kind() string { return ClientKind }

func (c *Client) pattern(i uint32) byte {
	return byte(i*3 + uint32(c.Round)*11 + 7)
}

func (c *Client) offset() uint32 {
	if !c.Stride {
		return 0
	}
	return uint32(c.Round%4) * c.Size
}

// Step implements proc.Body.
func (c *Client) Step(ctx proc.Context, budget int) (int, proc.Status) {
	if c.State == csStart {
		var err error
		c.AreaLink, err = ctx.CreateLink(link.AttrDataRead|link.AttrDataWrite,
			link.DataArea{Offset: 0, Length: c.Size})
		if err != nil {
			return 0, proc.Status{State: proc.Crashed, Err: err}
		}
		c.ask(ctx, c.DirLink, DCreateMsg(c.File))
		c.State = csCreated
	}
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if st, done := c.handle(ctx, d); done {
			return 0, st
		}
	}
}

// ask sends a request carrying a fresh reply link.
func (c *Client) ask(ctx proc.Context, on link.ID, body []byte, extra ...link.ID) {
	reply, err := ctx.CreateLink(link.AttrReply, link.DataArea{})
	if err != nil {
		return
	}
	ctx.Send(on, body, append(extra, reply)...)
}

func (c *Client) fail(why string) {
	c.Failed = append(c.Failed, fmt.Sprintf("round %d: %s", c.Round, why))
}

func (c *Client) handle(ctx proc.Context, d *proc.Delivery) (proc.Status, bool) {
	ok, payload, err := ParseReply(d.Body)
	if err != nil {
		return proc.Status{}, false
	}
	switch c.State {
	case csCreated:
		fid, ferr := ParseU32(payload)
		if !ok || ferr != nil {
			c.fail("create failed")
			return c.exit(ctx), true
		}
		c.FID = fid
		c.ask(ctx, c.FileLink, FOpenMsg(fid))
		c.State = csOpened
	case csOpened:
		h, herr := ParseU16(payload)
		if !ok || herr != nil {
			c.fail("open failed")
			return c.exit(ctx), true
		}
		c.Handle = h
		c.startWrite(ctx)
	case csWriting:
		if !ok {
			c.fail("write failed")
			c.nextRound(ctx)
			return proc.Status{State: proc.Runnable}, c.State == csDone
		}
		// Clear the buffer, then read back.
		zero := make([]byte, c.Size)
		ctx.ImageWrite(0, zero)
		c.ask(ctx, c.FileLink, FIOMsg(OpFRead, c.Handle, c.offset(), c.Size), c.AreaLink)
		c.State = csReading
	case csReading:
		if !ok {
			c.fail("read failed")
		} else {
			buf := make([]byte, c.Size)
			ctx.ImageRead(0, buf)
			good := true
			for i := range buf {
				if buf[i] != c.pattern(uint32(i)) {
					c.fail(fmt.Sprintf("byte %d = %d, want %d", i, buf[i], c.pattern(uint32(i))))
					good = false
					break
				}
			}
			if good {
				c.Verified++
			}
		}
		c.nextRound(ctx)
		if c.State == csDone {
			return c.exit(ctx), true
		}
	case csClosing:
		return c.exit(ctx), true
	}
	return proc.Status{}, false
}

func (c *Client) startWrite(ctx proc.Context) {
	buf := make([]byte, c.Size)
	for i := range buf {
		buf[i] = c.pattern(uint32(i))
	}
	ctx.ImageWrite(0, buf)
	c.ask(ctx, c.FileLink, FIOMsg(OpFWrite, c.Handle, c.offset(), c.Size), c.AreaLink)
	c.State = csWriting
}

func (c *Client) nextRound(ctx proc.Context) {
	c.Round++
	if c.Round < c.Rounds {
		c.startWrite(ctx)
		return
	}
	c.ask(ctx, c.FileLink, FCloseMsg(c.Handle))
	c.State = csClosing
}

func (c *Client) exit(ctx proc.Context) proc.Status {
	ctx.Logf("fs-client %s: %d/%d rounds verified, %d failures",
		c.File, c.Verified, c.Rounds, len(c.Failed))
	for _, f := range c.Failed {
		ctx.Logf("fs-client %s: FAILURE %s", c.File, f)
	}
	c.State = csDone
	return proc.Status{State: proc.Exited, ExitCode: int32(c.Verified)}
}

// Snapshot implements proc.Body.
func (c *Client) Snapshot() ([]byte, error) { return proc.Snapshot(c) }

// Restore implements proc.Body.
func (c *Client) Restore(data []byte) error { return proc.Restore(c, data) }

var _ proc.Body = (*Client)(nil)
