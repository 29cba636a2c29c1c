package fs

import (
	"sort"
	"strings"

	"demosmp/internal/link"
	"demosmp/internal/proc"
)

// DirKind is the registry name of the directory server body.
const DirKind = "fs-dir"

// pendingCreate orders outstanding inode allocations; the file server
// answers them FIFO, so replies are matched by arrival order.
type pendingCreate struct {
	Name  string
	Reply link.ID
}

// Dir is the directory server: a single flat namespace mapping names to
// file ids. Link slot 1 (installed at spawn) must point at the file server.
type Dir struct {
	FileLink link.ID
	Names    map[string]uint32
	Creates  []pendingCreate

	Lookups, CreatesDone uint64
}

// NewDir returns a directory server whose file-server link is slot 1.
func NewDir() *Dir {
	return &Dir{FileLink: 1, Names: make(map[string]uint32)}
}

// Kind implements proc.Body.
func (s *Dir) Kind() string { return DirKind }

// Step implements proc.Body.
func (s *Dir) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if len(d.Body) < 1 {
			continue
		}
		switch d.Body[0] {
		case OpDCreate:
			s.create(ctx, string(d.Body[1:]), d)
		case OpDLookup:
			s.lookup(ctx, string(d.Body[1:]), d)
		case OpDRemove:
			if len(d.Carried) < 1 {
				continue
			}
			name := string(d.Body[1:])
			if _, ok := s.Names[name]; !ok {
				ctx.Send(d.Carried[0], ErrReply())
				continue
			}
			delete(s.Names, name)
			ctx.Send(d.Carried[0], OKReply(nil))
		case OpDList:
			if len(d.Carried) < 1 {
				continue
			}
			names := make([]string, 0, len(s.Names))
			for n := range s.Names {
				names = append(names, n)
			}
			sort.Strings(names)
			ctx.Send(d.Carried[0], OKReply([]byte(strings.Join(names, "\n"))))
		case StOK, StErr:
			s.allocReply(ctx, d)
		}
	}
}

func (s *Dir) create(ctx proc.Context, name string, d *proc.Delivery) {
	if len(d.Carried) < 1 || name == "" {
		return
	}
	if fid, dup := s.Names[name]; dup {
		// Create of an existing name opens it (the paper's DEMOS file
		// system treats creation as idempotent naming).
		ctx.Send(d.Carried[0], U32Reply(fid))
		return
	}
	s.Creates = append(s.Creates, pendingCreate{Name: name, Reply: d.Carried[0]})
	reply, err := ctx.CreateLink(link.AttrReply, link.DataArea{})
	if err != nil {
		return
	}
	ctx.Send(s.FileLink, FAllocMsg(), reply)
}

func (s *Dir) lookup(ctx proc.Context, name string, d *proc.Delivery) {
	if len(d.Carried) < 1 {
		return
	}
	s.Lookups++
	fid, ok := s.Names[name]
	if !ok {
		ctx.Send(d.Carried[0], ErrReply())
		return
	}
	ctx.Send(d.Carried[0], U32Reply(fid))
}

// allocReply matches a file-server allocation to the oldest pending create.
func (s *Dir) allocReply(ctx proc.Context, d *proc.Delivery) {
	if len(s.Creates) == 0 {
		return
	}
	pc := s.Creates[0]
	s.Creates = s.Creates[1:]
	ok, payload, err := ParseReply(d.Body)
	if err != nil || !ok {
		ctx.Send(pc.Reply, ErrReply())
		return
	}
	fid, err := ParseU32(payload)
	if err != nil {
		ctx.Send(pc.Reply, ErrReply())
		return
	}
	s.Names[pc.Name] = fid
	s.CreatesDone++
	ctx.Send(pc.Reply, U32Reply(fid))
}

// Snapshot implements proc.Body.
func (s *Dir) Snapshot() ([]byte, error) { return proc.Snapshot(s) }

// Restore implements proc.Body.
func (s *Dir) Restore(data []byte) error { return proc.Restore(s, data) }

var _ proc.Body = (*Dir)(nil)
