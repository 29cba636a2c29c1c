// Package switchboard implements the DEMOS/MP switchboard: "a server that
// distributes links by name. It is used by the system and user processes to
// connect arbitrary processes together" (§2.3).
//
// Every process is born with a link to the switchboard (conventionally link
// id 1). A process registers a service by sending a Register request
// carrying a link to itself; clients look the name up and receive a copy of
// that link carried in the reply. Because links are context-independent,
// the copies work no matter who holds them — and keep working across
// migrations of either party.
package switchboard

import (
	"fmt"
	"sort"
	"strings"

	"demosmp/internal/link"
	"demosmp/internal/proc"
)

// Kind is the registry name of the switchboard body.
const Kind = "switchboard"

// Request opcodes (first byte of a request body).
const (
	opRegister = 'R' // body: name; carries the link to register
	opLookup   = 'L' // body: name; carries a reply link
	opList     = 'D' // carries a reply link; reply: newline-joined names
)

// Reply status bytes.
const (
	ReplyOK  = 'O'
	ReplyErr = 'E'
)

// RegisterMsg builds a Register request body for name.
func RegisterMsg(name string) []byte { return append([]byte{opRegister}, name...) }

// LookupMsg builds a Lookup request body for name.
func LookupMsg(name string) []byte { return append([]byte{opLookup}, name...) }

// ParseReply splits a switchboard reply into status and payload.
func ParseReply(body []byte) (ok bool, payload []byte, err error) {
	if len(body) < 1 {
		return false, nil, fmt.Errorf("switchboard: empty reply")
	}
	return body[0] == ReplyOK, body[1:], nil
}

// Server is the switchboard body. Its state is the name table; the link
// values live in the process's kernel-held link table, so the snapshot
// (names -> link ids) plus the migrated link table reconstruct the service
// exactly — the switchboard itself is migratable.
type Server struct {
	Names map[string]link.ID
}

// New returns an empty switchboard body.
func New() *Server { return &Server{Names: make(map[string]link.ID)} }

// Kind implements proc.Body.
func (s *Server) Kind() string { return Kind }

// Step implements proc.Body.
func (s *Server) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if len(d.Body) < 1 {
			continue
		}
		op, name := d.Body[0], string(d.Body[1:])
		switch op {
		case opRegister:
			s.register(ctx, name, d)
		case opLookup:
			s.lookup(ctx, name, d)
		case opList:
			s.list(ctx, d)
		}
	}
}

func (s *Server) register(ctx proc.Context, name string, d *proc.Delivery) {
	if len(d.Carried) == 0 || name == "" {
		return
	}
	if old, dup := s.Names[name]; dup {
		ctx.DestroyLink(old)
	}
	s.Names[name] = d.Carried[0]
	ctx.Logf("switchboard: %q -> %v", name, d.From.ID)
	// Surplus carried links are dropped to keep the table tidy.
	for _, extra := range d.Carried[1:] {
		ctx.DestroyLink(extra)
	}
}

func (s *Server) lookup(ctx proc.Context, name string, d *proc.Delivery) {
	if len(d.Carried) == 0 {
		return // nowhere to reply
	}
	reply := d.Carried[0]
	id, ok := s.Names[name]
	if !ok {
		ctx.Send(reply, []byte{ReplyErr})
		return
	}
	// Reply carries a *copy* of the registered link.
	ctx.Send(reply, []byte{ReplyOK}, id)
}

func (s *Server) list(ctx proc.Context, d *proc.Delivery) {
	if len(d.Carried) == 0 {
		return
	}
	names := make([]string, 0, len(s.Names))
	for n := range s.Names {
		names = append(names, n)
	}
	sort.Strings(names)
	body := append([]byte{ReplyOK}, strings.Join(names, "\n")...)
	ctx.Send(d.Carried[0], body)
}

// Snapshot implements proc.Body.
func (s *Server) Snapshot() ([]byte, error) { return proc.Snapshot(s) }

// Restore implements proc.Body.
func (s *Server) Restore(data []byte) error { return proc.Restore(s, data) }
