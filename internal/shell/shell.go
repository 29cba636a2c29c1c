// Package shell implements the DEMOS/MP command interpreter (§2.3: "The
// command interpreter allows interactive access to DEMOS/MP programs").
//
// The shell is an ordinary (migratable) server process. Each incoming user
// message is one command line; output goes to the process console and, if
// the command carried a reply link, back to the requester. Commands that
// need the process manager (run, migrate, ps) go through the PM's command
// protocol.
package shell

import (
	"fmt"
	"strconv"
	"strings"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/procmgr"
	"demosmp/internal/switchboard"
)

// Kind is the registry name of the shell body.
const Kind = "shell"

// Shell is the command interpreter body. Link slot 1 must point at the
// switchboard, slot 2 at the process manager.
type Shell struct {
	SwbLink link.ID
	PMLink  link.ID

	NextTag uint16
	// Out remembers the reply link of the most recent command so
	// asynchronous PM events can be relayed to whoever asked.
	Out link.ID

	History []string
}

// New returns a shell with the conventional link slots.
func New() *Shell { return &Shell{SwbLink: 1, PMLink: 2} }

// CommandMsg wraps a command line for delivery to the shell. The '$'
// prefix is what distinguishes commands from asynchronous server replies.
func CommandMsg(line string) []byte { return append([]byte{'$'}, line...) }

// Kind implements proc.Body.
func (s *Shell) Kind() string { return Kind }

// Step implements proc.Body.
func (s *Shell) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op != msg.OpNone {
			continue
		}
		if len(d.Body) > 0 && d.Body[0] == '$' {
			d.Body = d.Body[1:]
			s.command(ctx, d)
		} else {
			s.event(ctx, d)
		}
	}
}

func (s *Shell) out(ctx proc.Context, text string) {
	ctx.Print([]byte(text))
	if s.Out != link.NilID {
		ctx.Send(s.Out, []byte(text)) // reply links are single-use
		s.Out = link.NilID
	}
}

func (s *Shell) command(ctx proc.Context, d *proc.Delivery) {
	line := strings.TrimSpace(string(d.Body))
	s.History = append(s.History, line)
	if len(d.Carried) > 0 {
		s.Out = d.Carried[0]
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return
	}
	switch fields[0] {
	case "help":
		s.out(ctx, "commands: run <machine|any> <prog> [args], migrate <c.l> <machine>, "+
			"suspend|resume|kill <c.l>, ps, lookup <name>, whoami, help")
	case "whoami":
		s.out(ctx, fmt.Sprintf("shell %v on %v", ctx.PID(), ctx.Machine()))
	case "run":
		if len(fields) < 3 {
			s.out(ctx, "usage: run <machine|any> <prog> [args]")
			return
		}
		var m int
		if fields[1] == "any" {
			m = int(procmgr.AnyMachine) // let the memory scheduler place it
		} else {
			var err error
			m, err = strconv.Atoi(fields[1])
			if err != nil {
				s.out(ctx, "bad machine "+fields[1])
				return
			}
		}
		s.NextTag++
		reply, _ := ctx.CreateLink(link.AttrReply, link.DataArea{})
		body := procmgr.CmdSpawn(addr.MachineID(m), s.NextTag, fields[2], fields[3:]...)
		ctx.Send(s.PMLink, body, reply)
	case "migrate":
		if len(fields) != 3 {
			s.out(ctx, "usage: migrate <creator.local> <machine>")
			return
		}
		pid, err := parsePID(fields[1])
		if err != nil {
			s.out(ctx, err.Error())
			return
		}
		m, err := strconv.Atoi(fields[2])
		if err != nil {
			s.out(ctx, "bad machine "+fields[2])
			return
		}
		reply, _ := ctx.CreateLink(link.AttrReply, link.DataArea{})
		ctx.Send(s.PMLink, procmgr.CmdMigrate(pid, addr.MachineID(m)), reply)
	case "suspend", "resume", "kill":
		if len(fields) != 2 {
			s.out(ctx, "usage: "+fields[0]+" <creator.local>")
			return
		}
		pid, err := parsePID(fields[1])
		if err != nil {
			s.out(ctx, err.Error())
			return
		}
		sig := map[string]byte{"suspend": procmgr.SigSuspend,
			"resume": procmgr.SigResume, "kill": procmgr.SigKill}[fields[0]]
		reply, _ := ctx.CreateLink(link.AttrReply, link.DataArea{})
		ctx.Send(s.PMLink, procmgr.CmdSignal(pid, sig), reply)
	case "ps":
		reply, _ := ctx.CreateLink(link.AttrReply, link.DataArea{})
		ctx.Send(s.PMLink, procmgr.CmdStat(), reply)
	case "lookup":
		if len(fields) != 2 {
			s.out(ctx, "usage: lookup <name>")
			return
		}
		reply, _ := ctx.CreateLink(link.AttrReply, link.DataArea{})
		ctx.Send(s.SwbLink, switchboard.LookupMsg(fields[1]), reply)
	default:
		s.out(ctx, "unknown command: "+fields[0]+" (try help)")
	}
}

// event relays an asynchronous reply (PM event, PM stat text, switchboard
// reply) to the console/requester.
func (s *Shell) event(ctx proc.Context, d *proc.Delivery) {
	if ev, err := procmgr.DecodeEvent(d.Body); err == nil && ev.What != "" && isWord(ev.What) {
		s.out(ctx, fmt.Sprintf("%s: %v @ %v", ev.What, ev.PID, ev.Machine))
		return
	}
	if ok, payload, err := switchboard.ParseReply(d.Body); err == nil && (d.Body[0] == switchboard.ReplyOK || d.Body[0] == switchboard.ReplyErr) {
		if !ok {
			s.out(ctx, "lookup: not found")
		} else if len(d.Carried) > 0 {
			l, _ := ctx.LinkAddr(d.Carried[0])
			s.out(ctx, fmt.Sprintf("lookup: link to %v", l.Addr))
			ctx.DestroyLink(d.Carried[0])
		} else {
			s.out(ctx, string(payload))
		}
		return
	}
	s.out(ctx, string(d.Body))
}

func isWord(s string) bool {
	for _, r := range s {
		if (r < 'a' || r > 'z') && r != '-' {
			return false
		}
	}
	return len(s) > 0
}

func parsePID(s string) (addr.ProcessID, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 2 {
		return addr.NilPID, fmt.Errorf("bad pid %q (want creator.local)", s)
	}
	c, err1 := strconv.Atoi(strings.TrimPrefix(parts[0], "p"))
	l, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return addr.NilPID, fmt.Errorf("bad pid %q", s)
	}
	return addr.ProcessID{Creator: addr.MachineID(c), Local: addr.LocalUID(l)}, nil
}

// Snapshot implements proc.Body.
func (s *Shell) Snapshot() ([]byte, error) { return proc.Snapshot(s) }

// Restore implements proc.Body.
func (s *Shell) Restore(data []byte) error { return proc.Restore(s, data) }

var _ proc.Body = (*Shell)(nil)
