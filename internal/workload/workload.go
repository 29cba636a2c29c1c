// Package workload provides the synthetic processes the experiments run:
// CPU-bound VM programs, communicating client/server pairs, and native
// traffic generators. The paper had no authentic workload either ("In the
// absence of an authentic workload for our test cases, the decision to move
// a particular process and the choice of destination were arbitrary").
package workload

import (
	"fmt"

	"demosmp/internal/dvm"
	"demosmp/internal/link"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
)

// CPUBound returns a program that computes sum(i*i) for i in 1..n and
// exits with the (wrapped) result. ~6 instructions per iteration.
func CPUBound(n int) *dvm.Program {
	return dvm.MustAssemble(fmt.Sprintf(`
	start:	movi r1, 0
		movi r2, 0
	loop:	addi r1, r1, 1
		mul r3, r1, r1
		add r2, r2, r3
		cmpi r1, %d
		jlt loop
		mov r0, r2
		sys exit
	`, n))
}

// CPUBoundResult is the exit code CPUBound(n) produces.
func CPUBoundResult(n int) int32 {
	var s int32
	for i := int32(1); i <= int32(n); i++ {
		s += i * i
	}
	return s
}

// CPUBoundSized returns a CPU-bound program padded with dead data so its
// memory image is at least size bytes — the knob for the migration-cost-
// vs-size sweep (E1).
func CPUBoundSized(n, size int) *dvm.Program {
	pad := size - 30*dvm.InstrSize - 256
	if pad < 4 {
		pad = 4
	}
	return dvm.MustAssemble(fmt.Sprintf(`
		.data
	pad:	.space %d
		.code
	start:	movi r1, 0
		movi r2, 0
	loop:	addi r1, r1, 1
		mul r3, r1, r1
		add r2, r2, r3
		cmpi r1, %d
		jlt loop
		mov r0, r2
		sys exit
	`, pad, n))
}

// EchoServer returns a program that echoes n requests on their carried
// reply links, then exits 0.
func EchoServer(n int) *dvm.Program {
	return dvm.MustAssemble(fmt.Sprintf(`
		.data
	buf:	.space 64
		.code
	start:	movi r6, 0
	loop:	lea r1, buf
		movi r2, 64
		sys recv
		mov r5, r3
		mov r0, r5
		lea r1, buf
		movi r2, 4
		movi r3, 0
		sys send
		addi r6, r6, 1
		cmpi r6, %d
		jlt loop
		movi r0, 0
		sys exit
	`, n))
}

// RequestClient returns a program that performs n request/reply exchanges
// over link 1 (creating a fresh reply link per request) and exits with the
// number completed.
func RequestClient(n int) *dvm.Program {
	return dvm.MustAssemble(fmt.Sprintf(`
		.data
	m:	.asciz "ping"
	buf:	.space 64
		.code
	start:	movi r6, 0
	loop:	movi r1, 8
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r3, r0
		movi r0, 1
		lea r1, m
		movi r2, 4
		sys send
		lea r1, buf
		movi r2, 64
		sys recv
		addi r6, r6, 1
		cmpi r6, %d
		jlt loop
		mov r0, r6
		sys exit
	`, n))
}

// SelfMigrator returns a program that computes, requests its own migration
// to the given machine partway through (§3.1: "It is of course possible
// for a process to request its own migration"), finishes the computation,
// and exits with the result.
func SelfMigrator(n int, dest uint16) *dvm.Program {
	return dvm.MustAssemble(fmt.Sprintf(`
	start:	movi r1, 0
		movi r2, 0
	loop:	addi r1, r1, 1
		mul r3, r1, r1
		add r2, r2, r3
		cmpi r1, %d
		jne cont
		movi r0, %d
		sys migrate
	cont:	cmpi r1, %d
		jlt loop
		mov r0, r2
		sys exit
	`, n/2, dest, n))
}

// VMFileClient returns a DVM assembly program that uses the four-process
// file system end to end: it creates a file through the directory server,
// opens it, writes size bytes of a pattern through a link data area (the
// kernel move-data facility), reads them back, verifies every byte, and
// exits with the verified count (or -1 on any failure).
//
// Spawn it with links [dir, file] in slots 1 and 2. It is the proof that
// ordinary user programs — not just native Go bodies — drive the paper's
// full I/O path, including carrying two links (area + reply) per request.
func VMFileClient() *dvm.Program {
	return dvm.MustAssemble(`
		.data
	nm:	.asciz "vmf"
	req:	.space 16
	rbuf:	.space 64
	aid:	.word 0
	buf:	.space 600
		.code
	start:	; build create request: 'C' + "vmf"
		lea r6, req
		movi r5, 'C'
		stb r5, r6, 0
		lea r1, nm
		ldb r5, r1, 0
		stb r5, r6, 1
		ldb r5, r1, 1
		stb r5, r6, 2
		ldb r5, r1, 2
		stb r5, r6, 3
		movi r1, 8        ; AttrReply
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r3, r0
		movi r0, 1        ; directory server link
		lea r1, req
		movi r2, 4
		sys send
		lea r1, rbuf
		movi r2, 64
		sys recv
		lea r6, rbuf
		ldb r5, r6, 0
		cmpi r5, 0
		jne fail
		ldw r7, r6, 1     ; fid
		; open: 'O' + fid
		lea r6, req
		movi r5, 'O'
		stb r5, r6, 0
		stw r7, r6, 1
		movi r1, 8
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r3, r0
		movi r0, 2        ; file server link
		lea r1, req
		movi r2, 5
		sys send
		lea r1, rbuf
		movi r2, 64
		sys recv
		lea r6, rbuf
		ldb r5, r6, 0
		cmpi r5, 0
		jne fail
		ldb r7, r6, 1     ; handle low byte
		ldb r5, r6, 2     ; handle high byte
		movi r2, 8
		shl r5, r5, r2
		or r7, r7, r5
		; grant a read/write data area over buf
		movi r1, 6        ; AttrDataRead|AttrDataWrite
		lea r2, buf
		movi r3, 600
		sys mklink
		lea r6, aid
		stw r0, r6, 0
		; fill buf with pattern (i*7+3)&0xFF
		movi r4, 0
		lea r6, buf
	fill:	movi r2, 7
		mul r5, r4, r2
		addi r5, r5, 3
		add r2, r6, r4
		stb r5, r2, 0
		addi r4, r4, 1
		cmpi r4, 600
		jlt fill
		; write: 'W' handle(2) off(4)=0 len(4)=600, carrying [area, reply]
		lea r6, req
		movi r5, 'W'
		stb r5, r6, 0
		stw r7, r6, 1
		movi r5, 0
		stw r5, r6, 3
		movi r5, 600
		stw r5, r6, 7
		movi r1, 8
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r5, r0        ; second carried link: reply
		lea r6, aid
		ldw r3, r6, 0     ; first carried link: the data area
		movi r0, 2
		lea r1, req
		movi r2, 11
		sys send2
		lea r1, rbuf
		movi r2, 64
		sys recv
		lea r6, rbuf
		ldb r5, r6, 0
		cmpi r5, 0
		jne fail
		ldw r5, r6, 1
		cmpi r5, 600
		jne fail
		; clear buf
		movi r4, 0
		lea r6, buf
	clear:	movi r5, 0
		add r2, r6, r4
		stb r5, r2, 0
		addi r4, r4, 1
		cmpi r4, 600
		jlt clear
		; read it back: 'R' with the same handle/off/len fields
		lea r6, req
		movi r5, 'R'
		stb r5, r6, 0
		movi r1, 8
		movi r2, 0
		movi r3, 0
		sys mklink
		mov r5, r0
		lea r6, aid
		ldw r3, r6, 0
		movi r0, 2
		lea r1, req
		movi r2, 11
		sys send2
		lea r1, rbuf
		movi r2, 64
		sys recv
		lea r6, rbuf
		ldb r5, r6, 0
		cmpi r5, 0
		jne fail
		; verify every byte
		movi r4, 0
		lea r6, buf
	verify:	movi r2, 7
		mul r5, r4, r2
		addi r5, r5, 3
		movi r2, 0xFF
		and r5, r5, r2
		add r2, r6, r4
		ldb r3, r2, 0
		cmp r3, r5
		jne fail
		addi r4, r4, 1
		cmpi r4, 600
		jlt verify
		movi r0, 600
		sys exit
	fail:	movi r0, -1
		sys exit
	`)
}

// --- native bodies -------------------------------------------------------------

// SinkKind is the registry name of Sink.
const SinkKind = "wl-sink"

// Sink counts and remembers incoming message bodies.
type Sink struct {
	Got []string
}

// Kind implements proc.Body.
func (s *Sink) Kind() string { return SinkKind }

// Step implements proc.Body.
func (s *Sink) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		s.Got = append(s.Got, string(d.Body))
	}
}

// Snapshot implements proc.Body.
func (s *Sink) Snapshot() ([]byte, error) { return proc.Snapshot(s) }

// Restore implements proc.Body.
func (s *Sink) Restore(data []byte) error { return proc.Restore(s, data) }

// ChatterKind is the registry name of Chatter.
const ChatterKind = "wl-chatter"

// Chatter sends N messages on link 1, one per wakeup tick, then exits.
// Spread over time (rather than in one burst) so migrations interleave
// with its traffic.
type Chatter struct {
	N        int
	Interval uint32 // µs between messages
	Sent     int
}

// Kind implements proc.Body.
func (c *Chatter) Kind() string { return ChatterKind }

// Step implements proc.Body.
func (c *Chatter) Step(ctx proc.Context, budget int) (int, proc.Status) {
	// The step that finds nothing to receive and has sent nothing is the
	// spawn step: it arms the first tick. (Arming on Sent == 0 alone would
	// arm again in the step that receives that tick, and run two timer
	// chains at once.)
	kick := c.Sent == 0 && c.N > 0
	for {
		_, ok := ctx.Recv()
		if !ok {
			if kick {
				ctx.SetTimer(1, 1)
			}
			return 0, proc.Status{State: proc.Blocked}
		}
		kick = false
		if c.Sent >= c.N {
			return 0, proc.Status{State: proc.Exited, ExitCode: int32(c.Sent)}
		}
		ctx.Send(1, []byte(fmt.Sprintf("chat-%d", c.Sent)))
		c.Sent++
		if c.Sent >= c.N {
			return 0, proc.Status{State: proc.Exited, ExitCode: int32(c.Sent)}
		}
		iv := c.Interval
		if iv == 0 {
			iv = 1000
		}
		ctx.SetTimer(sim.Time(iv), 1)
	}
}

// Snapshot implements proc.Body.
func (c *Chatter) Snapshot() ([]byte, error) { return proc.Snapshot(c) }

// Restore implements proc.Body.
func (c *Chatter) Restore(data []byte) error { return proc.Restore(c, data) }

// StageKind is the registry name of Stage.
const StageKind = "wl-stage"

// Stage is one element of a processing pipeline: it forwards every
// incoming message on link 1 (its downstream). Pipelines spread across
// machines generate the steady inter-machine traffic that the
// communication-affinity policy exists to eliminate (§1: "Moving a process
// closer to the resource it is using most heavily may reduce system-wide
// communication traffic").
type Stage struct {
	Forwarded int
}

// Kind implements proc.Body.
func (s *Stage) Kind() string { return StageKind }

// Step implements proc.Body.
func (s *Stage) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op != 0 {
			continue
		}
		ctx.Send(1, d.Body)
		s.Forwarded++
	}
}

// Snapshot implements proc.Body.
func (s *Stage) Snapshot() ([]byte, error) { return proc.Snapshot(s) }

// Restore implements proc.Body.
func (s *Stage) Restore(data []byte) error { return proc.Restore(s, data) }

// LinkHolderKind is the registry name of LinkHolder.
const LinkHolderKind = "wl-holder"

// LinkHolder passively holds links (it models the long-lived request and
// resource links of §2.4 that make server migration the worst case for
// link updating). It sends one message on each held link when poked.
type LinkHolder struct {
	Poked int
}

// Kind implements proc.Body.
func (h *LinkHolder) Kind() string { return LinkHolderKind }

// Step implements proc.Body.
func (h *LinkHolder) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if string(d.Body) == "poke" {
			h.Poked++
			// Send one message on every held link.
			for id := link.ID(1); id < 64; id++ {
				if _, ok := ctx.LinkAddr(id); ok {
					ctx.Send(id, []byte("held-link-traffic"))
				}
			}
		}
	}
}

// Snapshot implements proc.Body.
func (h *LinkHolder) Snapshot() ([]byte, error) { return proc.Snapshot(h) }

// Restore implements proc.Body.
func (h *LinkHolder) Restore(data []byte) error { return proc.Restore(h, data) }

// EchoKind is the registry name of Echo.
const EchoKind = "wl-echo"

// Echo bounces every delivery straight back over link 1 and counts rounds.
// Unlike Sink it retains nothing, so a long benchmark run stays in steady
// state — this is the body behind the kernel hot-path throughput numbers.
type Echo struct {
	Rounds int
}

// Kind implements proc.Body.
func (e *Echo) Kind() string { return EchoKind }

// Step implements proc.Body.
func (e *Echo) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		e.Rounds++
		if err := ctx.Send(1, d.Body); err != nil {
			return 0, proc.Status{State: proc.Crashed, Err: err}
		}
	}
}

// Snapshot implements proc.Body.
func (e *Echo) Snapshot() ([]byte, error) { return proc.Snapshot(e) }

// Restore implements proc.Body.
func (e *Echo) Restore(data []byte) error { return proc.Restore(e, data) }

// CounterKind is the registry name of Counter.
const CounterKind = "wl-counter"

// Counter consumes deliveries and counts them without retaining bodies —
// the steady-state companion sink to Echo.
type Counter struct {
	Seen int
}

// Kind implements proc.Body.
func (c *Counter) Kind() string { return CounterKind }

// Step implements proc.Body.
func (c *Counter) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		if _, ok := ctx.Recv(); !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		c.Seen++
	}
}

// Snapshot implements proc.Body.
func (c *Counter) Snapshot() ([]byte, error) { return proc.Snapshot(c) }

// Restore implements proc.Body.
func (c *Counter) Restore(data []byte) error { return proc.Restore(c, data) }

// NullKind is the registry name of Null.
const NullKind = "wl-null"

// Null blocks forever and carries no state — its Snapshot is empty, so a
// migration of a Null process measures pure protocol-and-transfer cost
// (the body behind the migration hot-path number).
type Null struct{}

// Kind implements proc.Body.
func (n *Null) Kind() string { return NullKind }

// Step implements proc.Body.
func (n *Null) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		if _, ok := ctx.Recv(); !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
	}
}

// Snapshot implements proc.Body.
func (n *Null) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements proc.Body.
func (n *Null) Restore([]byte) error { return nil }

// RecorderKind is the registry name of Recorder.
const RecorderKind = "wl-recorder"

// Recorder consumes sequence-stamped deliveries — a 4-byte little-endian
// sequence number at the head of the body — and counts arrivals per
// sequence. The chaos invariant checker reads Seen to prove at-most-once
// delivery under faults: a count above one is a duplicate, and a missing
// sequence is legal only when the cluster accounted a matching loss.
type Recorder struct {
	Seen map[uint32]uint32
	Junk int // deliveries too short to carry a sequence number
}

// Kind implements proc.Body.
func (r *Recorder) Kind() string { return RecorderKind }

// Step implements proc.Body.
func (r *Recorder) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if len(d.Body) < 4 {
			r.Junk++
			continue
		}
		if r.Seen == nil {
			r.Seen = make(map[uint32]uint32)
		}
		seq := uint32(d.Body[0]) | uint32(d.Body[1])<<8 |
			uint32(d.Body[2])<<16 | uint32(d.Body[3])<<24
		r.Seen[seq]++
	}
}

// Snapshot implements proc.Body.
func (r *Recorder) Snapshot() ([]byte, error) { return proc.Snapshot(r) }

// Restore implements proc.Body.
func (r *Recorder) Restore(data []byte) error { return proc.Restore(r, data) }

// Registry returns a process registry with every workload body kind
// registered (plus the VM kind that proc.NewRegistry pre-registers), so
// drivers outside the kernel can build migratable clusters without
// touching internal/proc directly.
func Registry() *proc.Registry {
	reg := proc.NewRegistry()
	reg.Register(SinkKind, func() proc.Body { return &Sink{} })
	reg.Register(ChatterKind, func() proc.Body { return &Chatter{} })
	reg.Register(LinkHolderKind, func() proc.Body { return &LinkHolder{} })
	reg.Register(StageKind, func() proc.Body { return &Stage{} })
	reg.Register(EchoKind, func() proc.Body { return &Echo{} })
	reg.Register(CounterKind, func() proc.Body { return &Counter{} })
	reg.Register(NullKind, func() proc.Body { return &Null{} })
	reg.Register(RecorderKind, func() proc.Body { return &Recorder{} })
	reg.Register(JobKind, func() proc.Body { return &Job{} })
	reg.Register(SpinnerKind, func() proc.Body { return &Spinner{} })
	return reg
}
