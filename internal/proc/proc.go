// Package proc defines the process model hosted by the DEMOS/MP kernel.
//
// A process is a Body — something the kernel can schedule in slices,
// snapshot into bytes, and re-instantiate on another machine. Two families
// exist: VM bodies (user programs compiled for the DVM, whose memory image
// is the moved "program, data, and stack" of Figure 2-2) and native bodies
// (the system server processes — switchboard, process manager, file system
// — written as resumable Go state machines with serializable state, which
// is what lets the paper's hard test case, migrating a file system process
// mid-service, actually run).
package proc

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// State is the scheduling outcome of a Step call.
type State uint8

const (
	// Runnable: the body can use more CPU; requeue it.
	Runnable State = iota
	// Blocked: the body is waiting for a message; re-Step on arrival.
	Blocked
	// Exited: the body finished; Status.ExitCode holds the code.
	Exited
	// Crashed: the body faulted; Status.Err holds the cause.
	Crashed
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	case Crashed:
		return "crashed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Status is returned by Body.Step.
type Status struct {
	State    State
	ExitCode int32
	Err      error
}

// Delivery is one received message as seen by a body.
type Delivery struct {
	From    addr.ProcessAddr
	Body    []byte
	Carried []link.ID // links that arrived in the message, already installed
	Op      msg.Op    // OpNone for user messages; kernel completions/timers otherwise
	Xfer    uint16    // correlation id for move-data completions; a timer's tag
	OK      bool      // completion success
	Data    []byte    // assembled data for move-read completions
}

// Context is the kernel-call interface handed to a body during Step. All
// contact between a process and the world goes through it — the Go
// rendering of "links are the only connections a process has to the
// operating system, system resources, and other processes".
type Context interface {
	// PID returns this process's immutable identity.
	PID() addr.ProcessID
	// Machine returns the processor currently executing the process.
	Machine() addr.MachineID
	// Now returns the simulated time.
	Now() sim.Time
	// Rand returns deterministic pseudo-randomness.
	Rand() uint32

	// Send transmits body over the link, optionally carrying copies of
	// other links from this process's table.
	Send(on link.ID, body []byte, carry ...link.ID) error
	// SendOp transmits a kernel control operation over the link —
	// how the process manager drives kernels through its
	// DELIVERTOKERNEL links. Privileged.
	SendOp(on link.ID, op msg.Op, body []byte) error
	// Recv pops the next queued delivery; ok=false (with a nil *Delivery)
	// means block. The *Delivery points at one slot the context reuses: it
	// is valid until the next Recv or until Step returns, whichever comes
	// first. A body that needs a delivery longer copies *d (and, past
	// Step, its Body and Data bytes, which alias the message envelope).
	Recv() (*Delivery, bool)

	// CreateLink mints a link addressing this process, optionally
	// granting a data area in its memory image.
	CreateLink(attrs link.Attr, area link.DataArea) (link.ID, error)
	// DestroyLink removes a link from the table.
	DestroyLink(id link.ID) error
	// LinkAddr inspects the address a held link points at.
	LinkAddr(id link.ID) (link.Link, bool)
	// MintLink fabricates a link to an arbitrary process address.
	// Privileged; only system processes may call it (the process
	// manager uses DELIVERTOKERNEL links minted this way).
	MintLink(l link.Link) (link.ID, error)

	// MoveTo streams data into the data area granted by a held link
	// (the paper's large-transfer facility, §2.2). Completion arrives
	// later as a Delivery with Op=OpMoveWriteDone and the given xfer.
	MoveTo(on link.ID, off uint32, data []byte, xfer uint16) error
	// MoveFrom streams data out of the area granted by a held link;
	// the assembled bytes arrive as a Delivery with Op=OpMoveReadDone.
	MoveFrom(on link.ID, off, n uint32, xfer uint16) error

	// ImageRead/ImageWrite access this process's own memory image
	// (native bodies use it to expose data areas).
	ImageRead(off int, b []byte) error
	ImageWrite(off int, b []byte) error

	// SetTimer delivers a Delivery with Op=OpTimer and the tag in Xfer
	// (and a nil Body) after d.
	SetTimer(d sim.Time, tag uint16)

	// Print writes to the trace console.
	Print(b []byte)
	// Logf writes a formatted line to the trace console.
	Logf(format string, args ...any)

	// RequestMigration asks the process manager to move this process
	// (§3.1: "It is of course possible for a process to request its
	// own migration").
	RequestMigration(dest addr.MachineID) error
}

// Body is the schedulable, migratable substance of a process.
type Body interface {
	// Kind names the body type for re-instantiation on the destination
	// kernel after migration.
	Kind() string
	// Step runs the body for at most budget units of work and returns
	// the cost actually spent (VM bodies: instructions; native bodies
	// may return 0 to be charged the kernel's fixed native step cost).
	Step(ctx Context, budget int) (cost int, st Status)
	// Snapshot serializes the body's control state — the part of the
	// swappable state that is not the link table.
	Snapshot() ([]byte, error)
	// Restore rebuilds the control state on the destination kernel.
	Restore(data []byte) error
}

// MemoryHolder is implemented by bodies that execute out of the process
// memory image (VM bodies). The kernel wires the image in at creation and
// again after the program transfer of migration step 5.
type MemoryHolder interface {
	SetImage(img *memory.Image)
}

// Registry maps body kinds to factories so a destination kernel can
// re-instantiate a migrated process (§3.1 step 3 allocates the empty state;
// the factory provides the Go-side vessel the restored state fills).
type Registry struct {
	factories map[string]func() Body
}

// NewRegistry returns a registry with the VM body kind pre-registered.
func NewRegistry() *Registry {
	r := &Registry{factories: make(map[string]func() Body)}
	r.Register(VMKind, func() Body { return &VMBody{} })
	return r
}

// Register binds a kind name to a factory. Registering a duplicate panics:
// kinds are wiring, not data.
func (r *Registry) Register(kind string, fn func() Body) {
	if _, dup := r.factories[kind]; dup {
		panic(fmt.Sprintf("proc: kind %q registered twice", kind))
	}
	r.factories[kind] = fn
}

// New instantiates an empty body of the given kind.
func (r *Registry) New(kind string) (Body, error) {
	fn, ok := r.factories[kind]
	if !ok {
		return nil, fmt.Errorf("proc: unknown body kind %q", kind)
	}
	return fn(), nil
}

// Kinds lists the registered kinds, sorted.
func (r *Registry) Kinds() []string {
	out := make([]string, 0, len(r.factories))
	for k := range r.factories {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
