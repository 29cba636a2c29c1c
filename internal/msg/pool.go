package msg

import (
	"encoding/binary"

	"demosmp/internal/addr"
)

// Pool is a free list of Message envelopes for the kernel fast path. A
// steady-state send acquires an envelope with Get, fills it in place (the
// Body and Links backing arrays survive recycling, so appends reuse old
// capacity), and the final consumer returns it with Put.
//
// A pool also keeps its kernel's one timer mark (TimerMark): the shared,
// read-only message a fired timer waits as on a process queue, so a fired
// timer on its normal path takes no envelope from the pool at all.
//
// Pools are single-threaded, matching the event engine. Put accepts any
// message — heap-constructed envelopes (tests, drivers, cold paths) pass
// through as no-ops — so consumption sites never need to know a message's
// provenance. An envelope always returns to the pool that constructed it:
// whichever kernel consumes a message calls Put on its own pool, and Put
// forwards to the envelope's home, or — when the home is a pool of another
// shard, whose goroutine may be running — parks it in this shard's return
// pool (ReturnVia), which the cluster's round barrier, single-threaded, sends
// home (SendHome). So Put only ever writes pools of its caller's own shard,
// and one-way traffic leaves every pool as full as it found it at the next
// barrier.
//
// The single-releaser discipline is checked twice (DESIGN.md §8.1).
// demoslint's ownership rule rejects, within one statement list, a use or a
// second release of an envelope after Put, and anywhere a retention outside
// a //demos:owner-blessed site. Put backs the rest at run time: a second
// release of an envelope already on a free list (its home's or a return
// pool's) panics (inFree), Put zeroes the envelope so one resubmitted after
// its release panics in netw.Send, and every release lands on its home
// pool's free list by the next barrier, where a test can find it.
type Pool struct {
	free []*Message
	back *Pool    // this shard's return pool; nil off a sharded cluster, itself for a return pool
	news int      // envelopes constructed because the free list was empty
	mark *Message // the one timer mark (TimerMark), made at the first timer its kernel queues
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed envelope, reusing a released one when available.
// Body and Links are empty slices that keep their previous capacity.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode in bench_hotpath_test.go.
func (p *Pool) Get() *Message {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		m.inFree = false
		return m
	}
	p.news++
	return &Message{home: p}
}

// Clone returns a pooled deep copy of m: Get, then copy into the envelope's
// retained Body and Links capacity (a bounced original m carries is cloned
// with it — every copy owns its own Orig). The network draws its wire copies
// this way (the ARQ's and the duplicate injector's): from the receiver's pool
// on its own shard, from the sender's across shards.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/netw-send-arq in bench_hotpath_test.go.
func (p *Pool) Clone(m *Message) *Message {
	c := p.Get()
	body, links := c.Body, c.Links
	body = append(body, m.Body...)
	links = append(links, m.Links...)
	*c = *m
	c.Body, c.Links, c.home, c.inFree = body, links, p, false
	if m.Orig != nil {
		c.Orig = p.Clone(m.Orig)
	}
	return c
}

// Put releases an envelope back to the free list of the pool that
// constructed it, whichever pool of the caller's shard it is called on; an
// envelope whose home is on another shard waits in this shard's return pool
// until the barrier sends it home. Heap-constructed messages (not born from a
// Pool) are ignored; releasing the same pooled envelope twice panics, since
// the second release would corrupt whoever holds it now. The Body and Links
// backing arrays are kept (truncated to zero length).
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode in bench_hotpath_test.go.
//demos:owner pool — Put is where ownership ends: the free list is the one place a released envelope may live.
func (p *Pool) Put(m *Message) {
	if m == nil || m.home == nil {
		return
	}
	if m.inFree {
		panic("msg: double release of pooled message")
	}
	// Zero in place and store field by field: a composite literal that reads
	// *m is built in a stack temporary and copied over it on every Put.
	home := m.home
	body := m.Body[:0]
	links := m.Links[:0]
	*m = Message{}
	m.Body = body
	m.Links = links
	m.home = home
	m.inFree = true
	if home.back != p.back {
		home = p.back
	}
	home.free = append(home.free, m)
}

// TimerMark returns what a fired timer from from, tagged tag, waits as on a
// process queue: the pool's mark when it stands for that timer (a control
// OpTimer message with that sender and the tag as its 2-byte body), made
// for it if the pool has none yet, and nil otherwise. It is the one mark
// lookup: a kernel's local timer asks it at its hop with no envelope, a
// timer that arrives as an envelope asks it at enqueue. A mark is shared by
// every queue that holds it and never written after it is made; it is not
// pooled, so Put ignores it, and the kernel turns it back into an envelope
// before it sends it on (Message.IsMark). A pool makes at most one mark, so
// a timer that does not match it costs nothing more than its envelope.
func (p *Pool) TimerMark(from addr.ProcessAddr, tag uint16) *Message {
	mk := p.mark
	if mk == nil {
		mk = &Message{Kind: KindControl, Op: OpTimer, From: from, Body: binary.LittleEndian.AppendUint16(nil, tag), mark: true}
		p.mark = mk
	}
	if mk.From == from && binary.LittleEndian.Uint16(mk.Body) == tag {
		return mk
	}
	return nil
}

// NewReturnPool returns a shard's return pool: the pool Put parks envelopes
// of other shards' pools in. Nothing Gets from it; SendHome empties it.
func NewReturnPool() *Pool {
	r := &Pool{}
	r.back = r
	return r
}

// ReturnVia joins p to the shard whose return pool is r: a Put on p of an
// envelope from a pool not joined to r parks it in r. A pool that joined no
// shard shares the nil return pool with every other such pool, so Put sends
// everything straight home.
func (p *Pool) ReturnVia(r *Pool) { p.back = r }

// SendHome files every envelope parked in return pool r on its home pool's
// free list. It writes pools of every shard, so the cluster calls it only at
// its round barrier, where no shard runs.
//
//demos:owner pool — the parked envelopes move from one free list to another: ownership has already ended.
func (r *Pool) SendHome() {
	for _, m := range r.free {
		m.home.free = append(m.home.free, m)
	}
	clear(r.free)
	r.free = r.free[:0]
}

// Reserve tops the free list up to at least n envelopes, constructing the
// shortfall eagerly. The migration fast path calls it when a kernel accepts
// an inbound migration (step 3), so the arriving process's admin replies and
// acks find warm envelopes instead of growing the pool mid-protocol.
func (p *Pool) Reserve(n int) {
	for len(p.free) < n {
		p.news++
		p.free = append(p.free, &Message{home: p, inFree: true})
	}
}

// Free reports how many envelopes sit on the free list (tests).
func (p *Pool) Free() int { return len(p.free) }

// News reports how many envelopes Get had to construct (tests: a warm
// steady state stops growing this).
func (p *Pool) News() int { return p.news }
