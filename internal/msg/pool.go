package msg

// Pool is a free list of Message envelopes for the kernel fast path. A
// steady-state send acquires an envelope with Get, fills it in place (the
// Body and Links backing arrays survive recycling, so appends reuse old
// capacity), and the final consumer returns it with Put.
//
// Pools are single-threaded, matching the event engine. Put accepts any
// message — heap-constructed envelopes (tests, drivers, cold paths) pass
// through as no-ops — so consumption sites never need to know a message's
// provenance. An envelope always returns to the pool that constructed it:
// whichever kernel consumes a message calls Put on its own pool, and Put
// forwards to the envelope's home. Pooled envelopes never cross a shard, so
// home is always a pool of the caller's own engine (same goroutine), and
// one-way traffic leaves every pool as full as it found it.
//
// The single-releaser discipline is checked twice (DESIGN.md §8.1).
// demoslint's ownership rule rejects, within one statement list, a use or a
// second release of an envelope after Put, and anywhere a retention outside
// a //demos:owner-blessed site. Put backs the rest at run time: a second
// release of an envelope already on its free list panics (inFree), Put
// zeroes the envelope so one resubmitted after its release panics in
// netw.Send, and every release lands on the home pool's free list, where a
// test can find it.
type Pool struct {
	free []*Message
	news int // envelopes constructed because the free list was empty
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
// with it — every copy owns its own Orig). The network's ARQ draws its master
// and wire copies this way, from the pool of the machine that will release
// them.
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
// constructed it, whichever pool it is called on. Heap-constructed
// messages (not born from a Pool) are ignored; releasing the same pooled
// envelope twice panics, since the second release would corrupt whoever
// holds it now. The Body and Links backing arrays are kept (truncated to
// zero length).
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
	p = m.home
	body := m.Body[:0]
	links := m.Links[:0]
	*m = Message{}
	m.Body = body
	m.Links = links
	m.home = p
	m.inFree = true
	p.free = append(p.free, m)
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
