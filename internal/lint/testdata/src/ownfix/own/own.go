// Package own exercises every ownership finding class — use-after-Put,
// double-Put (straight-line, via an annotated releaser), body escapes —
// plus the negative cases that must stay silent: a release on one branch
// only, a reassigned local, blessed forwarder retention, in-place body
// reuse, ownership transfer by call or return, and locally-built envelopes.
package own

import "ownfix/msg"

func sink(b []byte) {}

// retained is the package-level escape target.
var retained *msg.Message // only storing INTO it is checked

// UseAfterPut reads the envelope after releasing it.
func UseAfterPut(p *msg.Pool) {
	m := p.Get()
	p.Put(m)
	sink(m.Body) // want: use after release
}

// DoublePut releases twice on a straight line.
func DoublePut(p *msg.Pool) {
	m := p.Get()
	p.Put(m)
	p.Put(m) // want: double release
}

// MaybePut releases on one branch only, then again unconditionally. A
// release reaches only the rest of its own statement list, so this is
// silent: Pool.Put's double-release panic is the check for it.
func MaybePut(p *msg.Pool, drop bool) {
	m := p.Get()
	if drop {
		p.Put(m)
	}
	sink(m.Body)
	p.Put(m)
}

// Reassigned reuses the local for a fresh envelope: silent.
func Reassigned(p *msg.Pool) {
	m := p.Get()
	p.Put(m)
	m = p.Get()
	sink(m.Body)
}

// releaseHelper wraps Put the way Kernel.putMsg does.
//
//demos:releases m — fixture releaser: the analyzer must treat this like Pool.Put.
func releaseHelper(p *msg.Pool, m *msg.Message) {
	p.Put(m)
}

// DoublePutViaHelper is only visible if //demos:releases is honored.
func DoublePutViaHelper(p *msg.Pool) {
	m := p.Get()
	releaseHelper(p, m)
	p.Put(m) // want: double release through the annotated helper
}

// BodyEscape stores a body alias into a struct that outlives the handler.
type record struct {
	data []byte
	m    *msg.Message
}

func BodyEscape(p *msg.Pool, r *record) {
	m := p.Get()
	b := m.Body[:0]
	r.data = b // want: body alias escapes
	p.Put(m)
}

// EnvelopeEscape stores the envelope itself without a blessing.
func EnvelopeEscape(p *msg.Pool, r *record) {
	m := p.Get()
	r.m = m // want: unblessed retention
}

// AppendEscape retains through an append, deliver.go-style.
func AppendEscape(p *msg.Pool, held *[]*msg.Message) {
	m := p.Get()
	*held = append(*held, m) // want: unblessed retention (the element, not the append)
}

// GlobalEscape parks the envelope in a package variable.
func GlobalEscape(p *msg.Pool) {
	m := p.Get()
	retained = m // want: unblessed retention in a package variable
}

// ClosureEscape captures the envelope in a closure that may outlive it.
func ClosureEscape(p *msg.Pool, later func(func())) {
	m := p.Get()
	later(func() { sink(m.Body) }) // want: closure capture
}

// forwarder mirrors deliver.go's bounce: a reviewed retainer.
type forwarder struct {
	orig *msg.Message
}

// Bless retains under a function-level owner role: silent.
//
//demos:owner forwarder — fixture: the forwarder owns the original until resubmit.
func (f *forwarder) Bless(m *msg.Message) {
	f.orig = m
}

// BlessLine retains under a line-level owner role: silent.
func BlessLine(p *msg.Pool, r *record) {
	m := p.Get()
	r.m = m //demos:owner fixture — line-level blessing keeps exactly this store silent.
}

// Rolless carries a blessing with no role, which is itself a finding.
func Rolless(p *msg.Pool, r *record) {
	m := p.Get()
	r.m = m //demos:owner
}

// badReleases names a parameter that does not exist.
//
//demos:releases q — want: misannotation finding
func badReleases(p *msg.Pool, m *msg.Message) {
	p.Put(m)
}

// Transfer hands the envelope to a callee and returns another: ownership
// transfer by call and by return are both silent.
func Transfer(p *msg.Pool, route func(*msg.Message)) *msg.Message {
	m := p.Get()
	route(m)
	return p.Get()
}

// InPlaceReuse writes the envelope's own body back: the recycling idiom.
func InPlaceReuse(p *msg.Pool) {
	m := p.Get()
	b := m.Body[:0]
	b = append(b, 1, 2, 3)
	m.Body = b // silent: not retention, the envelope keeps its own array
	p.Put(m)
}

// LocalBuild retains a heap-built envelope: not pooled, silent.
func LocalBuild(r *record) {
	m := &msg.Message{Op: 1}
	r.m = m
}
