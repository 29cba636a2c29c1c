// Package msg is a miniature of the real envelope package: just enough
// Pool/Message surface for the ownership analyzer to resolve its
// vocabulary (Message, Pool.Put).
package msg

// Message is a pooled envelope.
type Message struct {
	Op   uint8
	Body []byte
}

// Pool recycles envelopes.
type Pool struct {
	free []*Message
}

// Get pops a recycled envelope or builds one.
func (p *Pool) Get() *Message {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	return &Message{}
}

// Put releases an envelope back to the free list.
//
//demos:owner pool — the free list is where released envelopes live.
func (p *Pool) Put(m *Message) {
	m.Body = m.Body[:0]
	p.free = append(p.free, m)
}
