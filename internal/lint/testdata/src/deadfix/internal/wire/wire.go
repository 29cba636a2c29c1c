// Package wire mimics internal/msg: an AppendTo/Encode/Decode triple that
// only tests call stays silent, because wirepair keeps the three together.
package wire

// Ping is a payload.
type Ping struct{ N byte }

func (p Ping) AppendTo(b []byte) []byte { return append(b, p.N) }
func (p Ping) Encode() []byte           { return p.AppendTo(nil) }

// DecodePing is Ping's decoder.
func DecodePing(b []byte) Ping { return Ping{N: b[0]} }
