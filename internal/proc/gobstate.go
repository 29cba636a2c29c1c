package proc

import (
	"bytes"
	"encoding/gob"
	"io"
	"sync"
)

// GobState is the Snapshot/Restore codec of a native body whose control
// state is the gob encoding of its struct T. It produces and accepts exactly
// the bytes a fresh gob.Encoder writes — T's type descriptors followed by
// one value message — but compiles gob's encode and decode engines once per
// type instead of once per call: a long-lived encoder and decoder exchange
// the descriptors once, after which each Snapshot is the cached descriptor
// prefix plus a freshly encoded value message, and each Restore checks the
// prefix and hands only the value message to the decoder.
//
// That is sound only while the descriptors depend on T alone. T must have no
// interface-typed field anywhere inside it: gob describes the concrete type
// behind an interface the first time an encoder meets it, so a long-lived
// encoder would omit what a fresh one sends. (proctest.CheckGobCodec holds
// every user of this type to fresh gob's bytes, values and errors.)
//
// A flat T (GobFlat: integer, unsigned, bool and string fields only) skips
// gob's engines after set-up: Snapshot writes the value message itself, and
// Restore reads one itself when it accepts the whole message — one value
// message of T's type id, well formed, every value in range — before it
// writes a field. Anything else goes to the decoders below, so values and
// errors stay gob's own (gobflat.go).
//
// The zero value is ready to use, sets itself up on first use, and is safe
// for concurrent use (parallel shards migrate bodies of one kind at once).
type GobState[T any] struct {
	mu     sync.Mutex
	enc    *gob.Encoder
	out    bytes.Buffer // enc's sink; holds one value message per Snapshot
	prefix []byte       // T's descriptor messages, as a fresh encoder sends them
	dec    *gob.Decoder // has consumed prefix; nil until needed or after an error
	in     gobReader    // dec's source

	// The flat path, set up with prefix: nil typeID means T is not flat.
	flat   []flatField // T's sent fields, in wire order
	typeID []byte      // T's type id as a value message carries it
	msg    []byte      // Snapshot's value message, reused
}

// Snapshot encodes *v.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (g *GobState[T]) Snapshot(v *T) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.setup(); err != nil {
		return nil, err
	}
	if g.typeID != nil {
		return g.snapshotFlat(v), nil
	}
	g.out.Reset()
	if err := g.enc.Encode(v); err != nil {
		g.enc = nil // its stream position is unknown: start over next time
		return nil, err
	}
	b := make([]byte, len(g.prefix)+g.out.Len())
	copy(b[copy(b, g.prefix):], g.out.Bytes())
	return b, nil
}

// Restore decodes data, as written by Snapshot or by a fresh gob.Encoder,
// into *v. What the flat path does not accept goes to the long-lived
// decoder; anything that cannot take — a foreign prefix, a corrupt message —
// goes to a fresh gob.Decoder over all of data instead, so the result and
// the error are gob's own.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (g *GobState[T]) Restore(v *T, data []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.setup() == nil && bytes.HasPrefix(data, g.prefix) {
		if g.typeID != nil && g.restoreFlat(v, data[len(g.prefix):]) {
			return nil
		}
		if g.dec == nil {
			g.startDecoder()
		}
		g.in.buf = append(g.in.buf, data[len(g.prefix):]...)
		err := g.dec.Decode(v)
		g.in.buf, g.in.off = g.in.buf[:0], 0
		if err == nil {
			return nil
		}
		g.dec = nil
	}
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// setup starts the long-lived encoder and learns the descriptor prefix: a
// new encoder's first message stream is descriptors then value, its second
// the value alone, so encoding the zero T twice leaves the prefix as the
// difference, and the second stream is the zero T's value message the flat
// path reads T's type id from.
func (g *GobState[T]) setup() error {
	if g.enc != nil {
		return nil
	}
	g.out.Reset()
	enc := gob.NewEncoder(&g.out)
	zero := new(T)
	if err := enc.Encode(zero); err != nil {
		return err
	}
	first := g.out.Len()
	if err := enc.Encode(zero); err != nil {
		return err
	}
	g.prefix = append([]byte(nil), g.out.Bytes()[:2*first-g.out.Len()]...)
	g.setupFlat(g.out.Bytes()[first:])
	g.enc = enc
	return nil
}

// startDecoder starts the long-lived decoder with the descriptors waiting
// in its source: gob reads them on the way to the first value message.
func (g *GobState[T]) startDecoder() {
	g.in.buf, g.in.off = append(g.in.buf[:0], g.prefix...), 0
	g.dec = gob.NewDecoder(&g.in)
}

// gobReader feeds a gob.Decoder from a buffer that Restore refills. It is an
// io.ByteReader so the decoder reads it directly, with no read-ahead buffer
// of its own that could hold bytes across calls.
type gobReader struct {
	buf []byte
	off int
}

func (r *gobReader) Read(p []byte) (int, error) {
	if r.off == len(r.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

func (r *gobReader) ReadByte() (byte, error) {
	if r.off == len(r.buf) {
		return 0, io.EOF
	}
	c := r.buf[r.off]
	r.off++
	return c, nil
}
