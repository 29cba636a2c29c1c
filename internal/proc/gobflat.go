package proc

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"reflect"
)

// The flat path of GobState: a struct whose every exported field is an
// integer, an unsigned integer, a bool or a string is written and read here
// without gob's engines. gob's value message for such a struct is short and
// fixed by the wire format — the byte count, the type id, then for each
// non-zero field its number as a delta from the previous one and its value,
// and a 0 — so this file writes exactly the bytes gob writes, reads any one
// well-formed message of that shape, and hands anything else back to gob.

// flatKind is how gob puts a flat field on the wire.
type flatKind uint8

const (
	flatInt    flatKind = iota + 1 // zig-zag signed integer
	flatUint                       // unsigned integer
	flatBool                       // unsigned 1 (false is never sent)
	flatString                     // length, then the bytes
)

// flatField is one field gob sends, in wire order.
type flatField struct {
	index int      // reflect field index in the struct
	kind  flatKind // wire form
	bits  int      // width of an integer field: gob rejects a value that overflows it
}

// gobCustom lists the interfaces through which a type takes over its own
// gob encoding; a flat struct and its fields implement none of them.
var gobCustom = [...]reflect.Type{
	reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

// GobFlat reports whether GobState[T] with reflect.TypeFor[T]() == t takes
// the flat path: t is a struct, every exported field is an integer, an
// unsigned integer, a bool or a string, and neither t nor a field type
// encodes itself (gob.GobEncoder, encoding.BinaryMarshaler,
// encoding.TextMarshaler or their decoding halves). Any other state — a
// map, a slice, a nested struct, a pointer — goes through gob's engines.
func GobFlat(t reflect.Type) bool { return flatFields(t) != nil }

// flatFields returns t's fields in gob's wire order when t is a flat struct,
// and nil otherwise (a flat struct with no fields gives an empty, non-nil
// list).
func flatFields(t reflect.Type) []flatField {
	if t.Kind() != reflect.Struct || customGob(t) {
		return nil
	}
	fields := []flatField{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue // gob neither sends nor sets it
		}
		ff := flatField{index: i}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			ff.kind, ff.bits = flatInt, f.Type.Bits()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			ff.kind, ff.bits = flatUint, f.Type.Bits()
		case reflect.Bool:
			ff.kind = flatBool
		case reflect.String:
			ff.kind = flatString
		default:
			return nil
		}
		if customGob(f.Type) {
			return nil
		}
		fields = append(fields, ff)
	}
	return fields
}

func customGob(t reflect.Type) bool {
	for _, it := range gobCustom {
		if t.Implements(it) || reflect.PointerTo(t).Implements(it) {
			return true
		}
	}
	return false
}

// setupFlat learns the flat path from zeroMsg, the value message of the zero
// T (count, type id, the 0 that ends a struct with no field sent). It leaves
// typeID nil, and the flat path off, when T is not flat.
func (g *GobState[T]) setupFlat(zeroMsg []byte) {
	fields := flatFields(reflect.TypeFor[T]())
	if fields == nil {
		return
	}
	n, body, ok := gobUint(zeroMsg)
	if !ok || n != uint64(len(body)) || len(body) < 2 || body[len(body)-1] != 0 {
		return
	}
	g.flat, g.typeID = fields, bytes.Clone(body[:len(body)-1])
}

// snapshotFlat returns the descriptor prefix and *v's value message, the
// bytes a fresh gob.Encoder writes, in one allocation.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (g *GobState[T]) snapshotFlat(v *T) []byte {
	m := g.msg[:0]
	m = append(m, g.typeID...)
	rv := reflect.ValueOf(v).Elem()
	last := -1
	for i, f := range g.flat {
		fv := rv.Field(f.index)
		var x uint64
		switch f.kind {
		case flatInt:
			x = zigzag(fv.Int())
		case flatUint:
			x = fv.Uint()
		case flatBool:
			if fv.Bool() {
				x = 1
			}
		case flatString:
			x = uint64(fv.Len())
		}
		if x == 0 {
			continue // gob sends no zero field
		}
		m = appendGobUint(m, uint64(i-last))
		m = appendGobUint(m, x)
		if f.kind == flatString {
			m = append(m, fv.String()...)
		}
		last = i
	}
	m = append(m, 0)
	g.msg = m

	out := make([]byte, 0, len(g.prefix)+gobUintLen(uint64(len(m)))+len(m))
	out = append(out, g.prefix...)
	out = appendGobUint(out, uint64(len(m)))
	return append(out, m...)
}

// restoreFlat decodes msg, the part of a snapshot after the descriptor
// prefix, into *v, and reports whether it did. It writes only after reading
// the whole message, and only a message it accepts in full: exactly one
// value message of T's type id, each field number in range, each integer
// inside its field, the 0 terminator last. On false *v is untouched and gob
// should decode msg instead.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (g *GobState[T]) restoreFlat(v *T, msg []byte) bool {
	n, body, ok := gobUint(msg)
	if !ok || n != uint64(len(body)) || !bytes.HasPrefix(body, g.typeID) {
		return false
	}
	body = body[len(g.typeID):]
	if !g.walkFlat(body, reflect.Value{}) {
		return false
	}
	g.walkFlat(body, reflect.ValueOf(v).Elem())
	return true
}

// walkFlat reads the fields of a flat value message body (type id removed)
// and reports whether it is well formed. With a valid rv it also stores
// every field read; restoreFlat walks twice, checking first.
func (g *GobState[T]) walkFlat(body []byte, rv reflect.Value) bool {
	field := -1
	for {
		delta, rest, ok := gobUint(body)
		if !ok {
			return false
		}
		body = rest
		if delta == 0 {
			return len(body) == 0
		}
		if delta >= uint64(len(g.flat)-field) {
			return false
		}
		field += int(delta)
		f := g.flat[field]
		x, rest, ok := gobUint(body)
		if !ok {
			return false
		}
		body = rest
		switch f.kind {
		case flatInt:
			i := unzigzag(x)
			if f.bits < 64 && (i < -1<<(f.bits-1) || i >= 1<<(f.bits-1)) {
				return false
			}
			if rv.IsValid() {
				rv.Field(f.index).SetInt(i)
			}
		case flatUint:
			if f.bits < 64 && x >= 1<<f.bits {
				return false
			}
			if rv.IsValid() {
				rv.Field(f.index).SetUint(x)
			}
		case flatBool:
			if rv.IsValid() {
				rv.Field(f.index).SetBool(x != 0)
			}
		case flatString:
			if x > uint64(len(body)) {
				return false
			}
			if rv.IsValid() {
				rv.Field(f.index).SetString(string(body[:x]))
			}
			body = body[x:]
		}
	}
}

// gobUint reads one gob unsigned integer off the front of b, accepting what
// gob's decoder accepts: one byte below 0x80, or a byte holding -n and n
// big-endian bytes, 1 <= n <= 8.
func gobUint(b []byte) (x uint64, rest []byte, ok bool) {
	if len(b) == 0 {
		return 0, b, false
	}
	c := b[0]
	if c < 0x80 {
		return uint64(c), b[1:], true
	}
	n := -int(int8(c))
	if n > 8 || n > len(b)-1 {
		return 0, b, false
	}
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, b[1+n:], true
}

// appendGobUint appends x as gob's encoder writes it: one byte below 0x80,
// else the negated byte count and the value's minimal big-endian bytes.
func appendGobUint(b []byte, x uint64) []byte {
	n := gobUintLen(x) - 1
	if n == 0 {
		return append(b, byte(x))
	}
	b = append(b, byte(-n))
	for s := 8 * (n - 1); s >= 0; s -= 8 {
		b = append(b, byte(x>>s))
	}
	return b
}

// gobUintLen is the length of appendGobUint's encoding of x.
func gobUintLen(x uint64) int {
	n := 1
	if x >= 0x80 {
		for ; x != 0; x >>= 8 {
			n++
		}
	}
	return n
}

// zigzag maps a signed integer onto gob's unsigned wire form: the value
// shifted left one bit, complemented first when negative, with the sign in
// bit 0.
func zigzag(i int64) uint64 {
	if i < 0 {
		return uint64(^i<<1) | 1
	}
	return uint64(i << 1)
}

func unzigzag(x uint64) int64 {
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}
