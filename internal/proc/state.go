package proc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// Snapshot and Restore are the one codec of a native body's control state:
// the body's struct T in a format this package defines, so that the bytes
// are a function of the state alone — not of map iteration order, of what
// else the process encoded before, or of a serializer's type numbering.
//
//   - exported fields in declaration order (unexported ones stay behind);
//   - signed integers as zig-zag varints, unsigned ones as uvarints;
//   - a bool as one byte, 0 or 1;
//   - a string or a []byte as a uvarint length, then the bytes;
//   - a slice as a length, then its elements;
//   - a map as a presence byte (0 nil, 1 present), then its length and
//     its entries (key, value), sorted by the key's encoded bytes;
//   - a pointer as a presence byte (0 nil, 1 present), then its target;
//   - a nested struct recursively.
//
// Any other kind (float, array, interface, channel, func) is an error, as
// is a struct with no exported field. The format is canonical both ways:
// Restore accepts exactly what Snapshot can produce, so Snapshot of a
// restored value gives back the input byte for byte. Restore checks the
// whole input before it writes a field. A zero-length slice comes back
// nil, and an empty map comes back empty: bodies write into the maps their
// constructors make.

// Snapshot encodes *v. The result is the one allocation when T holds no
// map and encodes to at most 64 bytes.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func Snapshot[T any](v *T) ([]byte, error) {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return nil, err
	}
	var buf [64]byte
	b := c.put(buf[:0], reflect.ValueOf(v).Elem())
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Restore decodes data, as Snapshot wrote it, into *v. On error *v is
// untouched.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func Restore[T any](v *T, data []byte) error {
	t := reflect.TypeFor[T]()
	c, err := codecFor(t)
	if err != nil {
		return err
	}
	rest, err := c.read(data, reflect.Value{})
	if err == nil && len(rest) != 0 {
		err = errTrailing
	}
	if err != nil {
		return stateError(t, len(data)-len(rest), err)
	}
	c.read(data, reflect.ValueOf(v).Elem()) // cannot fail: the check read all of data
	return nil
}

var (
	errShort    = errors.New("input ends inside a value")
	errTrailing = errors.New("bytes after the last field")
	errVarint   = errors.New("over-long varint")
	errOverflow = errors.New("integer overflows its field")
	errFlag     = errors.New("bool or presence byte neither 0 nor 1")
	errLength   = errors.New("length runs past the end of the input")
	errMapOrder = errors.New("map keys unsorted or repeated")
)

// stateError formats a rejected input; it is out of line because a
// hot-path function may not call fmt.
func stateError(t reflect.Type, off int, err error) error {
	return fmt.Errorf("proc: restoring %v: at byte %d: %w", t, off, err)
}

// codec encodes and decodes the values of one type. Codecs are built once
// per type and shared (codecs below).
type codec struct {
	typ    reflect.Type
	kind   reflect.Kind // Int, Uint, Bool, String (a []byte too), Slice, Map, Pointer or Struct
	bits   int          // an integer's width
	elem   *codec       // a slice's element, a map's value, a pointer's target
	key    *codec       // a map's key
	fields []field      // a struct's exported fields, in declaration order
	lossy  bool         // unequal values may encode alike (a pointer or unexported field inside): no map key
}

type field struct {
	index int
	c     *codec
}

// codecs caches each type's codec.
var codecs sync.Map // reflect.Type -> *codec

func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	c, err := build(t, map[reflect.Type]*codec{})
	if err != nil {
		return nil, fmt.Errorf("proc: no state codec for %v: %w", t, err)
	}
	codecs.Store(t, c)
	return c, nil
}

// build makes t's codec; building holds the codecs under construction, so
// a recursive type refers back to its own.
func build(t reflect.Type, building map[reflect.Type]*codec) (*codec, error) {
	if c := building[t]; c != nil {
		return c, nil
	}
	c := &codec{typ: t, kind: t.Kind()}
	building[t] = c
	var err error
	switch c.kind {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.kind, c.bits = reflect.Int, t.Bits()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.kind, c.bits = reflect.Uint, t.Bits()
	case reflect.Bool, reflect.String:
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			c.kind = reflect.String // a []byte travels as a string does
			break
		}
		c.elem, err = build(t.Elem(), building)
	case reflect.Map:
		if c.key, err = build(t.Key(), building); err == nil && c.key.lossy {
			err = fmt.Errorf("map key %v does not encode one to one", t.Key())
		}
		if err == nil {
			c.elem, err = build(t.Elem(), building)
		}
	case reflect.Pointer:
		c.lossy = true
		c.elem, err = build(t.Elem(), building)
	case reflect.Struct:
		for i := 0; i < t.NumField() && err == nil; i++ {
			f := t.Field(i)
			if !f.IsExported() {
				c.lossy = true
				continue
			}
			var fc *codec
			fc, err = build(f.Type, building)
			if err == nil {
				c.fields = append(c.fields, field{i, fc})
				c.lossy = c.lossy || fc.lossy
			}
		}
		if err == nil && len(c.fields) == 0 {
			err = fmt.Errorf("%v has no exported field", t)
		}
	default:
		err = fmt.Errorf("%v is a %v", t, t.Kind())
	}
	return c, err
}

// put appends v's encoding to b.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (c *codec) put(b []byte, v reflect.Value) []byte {
	switch c.kind {
	case reflect.Int:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.String:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		if v.Kind() == reflect.String {
			return append(b, v.String()...)
		}
		return append(b, v.Bytes()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = c.elem.put(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for _, f := range c.fields {
			b = f.c.put(b, v.Field(f.index))
		}
		return b
	}
	if v.IsNil() { // a pointer or a map
		return append(b, 0)
	}
	if c.kind == reflect.Map {
		return append(append(b, 1), c.mapBytes(v)...)
	}
	return c.elem.put(append(b, 1), v.Elem())
}

// mapBytes encodes a present map: its length, then its entries sorted by
// their bytes. Keys encode one to one and no key's encoding is a prefix of
// another's, so that is the order of the keys' bytes. It takes no buffer
// to append to, and keeps only copies of what put returns: put's buffer
// reaching the heap through here would move Snapshot's stack buffer there.
func (c *codec) mapBytes(v reflect.Value) []byte {
	entries := make([][]byte, 0, v.Len())
	var e []byte
	for it := v.MapRange(); it.Next(); {
		e = c.elem.put(c.key.put(e[:0], it.Key()), it.Value())
		entries = append(entries, bytes.Clone(e))
	}
	slices.SortFunc(entries, bytes.Compare)
	b := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		b = append(b, e...)
	}
	return b
}

// read decodes one value off the front of b into v and returns the rest of
// b. With the zero v it only checks the value, and Restore checks the whole
// input that way before it reads it into the state.
//
//demos:hotpath — checked by demoslint (hotpathalloc); dynamic guards: TestGobStateAllocs in internal/workload and TestMigrationSteadyStateAllocs in bench_hotpath_test.go.
func (c *codec) read(b []byte, v reflect.Value) ([]byte, error) {
	set := v.IsValid()
	switch c.kind {
	case reflect.Int:
		x, rest, err := uvarint(b)
		i := int64(x>>1) ^ -int64(x&1)
		if err == nil && c.bits < 64 && (i < -1<<(c.bits-1) || i >= 1<<(c.bits-1)) {
			err = errOverflow
		}
		if err == nil && set {
			v.SetInt(i)
		}
		return rest, err
	case reflect.Uint:
		x, rest, err := uvarint(b)
		if err == nil && c.bits < 64 && x >= 1<<c.bits {
			err = errOverflow
		}
		if err == nil && set {
			v.SetUint(x)
		}
		return rest, err
	case reflect.Bool:
		on, rest, err := flag(b)
		if err == nil && set {
			v.SetBool(on)
		}
		return rest, err
	case reflect.String:
		n, rest, err := length(b)
		if err != nil || !set {
			return rest[n:], err
		}
		switch {
		case v.Kind() == reflect.String:
			v.SetString(string(rest[:n]))
		case n == 0:
			v.SetZero()
		default:
			v.SetBytes(bytes.Clone(rest[:n]))
		}
		return rest[n:], nil
	case reflect.Slice:
		n, rest, err := length(b)
		if err == nil && set {
			v.SetZero()
			if n > 0 {
				v.Set(reflect.MakeSlice(c.typ, n, n))
			}
		}
		var e reflect.Value
		for i := 0; i < n && err == nil; i++ {
			if set {
				e = v.Index(i)
			}
			rest, err = c.elem.read(rest, e)
		}
		return rest, err
	case reflect.Struct:
		var err error
		var fv reflect.Value
		for _, f := range c.fields {
			if set {
				fv = v.Field(f.index)
			}
			if b, err = f.c.read(b, fv); err != nil {
				break
			}
		}
		return b, err
	}
	present, rest, err := flag(b) // a pointer or a map
	if err != nil || !present {
		if err == nil && set {
			v.SetZero()
		}
		return rest, err
	}
	if c.kind == reflect.Map {
		return c.readMap(rest, v)
	}
	var e reflect.Value
	if set {
		v.Set(reflect.New(c.elem.typ))
		e = v.Elem()
	}
	return c.elem.read(rest, e)
}

// readMap reads a present map's length and entries: the keys' bytes must
// rise strictly.
func (c *codec) readMap(b []byte, v reflect.Value) ([]byte, error) {
	n, rest, err := length(b)
	set := v.IsValid()
	var m, key, val reflect.Value
	if err == nil && set {
		m = reflect.MakeMapWithSize(c.typ, n)
		v.Set(m)
	}
	var prev []byte
	for i := 0; i < n && err == nil; i++ {
		if set {
			key, val = reflect.New(c.key.typ).Elem(), reflect.New(c.elem.typ).Elem()
		}
		start := rest
		if rest, err = c.key.read(rest, key); err != nil {
			break
		}
		k := start[:len(start)-len(rest)]
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			return rest, errMapOrder
		}
		prev = k
		if rest, err = c.elem.read(rest, val); err == nil && set {
			m.SetMapIndex(key, val)
		}
	}
	return rest, err
}

// uvarint reads a minimal uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, b, errShort
	case n < 0 || n > 1 && b[n-1] == 0:
		return 0, b, errVarint
	}
	return x, b[n:], nil
}

// length reads a length no longer than what follows it: every element and
// every map entry takes at least one byte.
func length(b []byte) (int, []byte, error) {
	n, rest, err := uvarint(b)
	if err == nil && n > uint64(len(rest)) {
		err = errLength
	}
	if err != nil {
		return 0, b, err
	}
	return int(n), rest, nil
}

// flag reads a bool or a presence byte.
func flag(b []byte) (bool, []byte, error) {
	switch {
	case len(b) == 0:
		return false, b, errShort
	case b[0] > 1:
		return false, b, errFlag
	}
	return b[0] == 1, b[1:], nil
}
