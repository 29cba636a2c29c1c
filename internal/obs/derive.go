package obs

// Struct-derived rows: a stats struct's fields become metrics without being
// listed a second time. An owner renders its struct with
// AppendStruct(dst, prefix, &s), which turns every exported unsigned-integer
// field, in declaration order, into the counter prefix +
// snake_case(FieldName), read through the pointer at that moment. Fields of
// any other type and unexported fields are not metrics. A field tag
// overrides the default:
//
//	Busy  sim.Time `obs:"busy_us"`      // metric name after the prefix
//	Level uint64   `obs:",gauge"`       // derived name, gauge instead of counter
//	Depth uint64   `obs:"depth,gauge"`  // both
//	Spare uint64   `obs:"-"`            // not a metric
//
// The field list is computed once per Go type and shared by every registry
// (clusters are built concurrently, hence the sync.Map); metric names exist
// only inside Snapshot, so an owner holds no name however many counters its
// struct has.

import (
	"reflect"
	"strings"
	"sync"
)

// field is one derived metric of a struct type.
type field struct {
	name  string // metric name after the registration's prefix
	index int    // position in the struct
	kind  string // "counter" or "gauge"
}

// AppendStruct appends the rows of the struct ptr points to (grammar above)
// to dst, in field order: an owner renders its stats struct through it under
// a prefix it builds only then, and audits compare a snapshot with a struct
// field by field through AppendStruct(nil, prefix, ptr).
func AppendStruct(dst []Metric, prefix string, ptr any) []Metric {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic("obs: AppendStruct " + prefix + ": need a pointer to a struct")
	}
	v = v.Elem()
	for _, f := range fieldsOf(v.Type()) {
		dst = append(dst, Metric{Name: prefix + f.name, Kind: f.kind, Value: v.Field(f.index).Uint()})
	}
	return dst
}

var fieldCache sync.Map // reflect.Type -> []field

// fieldsOf derives (once per type) the metrics of struct type t.
func fieldsOf(t reflect.Type) []field {
	if c, ok := fieldCache.Load(t); ok {
		return c.([]field)
	}
	var fs []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		name, opt, _ := strings.Cut(sf.Tag.Get("obs"), ",")
		if !sf.IsExported() || !isUint(sf.Type.Kind()) || name == "-" {
			continue
		}
		if name == "" {
			name = snakeCase(sf.Name)
		}
		kind := "counter"
		if opt == "gauge" {
			kind = opt
		} else if opt != "" {
			panic("obs: " + t.String() + "." + sf.Name + ": unknown obs tag option " + opt)
		}
		fs = append(fs, field{name: name, index: i, kind: kind})
	}
	c, _ := fieldCache.LoadOrStore(t, fs)
	return c.([]field)
}

func isUint(k reflect.Kind) bool { return k >= reflect.Uint && k <= reflect.Uint64 }

// snakeCase lower-cases a Go field name, starting a new word at every
// lower-to-upper step and at the last capital of an acronym: MsgsIn is
// msgs_in, CPUBusy is cpu_busy.
func snakeCase(s string) string {
	upper := func(c byte) bool { return c >= 'A' && c <= 'Z' }
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if upper(c) {
			if i > 0 && (!upper(s[i-1]) || (i+1 < len(s) && s[i+1] >= 'a' && s[i+1] <= 'z')) {
				b = append(b, '_')
			}
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}
