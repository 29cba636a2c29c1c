package obs

// Struct-derived registration: a stats struct's fields become metrics
// without being listed a second time. SampleStruct(prefix, &s) stores one
// entry — prefix, pointer, and the field list of s's Go type — and Snapshot
// turns every exported unsigned-integer field, in declaration order, into
// the counter prefix + snake_case(FieldName), read through the pointer at
// that moment. Fields of any other type and unexported fields are not
// metrics. A field tag overrides the default:
//
//	Busy  sim.Time `obs:"busy_us"`      // metric name after the prefix
//	Level uint64   `obs:",gauge"`       // derived name, gauge instead of counter
//	Depth uint64   `obs:"depth,gauge"`  // both
//	Spare uint64   `obs:"-"`            // not a metric
//
// The field list is computed once per Go type and shared by every registry
// (clusters are built concurrently, hence the sync.Map); metric names exist
// only inside Snapshot, so a registration costs one slice element however
// many counters the struct has.

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

// sampled is one adopted struct (fields set) or array (names set).
type sampled struct {
	prefix string
	v      reflect.Value // the struct or array behind the registered pointer
	fields []field       // struct: shared by every value of its Go type
	names  []string      // array: the caller's shared element names
}

// appendTo reads the entry's current values into dst, one Metric each.
func (e *sampled) appendTo(dst []Metric) []Metric {
	for _, f := range e.fields {
		dst = append(dst, Metric{Name: e.prefix + f.name, Kind: f.kind, Value: e.v.Field(f.index).Uint()})
	}
	for i, name := range e.names {
		if name != "" {
			dst = append(dst, Metric{Name: e.prefix + name, Kind: "counter", Value: e.v.Index(i).Uint()})
		}
	}
	return dst
}

// SampleStruct adopts every exported unsigned-integer field of the struct
// ptr points to (grammar above). The struct stays the only live copy and
// must stay where it is for as long as the registry is read.
func (r *Registry) SampleStruct(prefix string, ptr any) {
	r.claim(prefix)
	r.sampled = append(r.sampled, adoptStruct(prefix, ptr))
}

// SampleArray is SampleStruct's indexed companion: element i of the array of
// unsigned integers ptr points to is the counter prefix + names[i]; an
// element whose name is empty, or that is beyond len(names), is not a
// metric. names is kept, not copied: registrations of one kind share it.
func (r *Registry) SampleArray(prefix string, ptr any, names []string) {
	v := reflect.ValueOf(ptr).Elem()
	if v.Kind() != reflect.Array || !isUint(v.Type().Elem().Kind()) || len(names) > v.Len() {
		panic("obs: SampleArray " + prefix + ": need a pointer to an array of at least len(names) unsigned integers")
	}
	r.claim(prefix)
	r.sampled = append(r.sampled, sampled{prefix: prefix, v: v, names: names})
}

// StructMetrics returns what SampleStruct(prefix, ptr) contributes to a
// snapshot taken now, in field order: audits compare a snapshot with a
// struct field by field through it, without naming the fields.
func StructMetrics(prefix string, ptr any) []Metric {
	return AppendStruct(nil, prefix, ptr)
}

// AppendStruct appends StructMetrics(prefix, ptr) to dst: a Rows owner
// renders its stats struct through it, under a prefix it builds only then.
func AppendStruct(dst []Metric, prefix string, ptr any) []Metric {
	e := adoptStruct(prefix, ptr)
	return e.appendTo(dst)
}

func adoptStruct(prefix string, ptr any) sampled {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic("obs: SampleStruct " + prefix + ": need a pointer to a struct")
	}
	return sampled{prefix: prefix, v: v.Elem(), fields: fieldsOf(v.Elem().Type())}
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
