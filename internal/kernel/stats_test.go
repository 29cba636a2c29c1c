package kernel

import (
	"reflect"
	"testing"

	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// TestStatsSplitCoversEveryField: every Stats field is declared in exactly
// one of hotStats and coldStats, with the same type and tag (so the rows
// AppendMetrics renders carry Stats' names), the two parts declare nothing
// else, and Stats() copies every field from its part: each counter of both
// parts set to a distinct value reads back under its own name.
func TestStatsSplitCoversEveryField(t *testing.T) {
	hot, cold := reflect.TypeOf(hotStats{}), reflect.TypeOf(coldStats{})
	st := reflect.TypeOf(Stats{})
	if n := hot.NumField() + cold.NumField(); n != st.NumField() {
		t.Fatalf("hotStats and coldStats declare %d fields, Stats %d", n, st.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		h, inHot := hot.FieldByName(f.Name)
		c, inCold := cold.FieldByName(f.Name)
		switch {
		case inHot == inCold:
			t.Errorf("Stats.%s: in hotStats %v, in coldStats %v; want exactly one", f.Name, inHot, inCold)
		case inHot && (h.Type != f.Type || h.Tag != f.Tag):
			t.Errorf("hotStats.%s is %v `%s`, Stats.%s is %v `%s`", f.Name, h.Type, h.Tag, f.Name, f.Type, f.Tag)
		case inCold && (c.Type != f.Type || c.Tag != f.Tag):
			t.Errorf("coldStats.%s is %v `%s`, Stats.%s is %v `%s`", f.Name, c.Type, c.Tag, f.Name, f.Type, f.Tag)
		}
	}

	k := &Kernel{}
	next := uint64(1)
	want := map[string]uint64{}
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name, f := v.Type().Field(i).Name, v.Field(i)
			if f.Kind() == reflect.Array {
				for j := 0; j < f.Len(); j++ {
					f.Index(j).SetUint(next)
					next++
				}
				continue
			}
			f.SetUint(next)
			want[name] = next
			next++
		}
	}
	fill(reflect.ValueOf(&k.stats).Elem())
	fill(reflect.ValueOf(&k.cold().coldStats).Elem())
	got := reflect.ValueOf(k.Stats())
	for name, w := range want {
		if v := got.FieldByName(name).Uint(); v != w {
			t.Errorf("Stats().%s = %d, want %d", name, v, w)
		}
	}
	if s := k.Stats(); s.AdminSent != k.coldRec.AdminSent {
		t.Errorf("Stats().AdminSent = %v, want %v", s.AdminSent, k.coldRec.AdminSent)
	}
}

// TestAppendMetricsMakesNoStatsCopy: rendering a kernel's rows allocates
// one name per row and nothing else, with or without a cold record: no
// Stats assembled on the heap for obs.AppendStruct, no temporary buffer per kernel
// per snapshot. (AppendMetrics reads both parts in place; a Stats copy
// that stayed on the stack would not show here.)
func TestAppendMetricsMakesNoStatsCopy(t *testing.T) {
	eng := sim.NewEngine(1)
	k := New(1, eng, netw.New(eng, netw.Config{}), Config{})
	rows := k.AppendMetrics(nil)
	dst := make([]obs.Metric, 0, len(rows))
	for _, made := range []bool{false, true} {
		if made {
			k.cold().Forwarded++
		}
		if got := k.HasColdRecord(); got != made {
			t.Fatalf("cold record made: %v, want %v", got, made)
		}
		allocs := testing.AllocsPerRun(20, func() { dst = k.AppendMetrics(dst[:0]) })
		// The prefix is concatenated on the stack; an empty histogram row
		// needs no bucket slice.
		if want := float64(len(rows)); allocs > want {
			t.Errorf("cold record %v: AppendMetrics allocates %.0f objects for %d rows, want at most %.0f", made, allocs, len(rows), want)
		}
	}
}
