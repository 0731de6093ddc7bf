package obs

import (
	"io"
	"reflect"
	"testing"
)

// callAllOnNil calls every exported method of ptr (a typed nil, or a zero
// value) with zero-value arguments — io.Discard where a writer is
// wanted — and reports the methods that panic.
func callAllOnNil(t *testing.T, ptr any) {
	t.Helper()
	v := reflect.ValueOf(ptr)
	discard := reflect.ValueOf(io.Discard)
	for i := 0; i < v.NumMethod(); i++ {
		name, m := v.Type().Method(i).Name, v.Method(i)
		in := make([]reflect.Value, m.Type().NumIn())
		for j := range in {
			if pt := m.Type().In(j); pt.Kind() == reflect.Interface && discard.Type().Implements(pt) {
				in[j] = discard
			} else {
				in[j] = reflect.Zero(pt)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(%T).%s panics on a nil receiver: %v", ptr, name, r)
				}
			}()
			if m.Type().IsVariadic() {
				m.CallSlice(in)
			} else {
				m.Call(in)
			}
		}()
	}
}

// A nil instrument, registry or readiness flag, and the zero Interval, is
// "off": every exported method is a no-op on it, so an uninstrumented run
// never panics. The method sets are walked, so a method added later (the
// nil histogram's Begin, which opens the span alone) is covered; a new
// nil-is-off type needs a row here.
func TestNilReceiversAreNoOps(t *testing.T) {
	for _, ptr := range []any{(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*Registry)(nil), (*Readiness)(nil), Interval{}} {
		callAllOnNil(t, ptr)
	}
}
