package metrics

import (
	"fmt"
	"reflect"
)

// histogramType is the one non-integer field type the fold accepts.
var histogramType = reflect.TypeOf(Histogram{})

// Add sums src into *dst field by field: signed integer fields are added,
// nested structs are folded recursively and Histograms are merged. It is
// how per-partition and per-shard counter structs become one total; the
// struct's own field list is the registry, so a field added to a stats
// struct is folded without further code. Any other field kind panics,
// naming its type.
func Add[T any](dst *T, src T) {
	fold(reflect.ValueOf(dst).Elem(), reflect.ValueOf(&src).Elem(), 1)
}

// Sub returns a − b field by field, for the counters accumulated over an
// interval (a snapshot taken after it minus one taken before). It takes
// the same field kinds as Add except Histograms, which cannot be
// subtracted and panic.
func Sub[T any](a, b T) T {
	fold(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), -1)
	return a
}

// fold adds sign × src into dst.
func fold(dst, src reflect.Value, sign int64) {
	switch {
	case dst.CanInt():
		dst.SetInt(dst.Int() + sign*src.Int())
	case dst.Type() == histogramType:
		if sign < 0 {
			panic("metrics: Sub over a metrics.Histogram")
		}
		dst.Addr().Interface().(*Histogram).Merge(src.Addr().Interface().(*Histogram))
	case dst.Kind() == reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			fold(dst.Field(i), src.Field(i), sign)
		}
	default:
		panic(fmt.Sprintf("metrics: cannot fold a field of type %s", dst.Type()))
	}
}
