package ssd

import (
	"reflect"
	"testing"

	"turbobp/internal/metrics"
)

// TestStatsAddCoversAllFields fills every integer field, nested ones
// included, with a distinct value via reflection and checks metrics.Add
// sums each one, so a counter added to Stats that the fold cannot take or
// drops fails here instead of silently vanishing from DB.Stats' fold over
// partitions.
func TestStatsAddCoversAllFields(t *testing.T) {
	var a, b Stats
	n := setInts(reflect.ValueOf(&a).Elem(), 1, new(int64))
	setInts(reflect.ValueOf(&b).Elem(), 10, new(int64))
	metrics.Add(&a, b)
	got := ints(reflect.ValueOf(a), nil)
	if int64(len(got)) != n {
		t.Fatalf("%d integer fields after Add, filled %d", len(got), n)
	}
	for i, v := range got {
		if want := int64(11 * (i + 1)); v != want {
			t.Errorf("metrics.Add drops integer field %d of Stats: got %d, want %d", i, v, want)
		}
	}
}

// setInts sets the i-th integer field met in a depth-first walk of v to
// scale*i and returns how many it set.
func setInts(v reflect.Value, scale int64, next *int64) int64 {
	switch {
	case v.CanInt():
		*next++
		v.SetInt(scale * *next)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setInts(v.Field(i), scale, next)
		}
	}
	return *next
}

// ints lists v's integer fields in the order setInts visits them.
func ints(v reflect.Value, out []int64) []int64 {
	switch {
	case v.CanInt():
		out = append(out, v.Int())
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = ints(v.Field(i), out)
		}
	}
	return out
}
