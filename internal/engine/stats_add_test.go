package engine

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversAllFields fills every field with a distinct value via
// reflection and checks Add sums each one, so a counter added to Stats
// without a matching line in Add fails here instead of silently vanishing
// from DB.Stats' fold over partitions.
func TestStatsAddCoversAllFields(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(10 * (i + 1)))
	}
	sum := reflect.ValueOf(a.Add(b))
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Int(), int64(11*(i+1)); got != want {
			t.Errorf("Stats.Add drops field %s: got %d, want %d",
				sum.Type().Field(i).Name, got, want)
		}
	}
}
