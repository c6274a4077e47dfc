package metrics_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/device"
	"turbobp/internal/engine"
	"turbobp/internal/metrics"
	"turbobp/internal/netproto"
	"turbobp/internal/ssd"
)

type inner struct {
	N int64
	H metrics.Histogram
}

type outer struct {
	A  int
	B  int64
	D  time.Duration
	In inner
}

func TestAddSumsIntegersNestedStructsAndHistograms(t *testing.T) {
	x := outer{A: 1, B: 2, D: 3, In: inner{N: 5}}
	x.In.H.Observe(time.Millisecond)
	y := outer{A: 10, B: 20, D: 30, In: inner{N: 50}}
	y.In.H.Observe(time.Second)
	y.In.H.Observe(time.Second)
	metrics.Add(&x, y)
	if x.A != 11 || x.B != 22 || x.D != 33 || x.In.N != 55 {
		t.Errorf("Add = %+v", x)
	}
	if x.In.H.Count() != 3 || x.In.H.Max() != time.Second {
		t.Errorf("Add merged histogram: %s", x.In.H.Summary())
	}
	if y.In.H.Count() != 2 {
		t.Errorf("Add changed its source: %s", y.In.H.Summary())
	}
}

func TestSubDifferencesFieldByField(t *testing.T) {
	type counters struct {
		A  int
		B  int64
		In struct{ N int64 }
	}
	a := counters{A: 10, B: 25}
	a.In.N = 9
	b := counters{A: 4, B: 5}
	b.In.N = 9
	d := metrics.Sub(a, b)
	if d.A != 6 || d.B != 20 || d.In.N != 0 {
		t.Errorf("Sub = %+v", d)
	}
	if a.A != 10 || b.A != 4 {
		t.Error("Sub changed its operands")
	}
}

func TestFoldPanicsOnFieldsItCannotTake(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
				return
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %v, want it to name %q", name, r, want)
			}
		}()
		f()
	}
	type withFloat struct {
		N int64
		F float64
	}
	mustPanic("Add over a float", "float64", func() {
		var x withFloat
		metrics.Add(&x, withFloat{})
	})
	mustPanic("Sub over a float", "float64", func() { metrics.Sub(withFloat{}, withFloat{}) })
	mustPanic("Sub over a Histogram", "Histogram", func() { metrics.Sub(inner{}, inner{}) })
}

// TestFoldCoversEveryStatsStruct runs the fold over every struct the
// repository sums or differences, each integer field set to a distinct
// value: Add(&x, x) must double every field and Sub(x, x) zero it. A field
// of a kind the fold cannot take fails here rather than in a running
// DB.Stats.
func TestFoldCoversEveryStatsStruct(t *testing.T) {
	t.Run("engine.Stats", foldCase[engine.Stats])
	t.Run("engine.Latencies", foldCase[engine.Latencies])
	t.Run("ssd.Stats", foldCase[ssd.Stats])
	t.Run("bufpool.Stats", foldCase[bufpool.Stats])
	t.Run("device.Stats", foldCase[device.Stats])
	t.Run("netproto.ClientStats", foldCase[netproto.ClientStats])
}

func foldCase[T any](t *testing.T) {
	var x T
	next := int64(0)
	hists := fill(reflect.ValueOf(&x).Elem(), &next)
	if next == 0 && !hists {
		t.Fatal("no field to fold")
	}

	sum := x
	metrics.Add(&sum, x)
	walkPair(t, "", reflect.ValueOf(sum), reflect.ValueOf(x), func(path string, got, orig int64) {
		if got != 2*orig {
			t.Errorf("Add(&x, x).%s = %d, want %d", path, got, 2*orig)
		}
	})
	if hists {
		return // Sub over a Histogram panics by design
	}
	diff := metrics.Sub(x, x)
	walkPair(t, "", reflect.ValueOf(diff), reflect.ValueOf(x), func(path string, got, _ int64) {
		if got != 0 {
			t.Errorf("Sub(x, x).%s = %d, want 0", path, got)
		}
	})
}

// fill sets every integer field of v to a distinct nonzero value and
// gives every Histogram one sample, reporting whether it met a Histogram.
func fill(v reflect.Value, next *int64) (hists bool) {
	switch {
	case v.CanInt():
		*next++
		v.SetInt(*next)
	case v.Type() == reflect.TypeOf(metrics.Histogram{}):
		v.Addr().Interface().(*metrics.Histogram).Observe(time.Millisecond)
		return true
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hists = fill(v.Field(i), next) || hists
		}
	}
	return hists
}

// walkPair calls check for each integer field (a Histogram's sample count)
// of got with the matching value of orig.
func walkPair(t *testing.T, path string, got, orig reflect.Value, check func(path string, got, orig int64)) {
	switch {
	case got.CanInt():
		check(path, got.Int(), orig.Int())
	case got.Type() == reflect.TypeOf(metrics.Histogram{}):
		g, o := got.Interface().(metrics.Histogram), orig.Interface().(metrics.Histogram)
		check(path+".Count()", g.Count(), o.Count())
	case got.Kind() == reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			walkPair(t, name, got.Field(i), orig.Field(i), check)
		}
	default:
		t.Errorf("%s: field of type %s", path, got.Type())
	}
}
