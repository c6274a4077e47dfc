package engine

import (
	"reflect"
	"testing"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/fault"
	"turbobp/internal/policy"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// TestEngineHandsSSDConfigWhole sets every ssd.Config field on an engine
// Config to a valid non-default value and requires the SSD manager to run
// with exactly that struct: a field the engine dropped on the way would
// read as its default here. A field added to ssd.Config fails the test
// until it gets a value below.
func TestEngineHandsSSDConfigWhole(t *testing.T) {
	values := map[string]any{
		"Design":          ssd.LC,
		"Policy":          policy.CFLRU,
		"SSDFrames":       48,
		"Partitions":      3, // ≤ SSDFrames, else the manager clamps it
		"FillThreshold":   0.7,
		"Throttle":        7,
		"GroupClean":      5,
		"DirtyFraction":   0.3,
		"PayloadSize":     48,
		"SSDProfile":      device.ProfileFromIOPS(1000, 2000, 3000, 4000),
		"Faults":          fault.New(3),
		"ScrubPeriod":     5 * time.Millisecond,
		"ScrubBatch":      3,
		"RetireAfter":     2,
		"QuarantineAfter": 5,
	}
	build := func(sc ssd.Config) ssd.Config {
		env := sim.NewEnv()
		defer env.Shutdown()
		e := New(env, Config{Config: sc, DBPages: 512, PoolPages: 32})
		defer e.StopBackground()
		return e.SSD().Config()
	}
	defaults := build(ssd.Config{})

	var want ssd.Config
	w := reflect.ValueOf(&want).Elem()
	d := reflect.ValueOf(defaults)
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		v, ok := values[name]
		if !ok {
			t.Fatalf("ssd.Config.%s has no test value", name)
		}
		w.Field(i).Set(reflect.ValueOf(v))
		if reflect.DeepEqual(w.Field(i).Interface(), d.Field(i).Interface()) {
			t.Fatalf("ssd.Config.%s test value %v is the default", name, v)
		}
	}
	if got := build(want); !reflect.DeepEqual(got, want) {
		t.Errorf("manager config differs from the engine's:\n got %+v\nwant %+v", got, want)
	}
}
