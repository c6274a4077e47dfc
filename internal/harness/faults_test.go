package harness

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// The full matrix must pass at the default seed: every design survives every
// scenario with zero lost committed updates.
func TestFaultMatrixDefaultSeed(t *testing.T) {
	r, err := RunFaultMatrix(Scale{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Err(); err != nil {
		for _, row := range r.Rows {
			if !row.Pass {
				t.Errorf("%s/%s: %s", row.Design, row.Scenario, row.Outcome)
			}
		}
	}
	if want := len(faultDesigns) * len(faultScenarios); len(r.Rows) != want {
		t.Errorf("matrix has %d rows, want %d", len(r.Rows), want)
	}
	if r.Seed != 0x5EEDFA17 {
		t.Errorf("zero Scale.FaultSeed ran seed %#x, want the default 0x5EEDFA17", r.Seed)
	}
}

// The matrix is seed-robust: the fault schedules move around, the
// guarantees do not.
func TestFaultMatrixSeedSweep(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		r, err := RunFaultMatrix(Scale{FaultSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Err(); err != nil {
			t.Errorf("seed %#x: %v", seed, err)
		}
	}
}

// Two runs at the same seed render byte-identical tables (the determinism
// contract the CI cmp step relies on).
func TestFaultMatrixDeterministic(t *testing.T) {
	run := func() (*MatrixResult, []byte) {
		r, err := RunFaultMatrix(Scale{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Print(&buf)
		return r, buf.Bytes()
	}
	r1, out1 := run()
	r2, out2 := run()
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Error("matrix rows differ between identical runs")
	}
	if !bytes.Equal(out1, out2) {
		t.Error("rendered output differs between identical runs")
	}
}

// TestScaleFaultSeedIsPerRun runs two fault matrices with different seeds at
// once: the seed travels in the Scale, so each run reports its own seed and
// reproduces the table a lone run at that seed renders.
func TestScaleFaultSeedIsPerRun(t *testing.T) {
	seeds := []uint64{7, 0xC0FFEE}
	render := func(seed uint64) (uint64, string) {
		r, err := RunFaultMatrix(Scale{FaultSeed: seed})
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		var buf bytes.Buffer
		r.Print(&buf)
		return r.Seed, buf.String()
	}
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ran uint64
			if ran, got[i] = render(seed); ran != seed {
				t.Errorf("run with Scale.FaultSeed %#x reports seed %#x", seed, ran)
			}
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if _, alone := render(seed); got[i] != alone {
			t.Errorf("seed %#x: table rendered beside another seed's run differs from a lone run", seed)
		}
	}
	if got[0] == got[1] {
		t.Error("two seeds rendered the same table: the seed is not reaching the cells")
	}
}
