package pagetab

import (
	"math/rand"
	"testing"
)

// TestBasic covers the small-table happy path.
func TestBasic(t *testing.T) {
	tab := New[string](0)
	if tab.Len() != 0 {
		t.Fatalf("new table Len = %d", tab.Len())
	}
	if _, ok := tab.Get(7); ok {
		t.Fatal("Get on empty table reported presence")
	}
	tab.Put(7, "seven")
	tab.Put(0, "zero") // key 0 must be a real key, not an empty marker
	tab.Put(7, "SEVEN")
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if v, ok := tab.Get(7); !ok || v != "SEVEN" {
		t.Fatalf("Get(7) = %q, %v", v, ok)
	}
	if v, ok := tab.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) = %q, %v", v, ok)
	}
	if !tab.Delete(7) || tab.Delete(7) {
		t.Fatal("Delete(7) should succeed exactly once")
	}
	if tab.Contains(7) {
		t.Fatal("deleted key still present")
	}
	if v, ok := tab.Get(0); !ok || v != "zero" {
		t.Fatalf("Get(0) after unrelated delete = %q, %v", v, ok)
	}
}

// TestZeroValue checks the zero Table works without New.
func TestZeroValue(t *testing.T) {
	var tab Table[int]
	if _, ok := tab.Get(1); ok {
		t.Fatal("zero table Get reported presence")
	}
	if tab.Delete(1) {
		t.Fatal("zero table Delete reported presence")
	}
	tab.Put(1, 10)
	if v, ok := tab.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d, %v", v, ok)
	}
}

// TestDifferentialChurn drives a Table and a plain Go map through the same
// randomized insert/update/delete/lookup/iterate workload and requires
// identical observable state throughout, across several key ranges that
// force repeated grow and shrink transitions.
func TestDifferentialChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7ab1e))
	for _, keyRange := range []uint64{16, 300, 5000} {
		tab := New[int64](0)
		ref := make(map[uint64]int64)
		for op := 0; op < 60000; op++ {
			key := rng.Uint64() % keyRange
			switch r := rng.Intn(10); {
			case r < 4: // insert or update
				val := rng.Int63()
				tab.Put(key, val)
				ref[key] = val
			case r < 7: // delete
				got := tab.Delete(key)
				_, want := ref[key]
				if got != want {
					t.Fatalf("range %d op %d: Delete(%d) = %v, want %v", keyRange, op, key, got, want)
				}
				delete(ref, key)
			default: // lookup
				gotV, gotOK := tab.Get(key)
				wantV, wantOK := ref[key]
				if gotOK != wantOK || gotV != wantV {
					t.Fatalf("range %d op %d: Get(%d) = %d,%v want %d,%v",
						keyRange, op, key, gotV, gotOK, wantV, wantOK)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("range %d op %d: Len = %d, map has %d", keyRange, op, tab.Len(), len(ref))
			}
			// Periodically drain most of the table to cross the shrink
			// boundary, then verify a full iteration against the map.
			if op%7919 == 7918 {
				for k := range ref {
					if rng.Intn(4) != 0 {
						if !tab.Delete(k) {
							t.Fatalf("range %d op %d: drain Delete(%d) missed", keyRange, op, k)
						}
						delete(ref, k)
					}
				}
				checkIterationMatches(t, tab, ref)
			}
		}
		checkIterationMatches(t, tab, ref)
	}
}

// checkIterationMatches verifies Range visits exactly the map's entries.
func checkIterationMatches(t *testing.T, tab *Table[int64], ref map[uint64]int64) {
	t.Helper()
	seen := make(map[uint64]int64)
	tab.Range(func(k uint64, v int64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range visited key %d twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range visited %d entries, map has %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if got, ok := seen[k]; !ok || got != v {
			t.Fatalf("Range missed or mangled key %d: %d,%v want %d", k, got, ok, v)
		}
	}
}

// TestGrowShrinkBoundaries pins the resize thresholds: grow at 13/16 load,
// shrink at 1/8, never below minCap.
func TestGrowShrinkBoundaries(t *testing.T) {
	tab := New[int](0)
	if tab.Cap() != minCap {
		t.Fatalf("initial cap %d, want %d", tab.Cap(), minCap)
	}
	for i := 0; i < 1000; i++ {
		tab.Put(uint64(i), i)
		c := tab.Cap()
		if tab.Len()*16 > c*13 {
			t.Fatalf("after %d inserts: load %d/%d exceeds 13/16", i+1, tab.Len(), c)
		}
	}
	for i := 0; i < 1000; i++ {
		tab.Delete(uint64(i))
		c := tab.Cap()
		if c > minCap && tab.Len()*8 < c {
			t.Fatalf("after deleting %d: load %d/%d below 1/8 without shrink", i+1, tab.Len(), c)
		}
	}
	if tab.Cap() != minCap {
		t.Fatalf("empty table cap %d, want %d", tab.Cap(), minCap)
	}
}

// TestDeterministicIteration requires two tables built by the same
// operation history to iterate in the same order.
func TestDeterministicIteration(t *testing.T) {
	build := func() []uint64 {
		tab := New[int](0)
		rng := rand.New(rand.NewSource(42))
		for op := 0; op < 20000; op++ {
			k := rng.Uint64() % 997
			if rng.Intn(3) == 0 {
				tab.Delete(k)
			} else {
				tab.Put(k, op)
			}
		}
		var order []uint64
		tab.Range(func(k uint64, _ int) bool {
			order = append(order, k)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("iteration lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestReset checks Reset empties without losing usability.
func TestReset(t *testing.T) {
	tab := New[int](100)
	for i := 0; i < 100; i++ {
		tab.Put(uint64(i), i)
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tab.Len())
	}
	tab.Range(func(k uint64, v int) bool {
		t.Fatalf("Range after Reset visited %d", k)
		return false
	})
	tab.Put(3, 33)
	if v, ok := tab.Get(3); !ok || v != 33 {
		t.Fatalf("Get(3) after Reset = %d, %v", v, ok)
	}
}

// TestChurnAllocationFree pins the steady state BenchmarkTableChurn
// measures: a lookup, an update and a delete/reinsert pair over a resident
// key set allocate nothing.
func TestChurnAllocationFree(t *testing.T) {
	const keys = 4096
	tab := New[int64](keys)
	for i := uint64(0); i < keys; i++ {
		tab.Put(i*64, int64(i))
	}
	i := uint64(0)
	churn := func() {
		k := i % keys * 64
		i++
		v, _ := tab.Get(k)
		tab.Put(k, v+1)
		tab.Delete(k)
		tab.Put(k, v)
	}
	if n := testing.AllocsPerRun(1000, churn); n != 0 {
		t.Errorf("table churn allocates %v per iteration", n)
	}
}
