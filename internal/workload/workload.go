// Package workload implements synthetic drivers with the access-pattern
// essentials of the paper's three benchmarks:
//
//   - TPC-C: update-intensive OLTP, highly skewed (≈75% of accesses to
//     ≈20% of the pages, roughly one write per two reads — §4.2).
//   - TPC-E: read-intensive OLTP (≈10:1 read:write) with a large warm
//     working set (§4.3).
//   - TPC-H: decision support — 22 queries of table scans plus random
//     index lookups, run as a serial power test and concurrent throughput
//     streams with refresh functions (§4.4).
//
// The drivers exercise only the storage engine (page reads, updates,
// scans, commits); SQL processing is out of scope, as the paper attributes
// all of its observed effects to these aggregate I/O properties.
package workload

import (
	"math/rand"
	"time"

	"turbobp/internal/bufpool"
	"turbobp/internal/engine"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// Tier is one level of a graded access-skew distribution: AccessFrac of
// the accesses go to PageFrac of the pages.
type Tier struct {
	PageFrac   float64
	AccessFrac float64
}

// OLTP describes a transactional driver.
type OLTP struct {
	Name          string
	DBPages       int64
	Tiers         []Tier // graded skew; fractions each sum to 1
	AccessesPerTx int
	UpdateFrac    float64 // probability a given access is an update
	// UpdateTier restricts updates to one tier's pages (-1: updates follow
	// the read distribution). OLTP benchmarks concentrate writes on a few
	// hot tables, which is what keeps checkpoints and dirty sets bounded.
	UpdateTier int
	Workers    int // concurrent clients
	Seed       int64
}

// TPCC returns the paper's TPC-C-like profile for a database of dbPages:
// ~75% of accesses to ~20% of the pages (Leutenegger & Dias), one write
// per two reads, updates following the read skew.
func TPCC(dbPages int64) OLTP {
	return OLTP{
		Name:          "tpcc",
		DBPages:       dbPages,
		Tiers:         []Tier{{0.20, 0.75}, {0.80, 0.25}},
		AccessesPerTx: 8,
		UpdateFrac:    1.0 / 3.0, // one write per two reads
		UpdateTier:    -1,
		Workers:       32,
		Seed:          1,
	}
}

// TPCE returns the TPC-E-like profile: read-intensive with graded skew —
// a small very hot head (largely memory-resident at small scales), a warm
// middle that is the SSD's natural target (~60% of the database holds 95%
// of the accesses, matching the paper's working-set observations), and a
// cold tail. Updates concentrate on the hot head (the trade tables).
func TPCE(dbPages int64) OLTP {
	return OLTP{
		Name:          "tpce",
		DBPages:       dbPages,
		Tiers:         []Tier{{0.15, 0.65}, {0.45, 0.30}, {0.40, 0.05}},
		AccessesPerTx: 8,
		UpdateFrac:    0.045, // page-level writes are rare in TPC-E
		UpdateTier:    0,
		Workers:       32,
		Seed:          1,
	}
}

// scatter maps a logical index to a page id with an affine permutation so
// the hot set is spread over the whole database rather than being one
// contiguous (and extent-aligned) region.
func scatter(i, n int64) page.ID {
	// Knuth's multiplicative hash constant. i < 2^32 always (page indices),
	// so i*mult < 2^63 cannot overflow negative and one modulo suffices.
	const mult = 2654435761
	return page.ID((i * mult) % n)
}

// pick draws a page according to the graded skew; tier >= 0 restricts the
// draw to that tier's pages.
func (o *OLTP) pick(rng *rand.Rand, tier int) page.ID {
	if tier < 0 {
		u := rng.Float64()
		tier = len(o.Tiers) - 1
		for i, t := range o.Tiers {
			if u < t.AccessFrac {
				tier = i
				break
			}
			u -= t.AccessFrac
		}
	}
	var offset float64
	for i := 0; i < tier; i++ {
		offset += o.Tiers[i].PageFrac
	}
	lo := int64(offset * float64(o.DBPages))
	n := int64(o.Tiers[tier].PageFrac * float64(o.DBPages))
	if n < 1 {
		n = 1
	}
	return scatter(lo+rng.Int63n(n), o.DBPages)
}

// Start spawns the driver's workers against e, each a run-to-completion
// task (no park/resume channel handoff per page access). Workers run until
// the environment stops driving them (harnesses bound the run with
// Env.Run(duration) and then Shutdown) or until the returned stop function
// is called — workers then exit at their next transaction boundary, which
// matters when the harness wants to crash the engine with no transactions
// in flight. Committed transactions are counted in the engine's stats;
// onCommit, if non-nil, is also called at each commit with the commit
// time.
func (o *OLTP) Start(env *sim.Env, e *engine.Engine, onCommit func(t time.Duration)) (stop func()) {
	stopped := false
	for w := 0; w < o.Workers; w++ {
		rng := rand.New(rand.NewSource(o.Seed + int64(w)*7919))
		w := &taskWorker{o: o, e: e, rng: rng, stopped: &stopped, onCommit: onCommit}
		w.mutateF = w.mutatePayload
		w.afterGetF = w.afterGet
		w.afterUpF = w.afterUpdate
		w.afterCommitF = w.afterCommit
		env.Spawn(o.Name+"-worker", func(t *sim.Task) {
			w.t = t
			w.loop()
		})
	}
	return func() { stopped = true }
}

// taskWorker is one run-to-completion OLTP client: the state of a
// transaction loop as a struct, with its continuations bound once at Start,
// so the steady-state loop allocates nothing. The continuation chain is
// stack-safe: every access charges CPU time, a queued sleep, so each step
// runs from the scheduler's loop and the chain never nests on the stack.
type taskWorker struct {
	o        *OLTP
	e        *engine.Engine
	t        *sim.Task
	rng      *rand.Rand
	stopped  *bool
	onCommit func(t time.Duration)

	tx uint64
	a  int  // accesses issued in the current transaction
	v  byte // update value for the in-flight access

	mutateF      func([]byte)
	afterGetF    func(*bufpool.Frame, error)
	afterUpF     func(error)
	afterCommitF func(error)
}

func (w *taskWorker) loop() {
	if *w.stopped {
		return
	}
	w.tx = w.e.Begin()
	w.a = 0
	w.step()
}

// step issues the next access of the current transaction.
func (w *taskWorker) step() {
	o := w.o
	if w.a >= o.AccessesPerTx {
		w.e.CommitTask(w.t, w.tx, w.afterCommitF)
		return
	}
	w.a++
	if w.rng.Float64() < o.UpdateFrac {
		pid := o.pick(w.rng, o.UpdateTier)
		w.v = byte(w.rng.Intn(256))
		w.e.UpdateTask(w.t, w.tx, pid, w.mutateF, w.afterUpF)
		return
	}
	pid := o.pick(w.rng, -1)
	w.e.GetTask(w.t, pid, w.afterGetF)
}

func (w *taskWorker) mutatePayload(pl []byte) {
	pl[0] = w.v
	pl[1]++
}

func (w *taskWorker) afterGet(_ *bufpool.Frame, err error) {
	if err != nil {
		panic("workload: " + err.Error())
	}
	w.step()
}

func (w *taskWorker) afterUpdate(err error) {
	if err != nil {
		panic("workload: " + err.Error())
	}
	w.step()
}

func (w *taskWorker) afterCommit(err error) {
	if err != nil {
		panic("workload: " + err.Error())
	}
	if w.onCommit != nil {
		w.onCommit(w.t.Now())
	}
	w.loop()
}
