package workload

import (
	"math/rand"
	"testing"
	"time"

	"turbobp/internal/engine"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// dispatch is one observed queue dispatch.
type dispatch struct {
	at  time.Duration
	seq uint64
}

// startProcs is OLTP.Start with blocking clients: one simulation process
// per worker running the same transaction loop — same RNG seeds, same draw
// order — through Engine.Get/Update/Commit, i.e. through sim.Proc.Await.
func (o *OLTP) startProcs(env *sim.Env, e *engine.Engine) {
	for w := 0; w < o.Workers; w++ {
		rng := rand.New(rand.NewSource(o.Seed + int64(w)*7919))
		env.Go(o.Name+"-worker", func(p *sim.Proc) {
			for {
				if err := o.runTx(p, e, rng); err != nil {
					panic("workload: " + err.Error())
				}
			}
		})
	}
}

// runTx executes one transaction on a blocking process.
func (o *OLTP) runTx(p *sim.Proc, e *engine.Engine, rng *rand.Rand) error {
	tx := e.Begin()
	for a := 0; a < o.AccessesPerTx; a++ {
		if rng.Float64() < o.UpdateFrac {
			pid := o.pick(rng, o.UpdateTier)
			v := byte(rng.Intn(256))
			if err := e.Update(p, tx, pid, func(pl []byte) {
				pl[0] = v
				pl[1]++
			}); err != nil {
				return err
			}
		} else {
			pid := o.pick(rng, -1)
			if _, err := e.Get(p, pid); err != nil {
				return err
			}
		}
	}
	return e.Commit(p, tx)
}

// runTraced runs one small OLTP simulation and returns its dispatch trace
// plus final engine and device statistics. Task-form sleeps consume
// sequence numbers exactly as a process's do, so the traces of the two
// drivers must compare equal element by element.
func runTraced(t *testing.T, wl OLTP, blocking bool, cfg engine.Config, dur time.Duration) ([]dispatch, engine.Stats, ssd.Stats, int64, int64) {
	t.Helper()
	env := sim.NewEnv()
	var trace []dispatch
	env.SetDispatchHook(func(at time.Duration, seq uint64) {
		trace = append(trace, dispatch{at, seq})
	})
	e := engine.New(env, cfg)
	if err := e.FormatDB(); err != nil {
		t.Fatal(err)
	}
	if blocking {
		wl.startProcs(env, e)
	} else {
		wl.Start(env, e, nil)
	}
	env.Run(dur)
	e.StopBackground()
	es, ss := e.Stats(), e.SSD().Stats()
	disk := *e.DiskArray().Stats()
	var ssdPages int64
	if dev := e.SSDDevice(); dev != nil {
		s := *dev.Stats()
		ssdPages = s.ReadPages + s.WritePages
	}
	env.Shutdown()
	return trace, es, ss, disk.ReadPages + disk.WritePages, ssdPages
}

// TestProcTaskEquivalenceProperty pins that the bridge adds no events:
// across randomized workload and engine configurations, blocking clients
// (processes calling Engine.Get/Update/Commit, which run the task-form
// access path through sim.Proc.Await) and run-to-completion clients
// (OLTP.Start) drive the identical (at, seq) dispatch sequence and land on
// identical engine, SSD-manager and device statistics.
func TestProcTaskEquivalenceProperty(t *testing.T) {
	designs := []ssd.Design{ssd.NoSSD, ssd.CW, ssd.DW, ssd.LC, ssd.TAC}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		dbPages := int64(400 + rng.Intn(1200))
		wl := TPCC(dbPages)
		if rng.Intn(2) == 0 {
			wl = TPCE(dbPages)
		}
		wl.Workers = 1 + rng.Intn(8)
		wl.AccessesPerTx = 1 + rng.Intn(8)
		wl.UpdateFrac = rng.Float64() * 0.6
		wl.Seed = rng.Int63()
		// Draw order: design, pool pages, SSD frames.
		cfg := engine.Config{
			Config:    ssd.Config{Design: designs[rng.Intn(len(designs))], PayloadSize: 64},
			DBPages:   dbPages,
			PoolPages: 32 + rng.Intn(96),
		}
		cfg.SSDFrames = 64 + rng.Intn(192)
		dur := time.Duration(50+rng.Intn(200)) * time.Millisecond

		procTrace, procES, procSS, procDisk, procSSD := runTraced(t, wl, true, cfg, dur)
		taskTrace, taskES, taskSS, taskDisk, taskSSD := runTraced(t, wl, false, cfg, dur)

		if len(procTrace) != len(taskTrace) {
			t.Fatalf("trial %d (%s/%v): trace lengths differ: proc %d, task %d",
				trial, wl.Name, cfg.Design, len(procTrace), len(taskTrace))
		}
		for i := range procTrace {
			if procTrace[i] != taskTrace[i] {
				t.Fatalf("trial %d (%s/%v): dispatch %d differs: proc (%v, %d), task (%v, %d)",
					trial, wl.Name, cfg.Design, i,
					procTrace[i].at, procTrace[i].seq, taskTrace[i].at, taskTrace[i].seq)
			}
		}
		if procES != taskES {
			t.Errorf("trial %d (%s/%v): engine stats differ:\nproc %+v\ntask %+v",
				trial, wl.Name, cfg.Design, procES, taskES)
		}
		if procSS != taskSS {
			t.Errorf("trial %d (%s/%v): ssd stats differ:\nproc %+v\ntask %+v",
				trial, wl.Name, cfg.Design, procSS, taskSS)
		}
		if procDisk != taskDisk || procSSD != taskSSD {
			t.Errorf("trial %d (%s/%v): device page counts differ: disk %d vs %d, ssd %d vs %d",
				trial, wl.Name, cfg.Design, procDisk, taskDisk, procSSD, taskSSD)
		}
	}
}
