package harness

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"turbobp/internal/engine"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/workload"
)

// dispatch is one observed queue dispatch.
type dispatch struct {
	at  time.Duration
	seq uint64
}

// runShardedTraced executes one sharded run at the given width with
// per-kernel dispatch tracing. Each kernel's trace slice is written only
// by whichever goroutine is executing that kernel's epoch, and the
// cluster barriers order those writes, so collection is race-free.
func runShardedTraced(t *testing.T, sr ShardedRun, width int) ([][]dispatch, *ShardedResult) {
	t.Helper()
	traces := make([][]dispatch, sr.Kernels)
	sr.Width = width
	sr.Instrument = func(shard int, env *sim.Env) {
		env.SetDispatchHook(func(at time.Duration, seq uint64) {
			traces[shard] = append(traces[shard], dispatch{at, seq})
		})
	}
	res, err := RunOLTPSharded(sr)
	if err != nil {
		t.Fatal(err)
	}
	return traces, res
}

// TestShardWidthInvarianceProperty is the sharded kernel's core
// determinism property: across randomized mixed OLTP workloads, engine
// configurations and distributed-transaction fractions, execution widths
// 1, 2 and 4 produce identical per-kernel (at, seq) dispatch traces,
// identical merged engine/SSD statistics, identical device-transfer
// series and the same merged-WAL checksum.
func TestShardWidthInvarianceProperty(t *testing.T) {
	designs := []ssd.Design{ssd.NoSSD, ssd.CW, ssd.DW, ssd.LC, ssd.TAC}
	rng := rand.New(rand.NewSource(11))
	var totalCommits, totalMessages uint64
	for trial := 0; trial < 6; trial++ {
		dbPages := int64(600 + rng.Intn(1200))
		wl := workload.TPCC(dbPages)
		if rng.Intn(2) == 0 {
			wl = workload.TPCE(dbPages)
		}
		wl.Workers = 4 + rng.Intn(12)
		wl.AccessesPerTx = 1 + rng.Intn(8)
		wl.UpdateFrac = rng.Float64() * 0.6
		wl.Seed = rng.Int63()
		cfg := engine.Config{
			Design:      designs[rng.Intn(len(designs))],
			DBPages:     dbPages,
			PoolPages:   64 + rng.Intn(128),
			SSDFrames:   64 + rng.Intn(192),
			PayloadSize: 64,
		}
		dur := time.Duration(200+rng.Intn(300)) * time.Millisecond
		sr := ShardedRun{
			Run: OLTPRun{
				Scale:    tiny,
				Design:   cfg.Design,
				Workload: wl,
				Config:   cfg,
				Duration: dur,
				Bucket:   dur / 10,
			},
			Kernels:    4,
			RemoteFrac: float64(trial%3) * 0.1, // 0, 0.1, 0.2 across trials
			Window:     dur / time.Duration(32+rng.Intn(64)),
		}

		refTraces, ref := runShardedTraced(t, sr, 1)
		for _, width := range []int{2, 4} {
			traces, res := runShardedTraced(t, sr, width)
			for s := range refTraces {
				if !reflect.DeepEqual(traces[s], refTraces[s]) {
					t.Fatalf("trial %d (%s/%v, remote %.1f): kernel %d dispatch trace differs at width %d",
						trial, wl.Name, cfg.Design, sr.RemoteFrac, s, width)
				}
			}
			if res.Engine != ref.Engine {
				t.Errorf("trial %d width %d: engine stats differ:\nw1 %+v\nwN %+v",
					trial, width, ref.Engine, res.Engine)
			}
			if res.SSD != ref.SSD {
				t.Errorf("trial %d width %d: ssd stats differ:\nw1 %+v\nwN %+v",
					trial, width, ref.SSD, res.SSD)
			}
			if res.Events != ref.Events || res.Messages != ref.Messages {
				t.Errorf("trial %d width %d: events %d/%d, messages %d/%d",
					trial, width, res.Events, ref.Events, res.Messages, ref.Messages)
			}
			if res.WALChecksum != ref.WALChecksum || res.WALRecords != ref.WALRecords {
				t.Errorf("trial %d width %d: merged WAL differs (%d recs %016x vs %d recs %016x)",
					trial, width, res.WALRecords, res.WALChecksum, ref.WALRecords, ref.WALChecksum)
			}
			for _, s := range []struct {
				name     string
				got, ref []float64
			}{
				{"commits", res.Commits.Values(), ref.Commits.Values()},
				{"disk-read", res.DiskRead.Values(), ref.DiskRead.Values()},
				{"disk-write", res.DiskWrite.Values(), ref.DiskWrite.Values()},
				{"ssd-read", res.SSDRead.Values(), ref.SSDRead.Values()},
				{"ssd-write", res.SSDWrite.Values(), ref.SSDWrite.Values()},
			} {
				if !reflect.DeepEqual(s.got, s.ref) {
					t.Errorf("trial %d width %d: %s series differs", trial, width, s.name)
				}
			}
		}
		totalCommits += uint64(ref.Engine.Commits)
		totalMessages += ref.Messages
	}
	// Vacuity guard in aggregate: slow trials (cold pools on paper-speed
	// disks) may individually commit little, but a sweep that never
	// commits or never crosses shards proves nothing.
	if totalCommits == 0 {
		t.Error("no trial committed anything; property is vacuous")
	}
	if totalMessages == 0 {
		t.Error("no trial exchanged cross-shard messages; property is vacuous")
	}
}

// TestShardWorkerProductCap pins the SetWorkers × shards oversubscription
// rule: with W experiment workers on P procs, each run gets at most
// max(1, P/W) shard threads.
func TestShardWorkerProductCap(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer func() {
		runtime.GOMAXPROCS(prev)
		SetWorkers(0)
		SetShards(0)
	}()
	SetShards(8)
	for _, tc := range []struct{ workers, want int }{
		{1, 8}, {2, 4}, {4, 2}, {8, 1},
	} {
		SetWorkers(tc.workers)
		if got := EffectiveShardWidth(); got != tc.want {
			t.Errorf("workers %d: effective width %d, want %d", tc.workers, got, tc.want)
		}
	}
	SetWorkers(1)
	if got := SetShards(12); got != ShardKernels {
		t.Errorf("SetShards(12) = %d, want cap at %d", got, ShardKernels)
	}
	SetShards(0)
	if got := EffectiveShardWidth(); got != 0 {
		t.Errorf("legacy path: effective width %d, want 0", got)
	}
}

// TestShardedExperimentLeavesNoGoroutines extends the goroutine-hygiene
// audit to the sharded runtime (8 sub-worlds of background processes per
// run, driven by transient epoch workers).
func TestShardedExperimentLeavesNoGoroutines(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	baseline := runtime.NumGoroutine()
	run := buildOLTP(tiny, ssd.LC, "tpcc", TPCCSizesGB[1], nil)
	if _, err := RunOLTPSharded(ShardedRun{
		Run: run, Kernels: ShardKernels, Width: 4, RemoteFrac: ShardRemoteFrac,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d after sharded run, baseline %d", runtime.NumGoroutine(), baseline)
}
