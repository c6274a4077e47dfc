package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"turbobp/internal/engine"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
	"turbobp/internal/wal"
)

// This file is the `bpesim faults` experiment: a deterministic crash/recover
// matrix over every SSD design and every fault scenario the internal/fault
// layer can inject. Each cell runs a small update workload whose page
// payloads are self-verifying (a per-page counter plus a counter-keyed
// hash), injects one fault scenario, recovers, and checks that no committed
// update was lost and no page decodes to a state the model never produced.
// The configuration is fixed — independent of the -divisor scale — so the
// rendered table is byte-identical across runs and across -parallel worker
// counts; docs/FAILURES.md describes each scenario's expected semantics.

// faultDesigns are the columns of the matrix: every SSD design with a cache.
var faultDesigns = []ssd.Design{ssd.CW, ssd.DW, ssd.LC, ssd.TAC}

// faultScenarios are the rows: the crash-point catalog plus the device-level
// fault scenarios.
var faultScenarios = []string{
	"pre-wal-flush",
	"post-wal-flush",
	"mid-checkpoint",
	"post-checkpoint",
	"mid-lazy-clean",
	"ssd-loss-live",
	"ssd-io-errors",
	"torn-log",
}

// MatrixRow is one cell's verdict.
type MatrixRow struct {
	Design   ssd.Design
	Scenario string
	Outcome  string // "pass", optionally annotated, or "FAIL: ..."
	Pass     bool
}

// MatrixResult is a rendered design × scenario pass/fail table: the fault
// matrix and the silent-corruption matrix.
type MatrixResult struct {
	Name  string // "fault" or "corruption": names the matrix in Err
	Title string // first rendered line, before the seed
	Seed  uint64
	Rows  []MatrixRow
}

// Print renders the matrix, the scenario column as wide as its longest name.
func (r *MatrixResult) Print(w io.Writer) {
	width := 0
	for _, row := range r.Rows {
		width = max(width, len(row.Scenario)+1)
	}
	fmt.Fprintf(w, "%s (seed %#x)\n", r.Title, r.Seed)
	fmt.Fprintf(w, "%-6s %-*s %s\n", "design", width, "scenario", "outcome")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6s %-*s %s\n", row.Design, width, row.Scenario, row.Outcome)
	}
}

// Err returns an error naming the failed cells, or nil if all passed —
// `bpesim faults` and `bpesim corrupt` exit nonzero through it.
func (r *MatrixResult) Err() error {
	var bad []string
	for _, row := range r.Rows {
		if !row.Pass {
			bad = append(bad, fmt.Sprintf("%s/%s", row.Design, row.Scenario))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("harness: %s matrix failed: %v", r.Name, bad)
}

// matrixScript is one matrix's per-scenario script. The returned note
// annotates a passing row (deterministic counters only).
type matrixScript func(p *sim.Proc, d *faultDriver, design ssd.Design, scenario string) (string, error)

// runMatrix executes every design × scenario cell on the worker pool. Cell
// i's fault schedule is seeded from the scale's fault seed and salt+i, and
// its engine is the fixed small geometry below as adjusted by tune.
func runMatrix(r *MatrixResult, s Scale, salt uint64, scenarios []string,
	tune func(scenario string, cfg *engine.Config), script matrixScript) (*MatrixResult, error) {
	r.Seed = s.faultSeed()
	var err error
	r.Rows, err = RunGrid(len(faultDesigns)*len(scenarios), func(i int) (MatrixRow, error) {
		row := MatrixRow{Design: faultDesigns[i/len(scenarios)], Scenario: scenarios[i%len(scenarios)]}
		seed := faultMix(r.Seed, salt+uint64(i))
		inj := fault.New(seed)
		cfg := engine.Config{
			Config: ssd.Config{
				Design:      row.Design,
				SSDFrames:   128,
				PayloadSize: 64,
				Faults:      inj,
			},
			DBPages:   512,
			PoolPages: 48,
		}
		tune(row.Scenario, &cfg)
		env := sim.NewEnv()
		e := engine.New(env, cfg)
		if err := e.FormatDB(); err != nil {
			row.Outcome = "FAIL: format: " + err.Error()
			return row, nil
		}
		d := &faultDriver{
			e:         e,
			inj:       inj,
			rng:       seed ^ 0xA5A5A5A5A5A5A5A5,
			applied:   make([]uint64, faultHotPages),
			committed: make([]uint64, faultHotPages),
		}
		var note string
		var scriptErr error
		env.Go(r.Name+"-driver", func(p *sim.Proc) {
			note, scriptErr = script(p, d, row.Design, row.Scenario)
			e.StopBackground()
		})
		env.Run(-1)
		env.Shutdown()
		switch {
		case scriptErr != nil:
			row.Outcome = "FAIL: " + scriptErr.Error()
		case len(d.fails) > 0:
			row.Outcome = "FAIL: " + strings.Join(d.fails, "; ")
		default:
			row.Outcome = "pass"
			if note != "" {
				row.Outcome += " (" + note + ")"
			}
			row.Pass = true
		}
		return row, nil
	})
	return r, err
}

// RunFaultMatrix executes the crash/recover matrix.
func RunFaultMatrix(s Scale) (*MatrixResult, error) {
	r := &MatrixResult{Name: "fault", Title: "Fault matrix — crash/recover scenarios per design"}
	return runMatrix(r, s, 1, faultScenarios, func(scenario string, cfg *engine.Config) {
		cfg.DirtyFraction = 0.9 // keep LC's SSD dirty set large: the interesting loss case
		if scenario == "mid-lazy-clean" {
			cfg.DirtyFraction = 0.05 // wake the cleaner early so the crash site is reached
		}
	}, runFaultScenario)
}

// faultMix is a splitmix64-style hash used both to derive per-cell seeds and
// to key the self-verifying page payloads.
func faultMix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// faultHotPages is the hot set: pages 0..faultHotPages-1 receive all updates.
const faultHotPages = 256

// faultDriver runs one cell's workload and verification inside a simulation
// process. applied is the model's per-page counter after every update;
// committed snapshots it at each acknowledged commit. After a crash, a page
// must hold a counter the model once produced: exactly applied for durable
// states, or within [committed, applied] when the crash raced the log force.
type faultDriver struct {
	e         *engine.Engine
	inj       *fault.Injector
	rng       uint64
	applied   []uint64
	committed []uint64
	fails     []string
}

func (d *faultDriver) rand() uint64 {
	d.rng += 0x9E3779B97F4A7C15
	z := d.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (d *faultDriver) failf(format string, args ...interface{}) {
	if len(d.fails) < 4 {
		d.fails = append(d.fails, fmt.Sprintf(format, args...))
	}
}

// update increments one hot page's counter and rewrites its hash.
func (d *faultDriver) update(p *sim.Proc, tx uint64, pid page.ID) error {
	return d.e.Update(p, tx, pid, func(payload []byte) {
		c := binary.LittleEndian.Uint64(payload[0:8]) + 1
		binary.LittleEndian.PutUint64(payload[0:8], c)
		binary.LittleEndian.PutUint64(payload[8:16], faultMix(uint64(pid), c))
		d.applied[pid] = c
	})
}

// round performs 8 updates, 4 read-only accesses and a commit. The reads
// leave pages clean, which CW and TAC need to cache anything at all (their
// admission paths skip or abort on dirty pages). crashed reports that an
// armed crash point fired inside Commit; the updates may or may not be
// durable depending on the site.
func (d *faultDriver) round(p *sim.Proc) (crashed bool, err error) {
	tx := d.e.Begin()
	for i := 0; i < 12; i++ {
		pid := page.ID(d.rand() % faultHotPages)
		if i%3 == 2 {
			if _, err := d.e.Get(p, pid); err != nil {
				return false, err
			}
			continue
		}
		if err := d.update(p, tx, pid); err != nil {
			return false, err
		}
	}
	err = d.e.Commit(p, tx)
	if err == nil {
		copy(d.committed, d.applied)
		return false, nil
	}
	if errors.Is(err, fault.ErrCrashPoint) {
		return true, nil
	}
	return false, err
}

// rounds runs n fault-free rounds (any crash fires a failure).
func (d *faultDriver) rounds(p *sim.Proc, n int, pause time.Duration) error {
	for r := 0; r < n; r++ {
		crashed, err := d.round(p)
		if err != nil {
			return err
		}
		if crashed {
			return errors.New("unexpected crash point")
		}
		p.Sleep(pause)
	}
	return nil
}

// verify reads every hot page and checks its counter against [lo, hi] and
// its hash against the counter. It then resyncs the model to the observed
// state, so post-recovery rounds continue from what actually survived.
func (d *faultDriver) verify(p *sim.Proc, lo, hi []uint64) error {
	for pid := int64(0); pid < faultHotPages; pid++ {
		f, err := d.e.Get(p, page.ID(pid))
		if err != nil {
			return fmt.Errorf("verify read page %d: %w", pid, err)
		}
		c := binary.LittleEndian.Uint64(f.Pg.Payload[0:8])
		h := binary.LittleEndian.Uint64(f.Pg.Payload[8:16])
		if c < lo[pid] || c > hi[pid] {
			d.failf("page %d: counter %d outside [%d, %d]", pid, c, lo[pid], hi[pid])
		}
		if c > 0 && h != faultMix(uint64(pid), c) {
			d.failf("page %d: hash mismatch at counter %d", pid, c)
		}
		if c == 0 && h != 0 {
			d.failf("page %d: nonzero hash on zero counter", pid)
		}
		d.applied[pid] = c
		d.committed[pid] = c
	}
	return nil
}

// verifyExact checks every page holds exactly the model's applied counter.
func (d *faultDriver) verifyExact(p *sim.Proc) error {
	return d.verify(p, d.applied, d.applied)
}

// crashRecover simulates a power failure and restarts the engine.
func (d *faultDriver) crashRecover(p *sim.Proc) error {
	d.e.Crash()
	return d.e.Recover(p)
}

// runFaultScenario is the per-scenario script. The returned note annotates a
// passing row (deterministic counters only).
func runFaultScenario(p *sim.Proc, d *faultDriver, design ssd.Design, scenario string) (string, error) {
	e, inj := d.e, d.inj
	const pause = 5 * time.Millisecond
	switch scenario {
	case "pre-wal-flush", "post-wal-flush":
		site := fault.SitePreWALFlush
		if scenario == "post-wal-flush" {
			site = fault.SitePostWALFlush
		}
		inj.ArmCrash(site, 10)
		for r := 0; r < 20; r++ {
			crashed, err := d.round(p)
			if err != nil {
				return "", err
			}
			if !crashed {
				p.Sleep(pause)
				continue
			}
			if err := d.crashRecover(p); err != nil {
				return "", err
			}
			if site == fault.SitePostWALFlush {
				// The log force completed: every update of the crashed
				// round is durable even though the commit was never
				// acknowledged.
				if err := d.verifyExact(p); err != nil {
					return "", err
				}
			} else {
				// The crash raced the log force: evictions may have made
				// some of the round's updates durable, but nothing beyond
				// the model's applied state may appear and nothing
				// committed may be missing.
				if err := d.verify(p, d.committed, d.applied); err != nil {
					return "", err
				}
			}
			if err := d.rounds(p, 5, pause); err != nil {
				return "", err
			}
			return "", d.verifyExact(p)
		}
		return "", errors.New("commit crash site never fired")

	case "mid-checkpoint", "post-checkpoint":
		site := fault.SiteMidCheckpoint
		if scenario == "post-checkpoint" {
			site = fault.SitePostCheckpoint
		}
		if err := d.rounds(p, 10, pause); err != nil {
			return "", err
		}
		if err := e.Checkpoint(p); err != nil {
			return "", fmt.Errorf("clean checkpoint: %w", err)
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		inj.ArmCrash(site, 1)
		if err := e.Checkpoint(p); !errors.Is(err, fault.ErrCrashPoint) {
			return "", fmt.Errorf("checkpoint crash site did not fire (err=%v)", err)
		}
		if err := d.crashRecover(p); err != nil {
			return "", err
		}
		// Every round was committed, so recovery must restore the exact
		// applied state whether it replays from the old checkpoint
		// (mid-checkpoint) or the brand-new one (post-checkpoint).
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		return "", d.verifyExact(p)

	case "mid-lazy-clean":
		inj.ArmCrash(fault.SiteMidLazyClean, 1)
		fired := false
		for r := 0; r < 40; r++ {
			crashed, err := d.round(p)
			if err != nil {
				return "", err
			}
			if crashed {
				return "", errors.New("commit hit the cleaner crash site")
			}
			p.Sleep(25 * time.Millisecond) // cleaner airtime
			if inj.Fired() {
				fired = true
				break
			}
		}
		if design == ssd.LC && !fired {
			return "", errors.New("LC cleaner crash site never fired")
		}
		// Crash with the SSD holding uniquely-dirty pages mid-clean (LC) or
		// at an ordinary instant (designs without a cleaner).
		if err := d.crashRecover(p); err != nil {
			return "", err
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if fired {
			return "fired", nil
		}
		return "site unreached: no cleaner", nil

	case "ssd-loss-live":
		// CW and TAC touch the SSD far less often than DW/LC under this
		// update-heavy workload, so the loss must come early to land inside
		// the run for every design.
		inj.FailDeviceAfter("ssd", 30+int(inj.Rand()%20))
		for r := 0; r < 60; r++ {
			crashed, err := d.round(p)
			if err != nil {
				return "", err
			}
			if crashed {
				return "", errors.New("unexpected crash point")
			}
			p.Sleep(pause)
		}
		st := e.Stats()
		if st.SSDLosses != 1 {
			return "", fmt.Errorf("SSDLosses = %d, want 1", st.SSDLosses)
		}
		if design == ssd.LC && st.SSDLossRedo == 0 {
			return "", errors.New("LC lost its SSD without any WAL redo")
		}
		if design != ssd.LC && st.SSDLossRedo != 0 {
			return "", fmt.Errorf("%s redid %d pages after SSD loss, want 0", design, st.SSDLossRedo)
		}
		// The loss happened live: not a single applied update may be lost.
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		return fmt.Sprintf("redo=%d", st.SSDLossRedo), nil

	case "ssd-io-errors":
		// Read-error indices are spaced apart: the manager retries a failed
		// read exactly once (at the next read index), so back-to-back
		// injected read errors on a dirty LC frame would — correctly —
		// surface as a double device failure rather than be absorbed.
		for k := 0; k < 6; k++ {
			inj.ErrorRead("ssd", k*10+int(inj.Rand()%8))
			inj.ErrorWrite("ssd", int(inj.Rand()%60))
		}
		if err := d.rounds(p, 40, pause); err != nil {
			return "", err
		}
		st := e.SSD().Stats()
		if st.ReadErrors+st.WriteErrors == 0 {
			return "", errors.New("no injected SSD I/O errors were observed")
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		return fmt.Sprintf("errors=%d", st.ReadErrors+st.WriteErrors), nil

	case "torn-log":
		if err := d.rounds(p, 15, pause); err != nil {
			return "", err
		}
		// Five more updates, never committed: their records are pending
		// (or durable, if an eviction forced the log meanwhile).
		tx := e.Begin()
		for i := 0; i < 5; i++ {
			pid := page.ID(d.rand() % faultHotPages)
			if err := d.update(p, tx, pid); err != nil {
				return "", err
			}
		}
		// Reconstruct the on-device log image and tear its tail mid-record,
		// as a power cut during the last log write would.
		recs := append(append([]wal.Record(nil), e.Log().Durable()...), e.Log().PendingRecords()...)
		stream := wal.EncodeStream(recs)
		if len(stream) < 20 {
			return "", errors.New("log stream too short to tear")
		}
		torn := stream[:len(stream)-10]
		e.Crash()
		if err := e.Log().ReadDurable(bytes.NewReader(torn)); err != nil {
			return "", fmt.Errorf("torn log replay: %w", err)
		}
		if err := e.Recover(p); err != nil {
			return "", err
		}
		// The torn record is dropped cleanly; everything committed must
		// survive, everything recovered must be a state the model produced.
		if err := d.verify(p, d.committed, d.applied); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		return "", d.verifyExact(p)
	}
	return "", fmt.Errorf("unknown scenario %q", scenario)
}
