package harness

import (
	"errors"
	"fmt"
	"time"

	"turbobp/internal/engine"
	"turbobp/internal/page"
	"turbobp/internal/sim"
	"turbobp/internal/ssd"
)

// This file is the `bpesim corrupt` experiment: a deterministic
// silent-corruption matrix over every SSD design. Where `bpesim faults`
// covers faults a device reports (crashes, I/O errors, whole-device loss),
// this matrix covers the faults a device does NOT report: bit rot in stored
// frames, misdirected writes, and failing cells. Each cell runs the same
// self-verifying counter workload as the fault matrix, plants one corruption
// scenario, and checks that the engine's checksum-verified read paths detect
// the damage and repair it from the right source (disk copy, SSD copy, or
// WAL after-image) — no cell may ever observe a wrong counter. The
// configuration is fixed, so the rendered table is byte-identical across
// runs and across -parallel worker counts; docs/FAILURES.md describes each
// scenario's expected semantics.

// corruptScenarios are the rows of the matrix.
var corruptScenarios = []string{
	"ssd-rot-clean",
	"ssd-rot-dirty",
	"hdd-rot-ssd-copy",
	"hdd-rot-wal",
	"misdirected-write",
	"scrub-repair",
	"quarantine",
}

// RunCorruptMatrix executes the silent-corruption matrix.
func RunCorruptMatrix(s Scale) (*MatrixResult, error) {
	r := &MatrixResult{Name: "corruption", Title: "Silent-corruption matrix — detect/repair scenarios per design"}
	return runMatrix(r, s, 0xC0, corruptScenarios, func(scenario string, cfg *engine.Config) {
		cfg.DirtyFraction = 0.5
		switch scenario {
		case "ssd-rot-dirty":
			cfg.DirtyFraction = 0.9 // keep LC's SSD dirty set large
		case "hdd-rot-ssd-copy":
			cfg.ReadAheadRamp = -1 // scans batch immediately: the repair site is mid-run
		case "scrub-repair":
			cfg.ScrubPeriod = 10 * time.Millisecond
			cfg.ScrubBatch = 16
		case "quarantine":
			cfg.RetireAfter = 1
			cfg.QuarantineAfter = 2
		}
	}, runCorruptScenario)
}

// pickCleanSSD returns a page with a valid clean SSD copy that is not
// memory-resident (so the next Get must read the SSD frame), together with
// its frame slot. skip slots already chosen lets a scenario pick several
// distinct victims.
func pickCleanSSD(d *faultDriver, skip map[int]bool) (page.ID, int, bool) {
	for _, pid := range d.e.SSD().CleanPageIDs() {
		if d.e.Pool().Peek(pid) != nil {
			continue
		}
		idx, ok := d.e.SSD().FrameIndexOf(pid)
		if !ok || skip[idx] {
			continue
		}
		return pid, idx, true
	}
	return 0, 0, false
}

// pickDirtySSD is pickCleanSSD's twin for uniquely-dirty (LC) frames.
func pickDirtySSD(d *faultDriver) (page.ID, int, bool) {
	for _, pid := range d.e.SSD().DirtyPageIDs() {
		if d.e.Pool().Peek(pid) != nil {
			continue
		}
		if idx, ok := d.e.SSD().FrameIndexOf(pid); ok {
			return pid, idx, true
		}
	}
	return 0, 0, false
}

// runCorruptScenario is the per-scenario script. The returned note annotates
// a passing row (deterministic counters only).
func runCorruptScenario(p *sim.Proc, d *faultDriver, design ssd.Design, scenario string) (string, error) {
	e, inj := d.e, d.inj
	const pause = 5 * time.Millisecond
	if err := d.rounds(p, 20, pause); err != nil {
		return "", err
	}
	switch scenario {
	case "ssd-rot-clean":
		// Bit rot in a clean frame: the checksum catches it, the entry is
		// dropped, and the disk copy — which a clean frame matches by
		// definition — serves the read. Dropping the entry IS the repair.
		pid, idx, ok := pickCleanSSD(d, nil)
		if !ok {
			return "", errors.New("no clean non-resident SSD page to corrupt")
		}
		inj.RotSlot("ssd", int64(idx), 137)
		if _, err := e.Get(p, pid); err != nil {
			return "", fmt.Errorf("read of rotted page %d: %w", pid, err)
		}
		st := e.SSD().Stats()
		if st.CorruptDetected < 1 || st.CorruptRepaired < 1 {
			return "", fmt.Errorf("rot not detected/repaired (detected=%d repaired=%d)",
				st.CorruptDetected, st.CorruptRepaired)
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		return fmt.Sprintf("detected=%d", st.CorruptDetected), d.verifyExact(p)

	case "ssd-rot-dirty":
		// Bit rot in a uniquely-dirty LC frame: the SSD held the only
		// up-to-date copy, so the repair must come from the WAL's newest
		// after-image, not the (stale) disk. Only LC has such frames.
		pid, idx, ok := pickDirtySSD(d)
		if !ok {
			if design == ssd.LC {
				return "", errors.New("no dirty non-resident SSD page to corrupt")
			}
			return "no dirty SSD frames (by design)", d.verifyExact(p)
		}
		inj.RotSlot("ssd", int64(idx), 201)
		if _, err := e.Get(p, pid); err != nil {
			return "", fmt.Errorf("read of rotted dirty page %d: %w", pid, err)
		}
		sst := e.SSD().Stats()
		est := e.Stats()
		if sst.CorruptDirty < 1 || est.CorruptRedo < 1 {
			return "", fmt.Errorf("dirty rot not routed to WAL redo (corruptDirty=%d redo=%d)",
				sst.CorruptDirty, est.CorruptRedo)
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		return fmt.Sprintf("redo=%d", est.CorruptRedo), d.verifyExact(p)

	case "hdd-rot-ssd-copy":
		// Bit rot in a disk page whose clean copy also sits on the SSD: a
		// scan's multi-page read hits the rotted disk image mid-run, and the
		// intact SSD copy both serves the read and heals the disk in place.
		var pid page.ID
		var found bool
		for _, cand := range d.e.SSD().CleanPageIDs() {
			if cand < 1 || cand+1 >= page.ID(faultHotPages) {
				continue
			}
			if e.Pool().Peek(cand) != nil ||
				e.Pool().Peek(cand-1) != nil || e.Pool().Peek(cand+1) != nil {
				continue
			}
			if e.SSD().Contains(cand-1) || e.SSD().Contains(cand+1) {
				continue
			}
			pid, found = cand, true
			break
		}
		if !found {
			return "", errors.New("no SSD-cached page with cold neighbours to corrupt")
		}
		inj.RotSlot("db", int64(pid), 99)
		if err := e.Scan(p, pid-1, 3); err != nil {
			return "", fmt.Errorf("scan over rotted disk page %d: %w", pid, err)
		}
		st := e.Stats()
		if st.DiskCorruptions < 1 || st.DiskRepairsSSD < 1 {
			return "", fmt.Errorf("disk rot not healed from SSD (corruptions=%d repairs=%d)",
				st.DiskCorruptions, st.DiskRepairsSSD)
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		return fmt.Sprintf("ssdheal=%d", st.DiskRepairsSSD), d.verifyExact(p)

	case "hdd-rot-wal":
		// Bit rot in a disk page with no SSD copy: the repair ladder falls
		// through to the WAL's newest full after-image for the page. Extra
		// rounds first: the updated set must outgrow pool + SSD capacity so
		// an updated page with no cached copy exists under every design.
		if err := d.rounds(p, 15, pause); err != nil {
			return "", err
		}
		var pid page.ID
		var found bool
		for cand := page.ID(0); cand < page.ID(faultHotPages); cand++ {
			if d.applied[cand] == 0 || e.Pool().Peek(cand) != nil || e.SSD().Contains(cand) {
				continue
			}
			pid, found = cand, true
			break
		}
		if !found {
			return "", errors.New("no updated cold page to corrupt")
		}
		inj.RotSlot("db", int64(pid), 42)
		if _, err := e.Get(p, pid); err != nil {
			return "", fmt.Errorf("read of rotted disk page %d: %w", pid, err)
		}
		st := e.Stats()
		if st.DiskCorruptions < 1 || st.DiskRepairsWAL < 1 {
			return "", fmt.Errorf("disk rot not rebuilt from WAL (corruptions=%d repairs=%d)",
				st.DiskCorruptions, st.DiskRepairsWAL)
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		return fmt.Sprintf("walheal=%d", st.DiskRepairsWAL), d.verifyExact(p)

	case "misdirected-write":
		// Misdirected SSD writes: the payload lands one slot off, leaving
		// the intended slot with stale bytes and clobbering a victim slot
		// with a wrong-page image. The self-identifying header (id + LSN
		// cross-check) catches both sides on their next read; the victims
		// repair from disk or WAL like any other corrupt frame.
		base := inj.Writes("ssd")
		for k := 0; k < 4; k++ {
			inj.MisdirectWrite("ssd", base+3+k*7, +1)
		}
		if err := d.rounds(p, 25, pause); err != nil {
			return "", err
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		st := e.SSD().Stats()
		return fmt.Sprintf("detected=%d", st.CorruptDetected), nil

	case "scrub-repair":
		// The background scrubber finds rot the workload never touches: rot
		// a clean frame, stop issuing reads, and wait. The scrubber must
		// detect the damage on its sweep and rewrite the frame from the
		// intact disk copy — before any read ever sees it.
		pid, idx, ok := pickCleanSSD(d, nil)
		if !ok {
			return "", errors.New("no clean non-resident SSD page to corrupt")
		}
		inj.RotSlot("ssd", int64(idx), 77)
		p.Sleep(400 * time.Millisecond) // several scrub periods of idle time
		st := e.SSD().Stats()
		if st.ScrubSweeps < 1 || st.ScrubRepairs < 1 {
			return "", fmt.Errorf("scrubber did not repair (sweeps=%d frames=%d repairs=%d)",
				st.ScrubSweeps, st.ScrubFrames, st.ScrubRepairs)
		}
		if _, err := e.Get(p, pid); err != nil {
			return "", fmt.Errorf("read of scrubbed page %d: %w", pid, err)
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		if err := d.rounds(p, 5, pause); err != nil {
			return "", err
		}
		return fmt.Sprintf("repairs=%d", st.ScrubRepairs), d.verifyExact(p)

	case "quarantine":
		// Failing cells: sticky rot survives rewrites, so the affected slots
		// retire after RetireAfter failures, and enough retired slots tip
		// the whole device into quarantine — pass-through mode, no new
		// admissions, correctness preserved straight from the disks.
		chosen := map[int]bool{}
		var pids []page.ID
		for len(pids) < 3 {
			pid, idx, ok := pickCleanSSD(d, chosen)
			if !ok {
				return "", fmt.Errorf("only %d clean non-resident SSD pages to corrupt, need 3", len(pids))
			}
			chosen[idx] = true
			inj.RotSlotSticky("ssd", int64(idx), 55)
			pids = append(pids, pid)
		}
		for _, pid := range pids {
			if _, err := e.Get(p, pid); err != nil {
				return "", fmt.Errorf("read of sticky-rotted page %d: %w", pid, err)
			}
		}
		st := e.SSD().Stats()
		if st.Retired < 2 || !e.SSD().Quarantined() {
			return "", fmt.Errorf("device not quarantined (retired=%d quarantines=%d)",
				st.Retired, st.Quarantines)
		}
		if err := d.verifyExact(p); err != nil {
			return "", err
		}
		// Pass-through operation must stay correct.
		if err := d.rounds(p, 10, pause); err != nil {
			return "", err
		}
		return fmt.Sprintf("retired=%d", st.Retired), d.verifyExact(p)
	}
	return "", fmt.Errorf("unknown scenario %q", scenario)
}
