// Package ssd implements the paper's SSD manager: the storage-module
// component that uses a flash SSD as a second-level extension of the DBMS
// buffer pool (§2–§3 of "Turbocharging DBMS Buffer Pool Using SSDs",
// SIGMOD 2011).
//
// The manager maintains the five data structures of the paper's Figure 4 —
// the SSD buffer pool (a frame array on the SSD device), the SSD buffer
// table (per-frame records with page id, dirty bit and the last two access
// times), the SSD hash table, the SSD free list, and the clean/dirty heap
// pair used for LRU-2 replacement and lazy cleaning — heaps of frame
// indices ordered by the table's own records. Page ids are dense, so
// the hash table is a directory indexed by page id. The buffer pool is
// partitioned into N shards (§3.3.4), each with its own free list and
// heaps; a page's shard is a hash of its id.
//
// Three dirty-page designs (CW, DW, LC — §2.3) and the re-implemented TAC
// comparison point (§2.5) are personalities over this one frame store.
package ssd

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/fault"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

// Design selects how the manager handles pages evicted from the memory
// buffer pool.
type Design int

// The caching designs evaluated in the paper.
const (
	NoSSD Design = iota // baseline: no SSD cache at all
	CW                  // clean-write: dirty evictions go only to disk
	DW                  // dual-write: dirty evictions go to SSD and disk
	LC                  // lazy-cleaning: dirty evictions go only to SSD
	TAC                 // temperature-aware caching (Canim et al.)
)

// String returns the paper's abbreviation for the design.
func (d Design) String() string {
	switch d {
	case NoSSD:
		return "noSSD"
	case CW:
		return "CW"
	case DW:
		return "DW"
	case LC:
		return "LC"
	case TAC:
		return "TAC"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// Disk is the view of the database disk subsystem the SSD manager needs:
// the lazy cleaner, dirty evictions and dual writes push encoded page runs
// to it.
type Disk interface {
	WriteEncodedTask(t *sim.Task, start page.ID, bufs [][]byte, k func(error))
}

// Config parameterizes the manager. The defaults mirror the paper's
// Table 2. The engine embeds it in its own Config and hands it over whole.
type Config struct {
	Design        Design
	SSDFrames     int     // S: SSD buffer-pool frames (0 disables)
	Partitions    int     // N: shards (§3.3.4)
	FillThreshold float64 // τ: aggressive-filling fraction (§3.3.1)
	Throttle      int     // μ: max pending SSD I/Os (§3.3.2)
	GroupClean    int     // α: max pages per LC cleaning write (§3.3.5)
	DirtyFraction float64 // λ: dirty fraction that wakes the cleaner (§2.3.3)
	PayloadSize   int     // page payload bytes (buffers are header+payload)
	// SSDProfile is the SSD's latency model (zero value = the paper's
	// calibration). TAC's per-miss savings derive from it.
	SSDProfile device.Profile
	// Faults, when set, fires crash points inside the manager (the LC
	// cleaner's mid-lazy-clean site). Device-level faults are injected by
	// wrapping the SSD device itself; see internal/fault.
	Faults *fault.Injector
	// ScrubPeriod is the background scrubber's wake-up interval; 0 (the
	// default) disables scrubbing. Each wake-up verifies up to ScrubBatch
	// resident frames (default 8) against their checksums and expected
	// page id/LSN, repairing what it can.
	ScrubPeriod time.Duration
	ScrubBatch  int
	// RetireAfter is the number of verification failures that permanently
	// retires an SSD slot (default 3). QuarantineAfter is the number of
	// retired slots that demotes the whole SSD to pass-through (default 8):
	// no new admissions, clean frames served from disk, dirty frames
	// drained. Degrade, don't die.
	RetireAfter     int
	QuarantineAfter int
}

// Repairer reconstructs a uniquely-dirty page after its SSD frame was
// condemned: the engine implements it with page-granular WAL redo over the
// stale disk version.
type Repairer interface {
	RepairDirtyPage(p *sim.Proc, pid page.ID) error
}

// cleanerPoll is the lazy cleaner's wake-up period.
const cleanerPoll = 20 * time.Millisecond

// extentPages is TAC's temperature granularity (32 pages in the paper).
const extentPages = 32

func (c *Config) setDefaults() {
	if c.Partitions <= 0 {
		c.Partitions = 16
	}
	if c.Partitions > c.SSDFrames && c.SSDFrames > 0 {
		c.Partitions = c.SSDFrames
	}
	if c.FillThreshold <= 0 || c.FillThreshold > 1 {
		c.FillThreshold = 0.95
	}
	if c.Throttle <= 0 {
		c.Throttle = 100
	}
	if c.GroupClean <= 0 {
		c.GroupClean = 32
	}
	if c.DirtyFraction <= 0 || c.DirtyFraction > 1 {
		c.DirtyFraction = 0.5
	}
	if c.SSDProfile == (device.Profile{}) {
		c.SSDProfile = device.PaperSSDProfile()
	}
	if c.ScrubBatch <= 0 {
		c.ScrubBatch = 8
	}
	if c.RetireAfter <= 0 {
		c.RetireAfter = 3
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 8
	}
}

// asyncAdmitDelay models the gap between a disk read completing and TAC's
// asynchronous SSD write starting — the window in which forward processing
// can dirty the page and abort the admission (§4.2).
const asyncAdmitDelay = 500 * time.Microsecond

// retry bounds transient-I/O retries on the SSD read/write paths.
var retry = device.DefaultRetryPolicy()

// frameRec is one SSD buffer table record (the paper's 88-byte record:
// page id, dirty bit, last two access times, latch and list pointers — the
// list pointer is pos, the frame's place in its shard's clean or dirty
// heap). It holds no pointer, so the garbage collector never scans the
// table, and its zero value is a free frame, so NewManager writes none and
// an untouched frame costs no memory.
// A frame's shard is not stored: frames are dealt round-robin, so it is
// idx % len(m.shards).
type frameRec struct {
	pid   page.ID
	lsn   uint64        // LSN of the cached version (guards cleaner races)
	last  time.Duration // most recent access
	prev  time.Duration // access before that, or never
	gen   uint32        // bumped on free; orphans stale TAC heap entries
	pos   int32         // 1 + position in the shard's clean or dirty frameHeap; 0 = in neither
	io    int32         // in-flight device transfers referencing this frame
	flags frameFlags
	// bad counts the slot's verification failures. It and fRetired
	// survive freeFrame: a bad cell keeps its history across reuse by
	// different pages.
	bad uint8
}

// never is the penultimate-access time of a frame referenced once; it
// sorts before every real time, so such frames are the preferred victims.
const never = time.Duration(-1) << 32

// frameFlags is a frame's state bits.
type frameFlags uint8

const (
	fOccupied  frameFlags = 1 << iota
	fValid                // clear while occupied = TAC's logical invalidation
	fDirty                // newer than the disk copy (LC only)
	fRestored             // entry came from a warm-restart table; validate on read
	fCondemned            // contents proven corrupt; free as soon as idle (any design)
	fRetired              // slot retired after repeated failures: out of service for good
)

// has reports whether every flag in f is set.
func (r *frameRec) has(f frameFlags) bool { return r.flags&f == f }

// shard is one partition of the SSD buffer pool (§3.3.4): its own free
// list and heaps over the frames dealt to it. Frames are dealt round-robin,
// so shard num holds frames num, num+N, num+2N, .... Its heaps store frame
// indices and order them by the frame table's records (frameHeap).
type shard struct {
	num   int       // this shard's index in Manager.shards
	free  []int32   // SSD free list: the top frame is handed out first
	clean frameHeap // clean heap: LRU-2 over idle clean valid frames
	dirty frameHeap // dirty heap: LRU-2 over dirty frames (LC only)
	tac   tacHeap   // TAC replacement heap (temperature order)
}

// lookup returns the frame index caching pid, if any. Ids outside the
// directory are never cached: the lazy cleaner probes the neighbours of
// the first and last page.
func (m *Manager) lookup(pid page.ID) (int, bool) {
	if uint64(pid) >= uint64(len(m.dir)) {
		return 0, false
	}
	v := m.dir[pid]
	return int(v) - 1, v != 0
}

// frameShard returns frame idx's shard.
func (m *Manager) frameShard(idx int) *shard { return &m.shards[idx%len(m.shards)] }

// Stats counts manager activity.
type Stats struct {
	Hits           int64 // lookups served from the SSD
	Misses         int64 // lookups that fell through to disk
	ThrottleReads  int64 // clean hits skipped because of throttle control
	ThrottleWrites int64 // admissions skipped because of throttle control
	Admissions     int64 // pages written into SSD frames
	DirtyAdmits    int64 // of which were dirty (LC)
	Evictions      int64 // frames reclaimed by replacement
	Invalidations  int64 // copies invalidated after a memory-side update
	Revalidations  int64 // TAC: invalid copies refreshed at dirty eviction
	CleanerRuns    int64 // LC cleaner activations
	CleanerPages   int64 // dirty SSD pages copied back to disk by the cleaner
	CleanerWrites  int64 // disk write I/Os issued by the cleaner
	CheckpointPgs  int64 // dirty SSD pages flushed by sharp checkpoints
	TACAborts      int64 // TAC async admissions dropped (page dirtied first)
	ReadErrors     int64 // SSD read attempts that failed
	WriteErrors    int64 // SSD write attempts that failed
	ReadRetries    int64 // failed read attempts that were re-issued
	WriteRetries   int64 // failed write attempts that were re-issued

	// Silent-corruption defense (see docs/FAILURES.md).
	CorruptDetected int64 // frames whose bytes failed checksum/id/LSN verification
	CorruptRepaired int64 // of which repaired transparently (disk re-read or scrub rewrite)
	CorruptDirty    int64 // of which were uniquely-dirty (routed to WAL reconstruction)
	ScrubSweeps     int64 // scrubber wake-ups
	ScrubFrames     int64 // frames verified by the scrubber
	ScrubRepairs    int64 // frames the scrubber rewrote in place from the disk copy
	Retired         int64 // slots permanently retired after repeated failures
	Quarantines     int64 // quarantine transitions (0 or 1): SSD demoted to pass-through
}

// Manager is the SSD manager.
type Manager struct {
	env    *sim.Env
	dev    device.Device
	disk   Disk
	repair Repairer // nil: a corrupt dirty frame can only be dropped
	cfg    Config
	shards []shard
	frames []frameRec

	occupied      int
	dirtyCount    int
	fillTarget    int
	checkpointing bool
	cleanerStop   bool
	scrubStop     bool
	lost          bool // the SSD device failed wholesale (device.ErrLost)
	quarantined   bool // too many retired slots: pass-through mode
	stats         Stats

	dir   []int32   // SSD hash table: page id -> frame index + 1; 0 = not cached
	temps []float64 // TAC extent temperatures, by extent number

	// Per-miss milliseconds an SSD hit would save, the TAC temperature
	// increments: disk minus SSD cost for random and sequential reads.
	randSavedMs float64
	seqSavedMs  float64

	// Free lists for encoded-page scratch buffers, the small [][]byte
	// vectors that carry them through device transfers, and the group-clean
	// scratch state. All access is serialized by the simulation kernel, but
	// holders sleep in virtual time mid-transfer, so these are take/return
	// lists rather than shared scratch space.
	bufFree     [][]byte
	vecFree     [][][]byte
	scratchFree []*cleanScratch

	// Free lists of operation states (see task.go). Taken per call and
	// returned at completion, so steady-state traffic allocates no
	// continuation closures.
	readFree  []*readOp
	wfFree    []*wfOp
	wdFree    []*wdOp
	evictFree []*evictOp
	taFree    []*tacAdmitOp
	hwFree    []*hitWait
}

// getBuf takes an encoded-page buffer from the free list.
func (m *Manager) getBuf() []byte {
	if n := len(m.bufFree); n > 0 {
		b := m.bufFree[n-1]
		m.bufFree[n-1] = nil
		m.bufFree = m.bufFree[:n-1]
		return b
	}
	return make([]byte, m.bufSize())
}

// putBuf returns a buffer for reuse; callers must hold no aliases.
func (m *Manager) putBuf(b []byte) {
	if cap(b) < m.bufSize() {
		return
	}
	m.bufFree = append(m.bufFree, b[:m.bufSize()])
}

// getVec returns an empty buffer vector with capacity for n entries.
func (m *Manager) getVec(n int) [][]byte {
	if l := len(m.vecFree); l > 0 {
		v := m.vecFree[l-1]
		m.vecFree[l-1] = nil
		m.vecFree = m.vecFree[:l-1]
		if cap(v) >= n {
			return v[:0]
		}
	}
	return make([][]byte, 0, n)
}

// putVec returns a vector to the free list (buffers are returned separately).
func (m *Manager) putVec(v [][]byte) {
	for i := range v {
		v[i] = nil
	}
	m.vecFree = append(m.vecFree, v[:0])
}

// NewManager creates a manager over dev (the SSD device, one device page
// per frame) and disk (the database disk subsystem, for write-back paths)
// that caches pages with ids in [0, pages). repair, when non-nil,
// reconstructs a dirty page whose only copy was corrupt (the engine wires
// its WAL redo here); without it the manager can only drop the frame and
// count the loss.
func NewManager(env *sim.Env, dev device.Device, disk Disk, repair Repairer, pages int, cfg Config) *Manager {
	cfg.setDefaults()
	hdd := device.PaperHDDProfile()
	m := &Manager{
		env:         env,
		dev:         dev,
		disk:        disk,
		repair:      repair,
		cfg:         cfg,
		frames:      make([]frameRec, cfg.SSDFrames),
		randSavedMs: float64(hdd.RandRead-cfg.SSDProfile.RandRead) / float64(time.Millisecond),
		seqSavedMs:  max(0, float64(hdd.SeqRead-cfg.SSDProfile.SeqRead)/float64(time.Millisecond)),
	}
	m.fillTarget = int(cfg.FillThreshold * float64(cfg.SSDFrames))
	n := cfg.Partitions
	if cfg.SSDFrames == 0 {
		n = 1
	}
	if m.Enabled() {
		m.dir = make([]int32, pages)
		if cfg.Design == TAC {
			m.temps = make([]float64, (pages+extentPages-1)/extentPages)
		}
	}
	m.shards = make([]shard, n)
	for i := range m.shards {
		s := &m.shards[i]
		*s = shard{
			num:   i,
			free:  make([]int32, 0, (cfg.SSDFrames-i+n-1)/n),
			clean: frameHeap{frames: m.frames},
			dirty: frameHeap{frames: m.frames},
		}
		// Deal frames to shards round-robin so shard capacities differ by
		// at most one.
		for f := i; f < cfg.SSDFrames; f += n {
			s.free = append(s.free, int32(f))
		}
	}
	return m
}

// Config returns the effective configuration (defaults applied).
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Enabled reports whether the manager caches anything.
func (m *Manager) Enabled() bool {
	return m.cfg.Design != NoSSD && m.cfg.SSDFrames > 0
}

func (m *Manager) shardOf(pid page.ID) *shard {
	// Fibonacci hashing over the page id spreads contiguous extents.
	h := uint64(pid) * 0x9E3779B97F4A7C15
	return &m.shards[h%uint64(len(m.shards))]
}

func (m *Manager) bufSize() int { return page.HeaderSize + m.cfg.PayloadSize }

// Occupied returns the number of occupied frames (valid or TAC-invalid).
func (m *Manager) Occupied() int { return m.occupied }

// DirtyCount returns the number of dirty SSD frames.
func (m *Manager) DirtyCount() int { return m.dirtyCount }

// InvalidCount returns the number of occupied-but-invalid frames (TAC's
// wasted space, §2.5).
func (m *Manager) InvalidCount() int {
	n := 0
	for i := range m.frames {
		if m.frames[i].has(fOccupied) && !m.frames[i].has(fValid) {
			n++
		}
	}
	return n
}

// Contains reports whether a valid copy of pid is cached.
func (m *Manager) Contains(pid page.ID) bool {
	if !m.Enabled() {
		return false
	}
	idx, ok := m.lookup(pid)
	return ok && m.frames[idx].has(fValid)
}

// Lost reports whether the SSD device failed wholesale. A lost manager
// rejects every operation with device.ErrLost; the engine replaces it via
// RecoverSSDLoss.
func (m *Manager) Lost() bool { return m.lost }

// noteDeviceErr latches the lost state when err is a whole-device loss. The
// cleaner is stopped too: it could only spin against a dead device.
func (m *Manager) noteDeviceErr(err error) {
	if errors.Is(err, device.ErrLost) {
		m.lost = true
		m.cleanerStop = true
		m.scrubStop = true
	}
}

// DirtyCorruptError reports that the only up-to-date copy of a page — a
// dirty SSD frame — failed verification and was condemned. The engine
// catches it and reconstructs the page from the WAL (RepairDirtyPage).
type DirtyCorruptError struct {
	PID page.ID
	Err error
}

// Error names the page and the verification failure.
func (e *DirtyCorruptError) Error() string {
	return fmt.Sprintf("ssd: dirty frame for page %d corrupt: %v", e.PID, e.Err)
}

// Unwrap returns the verification failure, so errors.Is sees through to it.
func (e *DirtyCorruptError) Unwrap() error { return e.Err }

// Quarantined reports whether the SSD has been demoted to pass-through
// after too many retired slots.
func (m *Manager) Quarantined() bool { return m.quarantined }

// RetiredSlots returns the number of permanently retired frame slots.
func (m *Manager) RetiredSlots() int {
	n := 0
	for i := range m.frames {
		if m.frames[i].has(fRetired) {
			n++
		}
	}
	return n
}

// FrameIndexOf returns the frame slot holding a valid copy of pid, if any.
// Fault schedules use it to aim slot-level corruption at a chosen page.
func (m *Manager) FrameIndexOf(pid page.ID) (int, bool) {
	if !m.Enabled() {
		return 0, false
	}
	idx, ok := m.lookup(pid)
	if !ok || !m.frames[idx].has(fValid) {
		return 0, false
	}
	return idx, true
}

// CleanPageIDs returns, sorted, the ids of pages with valid clean cached
// copies — the complement of DirtyPageIDs over the valid entries.
func (m *Manager) CleanPageIDs() []page.ID {
	var ids []page.ID
	for i := range m.frames {
		rec := &m.frames[i]
		if rec.has(fOccupied) && rec.has(fValid) && !rec.has(fDirty) {
			ids = append(ids, rec.pid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// condemnFrame drops a frame whose device slot returned bytes that failed
// verification: the entry must never serve a hit again, under any design —
// even TAC frees it (an occupied-invalid TAC frame could be revalidated in
// place, which a proven-bad slot must not be).
func (m *Manager) condemnFrame(idx int) {
	rec := &m.frames[idx]
	if !rec.has(fOccupied) {
		return
	}
	s := m.frameShard(idx)
	if rec.has(fDirty) {
		rec.flags &^= fDirty
		m.dirtyCount--
		s.dirty.remove(idx)
	}
	s.clean.remove(idx)
	rec.flags &^= fValid
	rec.flags |= fCondemned
	if rec.io == 0 {
		m.freeFrame(idx)
	}
	// else: freed by frameIdle when the in-flight transfer completes.
}

// noteCorrupt records a verification failure on slot idx: the frame is
// condemned, the slot's failure count advances, and past the configured
// thresholds the slot retires and the SSD quarantines.
func (m *Manager) noteCorrupt(idx int) {
	m.noteBadSlot(idx)
	m.condemnFrame(idx)
}

// noteBadSlot advances slot idx's verification-failure count, retiring the
// slot and quarantining the device past the configured thresholds. It
// reports whether the slot is (now) retired. Unlike noteCorrupt it leaves
// the frame itself alone, so the scrubber can repair it in place.
func (m *Manager) noteBadSlot(idx int) bool {
	m.stats.CorruptDetected++
	rec := &m.frames[idx]
	if rec.bad < 0xFF {
		rec.bad++
	}
	if !rec.has(fRetired) && int(rec.bad) >= m.cfg.RetireAfter {
		rec.flags |= fRetired
		m.stats.Retired++
		if !m.quarantined && m.RetiredSlots() >= m.cfg.QuarantineAfter {
			m.quarantined = true
			m.stats.Quarantines++
		}
	}
	return rec.has(fRetired)
}

// DirtyPageIDs returns, sorted, the ids of pages whose only up-to-date copy
// lives on the SSD (valid dirty frames — possible only under LC). After an
// SSD loss this is exactly the set recovery must rebuild from the WAL.
func (m *Manager) DirtyPageIDs() []page.ID {
	var ids []page.ID
	for i := range m.frames {
		rec := &m.frames[i]
		if rec.has(fOccupied) && rec.has(fValid) && rec.has(fDirty) {
			ids = append(ids, rec.pid)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// dropFrame invalidates frame idx after a failed device write: the frame's
// on-device contents are unknown, so the entry must never serve a hit (and
// a dirty entry must never be "cleaned" from garbage). Non-TAC designs free
// the frame as soon as it is idle; TAC leaves it occupied-invalid, like a
// logical invalidation.
func (m *Manager) dropFrame(idx int) {
	rec := &m.frames[idx]
	if !rec.has(fOccupied) {
		return
	}
	s := m.frameShard(idx)
	if rec.has(fDirty) {
		rec.flags &^= fDirty
		m.dirtyCount--
		s.dirty.remove(idx)
	}
	s.clean.remove(idx)
	rec.flags &^= fValid
	m.frameIdle(idx)
}

// IsDirty reports whether the cached copy of pid is newer than the disk
// version (possible only under LC).
func (m *Manager) IsDirty(pid page.ID) bool {
	if !m.Enabled() {
		return false
	}
	idx, ok := m.lookup(pid)
	return ok && m.frames[idx].has(fValid) && m.frames[idx].has(fDirty)
}

// throttled reports whether throttle control (§3.3.2) is suppressing
// optional SSD traffic.
func (m *Manager) throttled() bool {
	return m.dev.Pending() >= m.cfg.Throttle
}

// aggressiveFill reports whether the SSD is still below the filling
// threshold τ, during which every evicted page is cached (§3.3.1).
func (m *Manager) aggressiveFill() bool { return m.occupied < m.fillTarget }

// Qualifies applies the admission policy: pages fetched with random I/O
// always qualify; sequential pages qualify only during aggressive filling.
func (m *Manager) Qualifies(random bool) bool {
	if !m.Enabled() || m.quarantined {
		return false
	}
	if m.aggressiveFill() {
		return true
	}
	return random
}

// hitWait adapts a (bool, error) completion to a process parked in Await;
// pooled, with k bound once.
type hitWait struct {
	ok   bool
	done func(error)
	k    func(bool, error)
}

// awaitHit runs start — a task-form operation completing with (bool, error)
// — for the blocking process p.
func (m *Manager) awaitHit(p *sim.Proc, start func(t *sim.Task, k func(bool, error))) (bool, error) {
	var w *hitWait
	if n := len(m.hwFree); n > 0 {
		w = m.hwFree[n-1]
		m.hwFree = m.hwFree[:n-1]
	} else {
		w = &hitWait{}
		w.k = func(ok bool, err error) {
			w.ok = ok
			w.done(err)
		}
	}
	err := p.Await(func(t *sim.Task, done func(error)) {
		w.done = done
		start(t, w.k)
	})
	ok := w.ok
	w.done = nil
	m.hwFree = append(m.hwFree, w)
	return ok, err
}

// Read is ReadTask for a blocking process.
func (m *Manager) Read(p *sim.Proc, pid page.ID, pg *page.Page) (bool, error) {
	return m.awaitHit(p, func(t *sim.Task, k func(bool, error)) { m.ReadTask(t, pid, pg, k) })
}

// readOutcome resolves a frame read once the device transfers (including
// retries) are done: error triage, reclaimed-frame check, decode and
// verification, hit accounting, and corruption routing. wantLSN and
// restored are the frame's state when the read was issued — if the frame
// was re-admitted mid-flight the stored bytes are stale, not corrupt. buf is
// consumed (returned to the free list) on every path.
func (m *Manager) readOutcome(pid page.ID, idx int, wantLSN uint64, restored bool, buf []byte, pg *page.Page, err error) (bool, error) {
	rec := &m.frames[idx]
	if err != nil {
		m.putBuf(buf)
		if m.lost {
			m.frameIdle(idx)
			return false, device.ErrLost
		}
		if rec.has(fDirty) {
			// The only up-to-date copy is unreadable and the device is not
			// (yet) declared lost. Surface the error rather than silently
			// serving the stale disk version.
			m.frameIdle(idx)
			return false, err
		}
		// Clean frame: degrade to a miss served from disk, dropping the
		// entry so it cannot keep failing.
		m.dropFrame(idx)
		m.stats.Misses++
		return false, nil
	}
	if !rec.has(fOccupied) || rec.pid != pid || !rec.has(fValid) || rec.lsn != wantLSN {
		// The frame was reclaimed, invalidated, or re-admitted with a newer
		// version while we slept in the device queue; the bytes we read are
		// stale, not wrong. Treat as a miss (the pool handles residency).
		m.putBuf(buf)
		m.frameIdle(idx)
		m.stats.Misses++
		return false, nil
	}
	var got page.Page
	decodeErr := page.Decode(buf, &got)
	if decodeErr == nil && got.ID != pid {
		decodeErr = &page.ChecksumError{
			ID: pid, Device: "ssd", Slot: int64(idx),
			Reason: "id", Got: uint64(got.ID), Want: uint64(pid),
		}
	}
	if decodeErr == nil && !restored && got.LSN != wantLSN {
		// The self-identifying header names the right page but the wrong
		// version: the slot missed a write (misdirected or lost). Restored
		// warm-restart entries skip this check — their expected LSN is not
		// tracked; the checksum and id still vouch for them.
		decodeErr = &page.ChecksumError{
			ID: pid, Device: "ssd", Slot: int64(idx),
			Reason: "lsn", Got: got.LSN, Want: wantLSN,
		}
	}
	if decodeErr != nil {
		m.putBuf(buf)
		if rec.has(fRestored) {
			// Warm-restart entries are hints: the frame was reused for a
			// different page between the checkpoint that recorded the
			// table and the crash. Drop the stale entry and miss.
			rec.flags &^= fValid
			m.frameIdle(idx)
			m.stats.Misses++
			return false, nil
		}
		if ce := (*page.ChecksumError)(nil); errors.As(decodeErr, &ce) {
			ce.ID, ce.Device, ce.Slot = pid, "ssd", int64(idx)
		}
		wasDirty := rec.has(fDirty)
		m.noteCorrupt(idx)
		if !wasDirty {
			// A clean frame's truth lives on disk: dropping the entry IS
			// the repair — the caller falls through to the disk read.
			m.stats.CorruptRepaired++
			m.stats.Misses++
			return false, nil
		}
		// The only up-to-date copy was corrupt. Hand the engine a typed
		// error so it can reconstruct the page from the WAL.
		m.stats.CorruptDirty++
		return false, &DirtyCorruptError{PID: pid, Err: decodeErr}
	}
	if rec.has(fRestored) {
		// A restored entry's expected LSN was unknown until now; adopt the
		// verified stored LSN so later reads can cross-check it.
		rec.lsn = got.LSN
	}
	rec.flags &^= fRestored // content verified against the hash table entry
	pg.ID = got.ID
	pg.LSN = got.LSN
	copy(pg.Payload, got.Payload)
	m.putBuf(buf) // got.Payload aliased buf; the copy above ends its use
	m.touch(idx)
	m.frameIdle(idx)
	m.stats.Hits++
	return true, nil
}

// touch records an SSD access for replacement (LRU-2).
func (m *Manager) touch(idx int) {
	rec := &m.frames[idx]
	rec.prev = rec.last
	rec.last = m.env.Now()
	s := m.frameShard(idx)
	if m.cfg.Design == TAC {
		return // TAC replaces by temperature, not recency
	}
	if rec.has(fDirty) {
		s.dirty.touch(idx)
	} else {
		s.clean.touch(idx)
	}
}

// frameIdle finishes deferred reclamation: a frame invalidated while a
// device transfer was in flight is freed once the last transfer completes.
// Condemned frames are freed under every design, including TAC.
func (m *Manager) frameIdle(idx int) {
	rec := &m.frames[idx]
	if rec.io == 0 && rec.has(fOccupied) && !rec.has(fValid) && (m.cfg.Design != TAC || rec.has(fCondemned)) {
		m.freeFrame(idx)
	}
}

// freeFrame returns an occupied frame to its shard's free list — unless the
// slot has been retired, in which case the frame is emptied but stays out
// of service permanently.
func (m *Manager) freeFrame(idx int) {
	rec := &m.frames[idx]
	if !rec.has(fOccupied) {
		panic("ssd: freeing unoccupied frame")
	}
	s := m.frameShard(idx)
	m.dir[rec.pid] = 0
	s.clean.remove(idx)
	s.dirty.remove(idx)
	if rec.has(fDirty) {
		m.dirtyCount--
	}
	rec.flags &= fRetired
	rec.pid = 0
	rec.gen++ // invalidates stale TAC heap entries for this frame
	m.occupied--
	if rec.has(fRetired) {
		return
	}
	s.free = append(s.free, int32(idx))
}

// Invalidate removes the cached copy of pid after the memory copy was
// dirtied. CW/DW/LC reclaim the frame physically; TAC only marks it invalid
// (§2.5), wasting the space until temperature replacement reaches it.
func (m *Manager) Invalidate(pid page.ID) {
	if !m.Enabled() {
		return
	}
	idx, ok := m.lookup(pid)
	if !ok {
		return
	}
	rec := &m.frames[idx]
	if !rec.has(fValid) {
		return
	}
	m.stats.Invalidations++
	if m.cfg.Design == TAC {
		rec.flags &^= fValid // logical invalidation: frame stays occupied
		return
	}
	rec.flags &^= fValid
	if rec.io == 0 {
		m.freeFrame(idx)
	}
	// else: freed by frameIdle when the in-flight transfer completes.
}

// allocFrame finds a frame in pid's shard: the free list first, then a
// clean-heap victim (replacement). It returns -1 if nothing is reclaimable
// (every clean frame busy, rest dirty). The returned frame is occupied and
// published in the hash table immediately so that concurrent readers queue
// behind the admission write in the device FIFO rather than reading a stale
// disk version.
func (m *Manager) allocFrame(pid page.ID, dirty bool) int {
	s := m.shardOf(pid)
	var idx int
	switch {
	case len(s.free) > 0:
		idx = int(s.free[len(s.free)-1])
		s.free = s.free[:len(s.free)-1]
	default:
		idx = m.popCleanVictim(s)
		if idx < 0 {
			return -1
		}
		m.stats.Evictions++
		m.freeFrame(idx)
		s.free = s.free[:len(s.free)-1]
	}
	rec := &m.frames[idx]
	rec.pid = pid
	rec.flags |= fOccupied | fValid
	if dirty {
		rec.flags |= fDirty
	}
	rec.last = m.env.Now()
	rec.prev = never
	m.dir[pid] = int32(idx + 1)
	m.occupied++
	if dirty {
		m.dirtyCount++
		s.dirty.touch(idx)
	} else {
		s.clean.touch(idx)
	}
	return idx
}

// popCleanVictim pops the clean-heap LRU-2 victim whose frame is idle,
// re-inserting any busy frames it skipped. Returns -1 if none.
func (m *Manager) popCleanVictim(s *shard) int {
	var busy []int
	victim := -1
	for {
		idx, ok := s.clean.pop()
		if !ok {
			break
		}
		if m.frames[idx].io > 0 {
			busy = append(busy, idx)
			continue
		}
		victim = idx
		break
	}
	for _, idx := range busy {
		s.clean.touch(idx)
	}
	return victim
}

// admit is admitTask for a blocking process.
func (m *Manager) admit(p *sim.Proc, pg *page.Page, dirty bool) (bool, error) {
	return m.awaitHit(p, func(t *sim.Task, k func(bool, error)) { m.admitTask(t, pg, dirty, k) })
}

// finishAdmit resolves a frame write's outcome: on failure the frame's contents
// are unknown, so the entry is dropped and the admission reported as not
// taken — callers fall back to the disk write path for dirty pages, which is
// exactly the no-SSD behaviour. Only whole-device loss propagates as an
// error.
func (m *Manager) finishAdmit(idx int, err error) (bool, error) {
	if err == nil {
		return true, nil
	}
	// Failed attempts were already counted by the write path itself.
	m.noteDeviceErr(err)
	m.dropFrame(idx)
	if m.lost {
		return false, device.ErrLost
	}
	return false, nil
}

// SetCheckpointing tells the manager a sharp checkpoint is in progress; LC
// stops caching new dirty evictions for its duration (§3.2).
func (m *Manager) SetCheckpointing(v bool) { m.checkpointing = v }

// MinDirtyLSN returns the smallest LSN among dirty SSD pages, and whether
// any exist — the SSD side of a fuzzy checkpoint's redo horizon.
func (m *Manager) MinDirtyLSN() (uint64, bool) {
	var min uint64
	found := false
	for i := range m.frames {
		rec := &m.frames[i]
		if !rec.has(fOccupied) || !rec.has(fDirty) {
			continue
		}
		if !found || rec.lsn < min {
			min = rec.lsn
			found = true
		}
	}
	return min, found
}
