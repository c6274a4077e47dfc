// Package ssd implements the paper's SSD manager: the storage-module
// component that uses a flash SSD as a second-level extension of the DBMS
// buffer pool (§2–§3 of "Turbocharging DBMS Buffer Pool Using SSDs",
// SIGMOD 2011).
//
// The manager maintains the five data structures of the paper's Figure 4 —
// the SSD buffer pool (a frame array on the SSD device), the SSD buffer
// table (per-frame records with page id, dirty bit and the last two access
// times), the SSD hash table, the SSD free list, and the clean/dirty heap
// pair used for LRU-2 replacement and lazy cleaning. Page ids are dense, so
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
	"turbobp/internal/policy"
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
// Table 2.
type Config struct {
	Design Design
	// Policy selects the replacement policy of the per-shard clean heaps
	// and, for admission-gating policies (TinyLFU), the admission filter.
	// The zero value is the paper's LRU-2.
	Policy        policy.Kind
	Frames        int           // S: SSD buffer-pool frames
	Partitions    int           // N: shards (§3.3.4)
	FillThreshold float64       // τ: aggressive-filling fraction (§3.3.1)
	Throttle      int           // μ: max pending SSD I/Os (§3.3.2)
	GroupClean    int           // α: max pages per LC cleaning write (§3.3.5)
	DirtyFraction float64       // λ: dirty fraction that wakes the cleaner (§2.3.3)
	PayloadSize   int           // page payload bytes (buffers are header+payload)
	CleanerPoll   time.Duration // cleaner wake-up period
	// Per-access milliseconds saved by an SSD hit, used for TAC extent
	// temperatures: disk minus SSD cost for random and sequential reads.
	RandSavedMs float64
	SeqSavedMs  float64
	// ExtentPages is the TAC temperature granularity (32 in the paper).
	ExtentPages int
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
	// Repair, when set, reconstructs a dirty page whose only copy was
	// corrupt (the engine wires its WAL-redo machinery here). Without it
	// the manager can only drop the frame and count the loss.
	Repair Repairer
}

// Repairer reconstructs a uniquely-dirty page after its SSD frame was
// condemned: the engine implements it with page-granular WAL redo over the
// stale disk version.
type Repairer interface {
	RepairDirtyPage(p *sim.Proc, pid page.ID) error
}

func (c *Config) setDefaults() {
	if c.Partitions <= 0 {
		c.Partitions = 16
	}
	if c.Partitions > c.Frames && c.Frames > 0 {
		c.Partitions = c.Frames
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
	if c.CleanerPoll <= 0 {
		c.CleanerPoll = 20 * time.Millisecond
	}
	if c.ExtentPages <= 0 {
		c.ExtentPages = 32
	}
	if c.RandSavedMs <= 0 {
		c.RandSavedMs = 7.8
	}
	if c.SeqSavedMs < 0 {
		c.SeqSavedMs = 0
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
// pointers are implicit in Go's maps/heaps).
type frameRec struct {
	pid       page.ID
	occupied  bool
	valid     bool // false while occupied = TAC's logical invalidation
	dirty     bool
	io        int    // in-flight device transfers referencing this frame
	lsn       uint64 // LSN of the cached version (guards cleaner races)
	restored  bool   // entry came from a warm-restart table; validate on read
	condemned bool   // contents proven corrupt; free as soon as idle (any design)
	gen       uint64
	last      time.Duration
	prev      time.Duration
	shard     int
}

// shard is one partition of the SSD buffer pool (§3.3.4): its own free
// list and heaps over the frames dealt to it. Frames are dealt round-robin,
// so shard num holds frames num, num+N, num+2N, ...; its LRU-2 heaps key a
// frame by its shard-local number idx / N.
type shard struct {
	num   int               // this shard's index in Manager.shards
	free  []int             // SSD free list
	clean policy.Policy     // clean heap: replacement policy over clean valid frames
	dirty *policy.LRU2Cache // dirty heap: LRU-2 over dirty frames (LC only)
	tac   tacHeap           // TAC replacement heap (temperature order)
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

// heapKey is frame idx's key in its shard's LRU-2 heaps: the shard-local
// frame number.
func (m *Manager) heapKey(idx int) int64 { return int64(idx / len(m.shards)) }

// heapFrame inverts heapKey for shard s.
func (m *Manager) heapFrame(s *shard, key int64) int { return int(key)*len(m.shards) + s.num }

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

	// Per-policy counters, merged from the shard clean policies at read
	// time (see docs: DESIGN.md "Policy layer").
	PolicyGhostHits  int64 // ARC: accesses that hit a ghost list
	PolicySplitPos   int64 // ARC: adaptive-split target, summed over shards (gauge)
	PolicyCleanFirst int64 // CFLRU: victims chosen over an older dirty entry
	PolicyAdmitRej   int64 // TinyLFU: admissions refused by the frequency filter
}

// Add returns the fieldwise sum of s and o; DB.Stats uses it to fold its
// partitions' SSD managers into one total. A reflection test keeps it in
// sync with the struct.
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.ThrottleReads += o.ThrottleReads
	s.ThrottleWrites += o.ThrottleWrites
	s.Admissions += o.Admissions
	s.DirtyAdmits += o.DirtyAdmits
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.Revalidations += o.Revalidations
	s.CleanerRuns += o.CleanerRuns
	s.CleanerPages += o.CleanerPages
	s.CleanerWrites += o.CleanerWrites
	s.CheckpointPgs += o.CheckpointPgs
	s.TACAborts += o.TACAborts
	s.ReadErrors += o.ReadErrors
	s.WriteErrors += o.WriteErrors
	s.ReadRetries += o.ReadRetries
	s.WriteRetries += o.WriteRetries
	s.CorruptDetected += o.CorruptDetected
	s.CorruptRepaired += o.CorruptRepaired
	s.CorruptDirty += o.CorruptDirty
	s.ScrubSweeps += o.ScrubSweeps
	s.ScrubFrames += o.ScrubFrames
	s.ScrubRepairs += o.ScrubRepairs
	s.Retired += o.Retired
	s.Quarantines += o.Quarantines
	s.PolicyGhostHits += o.PolicyGhostHits
	s.PolicySplitPos += o.PolicySplitPos
	s.PolicyCleanFirst += o.PolicyCleanFirst
	s.PolicyAdmitRej += o.PolicyAdmitRej
	return s
}

// Manager is the SSD manager.
type Manager struct {
	env    *sim.Env
	dev    device.Device
	disk   Disk
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

	// Per-slot verification-failure counters and the retired set. These
	// live outside frameRec so they survive freeFrame: a bad cell keeps
	// its history across reuse by different pages.
	slotBad []uint8
	retired []bool

	dir   []int32   // SSD hash table: page id -> frame index + 1; 0 = not cached
	temps []float64 // TAC extent temperatures, by extent number

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
// that caches pages with ids in [0, pages).
func NewManager(env *sim.Env, dev device.Device, disk Disk, pages int, cfg Config) *Manager {
	cfg.setDefaults()
	m := &Manager{
		env:     env,
		dev:     dev,
		disk:    disk,
		cfg:     cfg,
		frames:  make([]frameRec, cfg.Frames),
		slotBad: make([]uint8, cfg.Frames),
		retired: make([]bool, cfg.Frames),
	}
	m.fillTarget = int(cfg.FillThreshold * float64(cfg.Frames))
	n := cfg.Partitions
	if cfg.Frames == 0 {
		n = 1
	}
	if m.Enabled() {
		m.dir = make([]int32, pages)
		if cfg.Design == TAC {
			m.temps = make([]float64, (pages+cfg.ExtentPages-1)/cfg.ExtentPages)
		}
	}
	m.shards = make([]shard, n)
	perShard := cfg.Frames/n + 1
	for i := range m.shards {
		m.shards[i] = shard{
			num:   i,
			clean: policy.New(cfg.Policy, perShard, perShard),
			dirty: policy.NewLRU2(perShard),
		}
	}
	// Deal frames to shards round-robin so shard capacities differ by at
	// most one.
	for i := range m.frames {
		s := i % n
		m.frames[i].shard = s
		m.shards[s].free = append(m.shards[s].free, i)
	}
	return m
}

// Config returns the effective configuration (defaults applied).
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a copy of the counters, with the per-shard clean
// policies' decision counters merged in.
func (m *Manager) Stats() Stats {
	s := m.stats
	for i := range m.shards {
		ps := m.shards[i].clean.Stats()
		s.PolicyGhostHits += ps.GhostHits
		s.PolicySplitPos += ps.SplitPos
		s.PolicyCleanFirst += ps.CleanFirstEvict
		s.PolicyAdmitRej += ps.AdmitRejects
	}
	return s
}

// cleanKey is the clean-policy key for frame idx: its heapKey under LRU2
// — preserving the (prev, last, frame index) tie-break order exactly —
// and the page id under the adaptive policies, so ARC's ghost lists and
// TinyLFU's sketch track pages across frame reuse.
func (m *Manager) cleanKey(idx int) int64 {
	if m.cfg.Policy == policy.LRU2 {
		return m.heapKey(idx)
	}
	return int64(m.frames[idx].pid)
}

// victimFrame resolves a clean-policy victim key back to a frame index.
func (m *Manager) victimFrame(s *shard, key int64) (int, bool) {
	if m.cfg.Policy == policy.LRU2 {
		return m.heapFrame(s, key), true
	}
	return m.lookup(page.ID(key))
}

// recordAccess feeds one lookup (hit or miss) to the shard policy's
// frequency filter, when it keeps one (TinyLFU). Everything else is a
// no-op: the type assertion fails for the list-based policies.
func (m *Manager) recordAccess(s *shard, pid page.ID) {
	if r, ok := s.clean.(policy.Recorder); ok {
		r.Record(int64(pid))
	}
}

// freqAdmit applies the replacement policy's admission gate (TinyLFU's
// doorkeeper/sketch) to pid. Non-gating policies always pass, as does
// the aggressive-filling phase — below τ the SSD wants bytes, not
// selectivity.
func (m *Manager) freqAdmit(s *shard, pid page.ID) bool {
	if m.cfg.Policy == policy.LRU2 || m.aggressiveFill() {
		return true
	}
	return s.clean.Admit(int64(pid), m.env.Now())
}

// admits combines the §3.3.1 admission policy (Qualifies) with the
// replacement policy's frequency gate for pid.
func (m *Manager) admits(pid page.ID, random bool) bool {
	return m.Qualifies(random) && m.freqAdmit(m.shardOf(pid), pid)
}

// Enabled reports whether the manager caches anything.
func (m *Manager) Enabled() bool {
	return m.cfg.Design != NoSSD && m.cfg.Frames > 0
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
		if m.frames[i].occupied && !m.frames[i].valid {
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
	return ok && m.frames[idx].valid
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

func (e *DirtyCorruptError) Error() string {
	return fmt.Sprintf("ssd: dirty frame for page %d corrupt: %v", e.PID, e.Err)
}

func (e *DirtyCorruptError) Unwrap() error { return e.Err }

// Quarantined reports whether the SSD has been demoted to pass-through
// after too many retired slots.
func (m *Manager) Quarantined() bool { return m.quarantined }

// RetiredSlots returns the number of permanently retired frame slots.
func (m *Manager) RetiredSlots() int {
	n := 0
	for _, r := range m.retired {
		if r {
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
	if !ok || !m.frames[idx].valid {
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
		if rec.occupied && rec.valid && !rec.dirty {
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
	if !rec.occupied {
		return
	}
	s := &m.shards[rec.shard]
	if rec.dirty {
		rec.dirty = false
		m.dirtyCount--
		s.dirty.Remove(m.heapKey(idx))
	}
	s.clean.Remove(m.cleanKey(idx))
	rec.valid = false
	rec.condemned = true
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
	if m.slotBad[idx] < 0xFF {
		m.slotBad[idx]++
	}
	if !m.retired[idx] && int(m.slotBad[idx]) >= m.cfg.RetireAfter {
		m.retired[idx] = true
		m.stats.Retired++
		if !m.quarantined && m.RetiredSlots() >= m.cfg.QuarantineAfter {
			m.quarantined = true
			m.stats.Quarantines++
		}
	}
	return m.retired[idx]
}

// DirtyPageIDs returns, sorted, the ids of pages whose only up-to-date copy
// lives on the SSD (valid dirty frames — possible only under LC). After an
// SSD loss this is exactly the set recovery must rebuild from the WAL.
func (m *Manager) DirtyPageIDs() []page.ID {
	var ids []page.ID
	for i := range m.frames {
		rec := &m.frames[i]
		if rec.occupied && rec.valid && rec.dirty {
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
	if !rec.occupied {
		return
	}
	s := &m.shards[rec.shard]
	if rec.dirty {
		rec.dirty = false
		m.dirtyCount--
		s.dirty.Remove(m.heapKey(idx))
	}
	s.clean.Remove(m.cleanKey(idx))
	rec.valid = false
	m.frameIdle(idx)
}

// IsDirty reports whether the cached copy of pid is newer than the disk
// version (possible only under LC).
func (m *Manager) IsDirty(pid page.ID) bool {
	if !m.Enabled() {
		return false
	}
	idx, ok := m.lookup(pid)
	return ok && m.frames[idx].valid && m.frames[idx].dirty
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
		if rec.dirty {
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
	if !rec.occupied || rec.pid != pid || !rec.valid || rec.lsn != wantLSN {
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
		if rec.restored {
			// Warm-restart entries are hints: the frame was reused for a
			// different page between the checkpoint that recorded the
			// table and the crash. Drop the stale entry and miss.
			rec.valid = false
			m.frameIdle(idx)
			m.stats.Misses++
			return false, nil
		}
		if ce := (*page.ChecksumError)(nil); errors.As(decodeErr, &ce) {
			ce.ID, ce.Device, ce.Slot = pid, "ssd", int64(idx)
		}
		wasDirty := rec.dirty
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
	if rec.restored {
		// A restored entry's expected LSN was unknown until now; adopt the
		// verified stored LSN so later reads can cross-check it.
		rec.lsn = got.LSN
	}
	rec.restored = false // content verified against the hash table entry
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
	s := &m.shards[rec.shard]
	if m.cfg.Design == TAC {
		return // TAC replaces by temperature, not recency
	}
	if rec.dirty {
		s.dirty.TouchHistory(m.heapKey(idx), rec.last, rec.prev)
	} else {
		s.clean.TouchHistory(m.cleanKey(idx), rec.last, rec.prev)
	}
}

// frameIdle finishes deferred reclamation: a frame invalidated while a
// device transfer was in flight is freed once the last transfer completes.
// Condemned frames are freed under every design, including TAC.
func (m *Manager) frameIdle(idx int) {
	rec := &m.frames[idx]
	if rec.io == 0 && rec.occupied && !rec.valid && (m.cfg.Design != TAC || rec.condemned) {
		m.freeFrame(idx)
	}
}

// freeFrame returns an occupied frame to its shard's free list — unless the
// slot has been retired, in which case the frame is emptied but stays out
// of service permanently.
func (m *Manager) freeFrame(idx int) {
	rec := &m.frames[idx]
	if !rec.occupied {
		panic("ssd: freeing unoccupied frame")
	}
	s := &m.shards[rec.shard]
	m.dir[rec.pid] = 0
	s.clean.Remove(m.cleanKey(idx))
	s.dirty.Remove(m.heapKey(idx))
	if rec.dirty {
		m.dirtyCount--
	}
	rec.occupied = false
	rec.valid = false
	rec.dirty = false
	rec.restored = false
	rec.condemned = false
	rec.pid = 0
	rec.gen++ // invalidates stale TAC heap entries for this frame
	m.occupied--
	if m.retired[idx] {
		return
	}
	s.free = append(s.free, idx)
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
	if !rec.valid {
		return
	}
	m.stats.Invalidations++
	if m.cfg.Design == TAC {
		rec.valid = false // logical invalidation: frame stays occupied
		return
	}
	rec.valid = false
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
		idx = s.free[len(s.free)-1]
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
	rec.occupied = true
	rec.valid = true
	rec.dirty = dirty
	rec.last = m.env.Now()
	rec.prev = policy.Never()
	m.dir[pid] = int32(idx + 1)
	m.occupied++
	if dirty {
		m.dirtyCount++
		s.dirty.TouchHistory(m.heapKey(idx), rec.last, rec.prev)
	} else {
		s.clean.TouchHistory(m.cleanKey(idx), rec.last, rec.prev)
	}
	return idx
}

// popCleanVictim pops the clean-heap LRU-2 victim whose frame is idle,
// re-inserting any busy frames it skipped. Returns -1 if none.
func (m *Manager) popCleanVictim(s *shard) int {
	var busy []int
	victim := -1
	for {
		key, ok := s.clean.Pop()
		if !ok {
			break
		}
		idx, ok := m.victimFrame(s, key)
		if !ok {
			continue // pid-keyed policy invariant breach; drop the stale key
		}
		if m.frames[idx].io > 0 {
			busy = append(busy, idx)
			continue
		}
		victim = idx
		break
	}
	for _, idx := range busy {
		rec := &m.frames[idx]
		s.clean.TouchHistory(m.cleanKey(idx), rec.last, rec.prev)
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
		if !rec.occupied || !rec.dirty {
			continue
		}
		if !found || rec.lsn < min {
			min = rec.lsn
			found = true
		}
	}
	return min, found
}
