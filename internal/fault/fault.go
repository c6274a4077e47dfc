// Package fault is the deterministic fault-injection layer of the storage
// engine: it wraps any device backend (simulated or file) and injects
// read/write I/O errors, torn page writes and whole-device loss, and it
// fires crash points at named sites inside the engine (pre/post WAL flush,
// mid-checkpoint, mid-lazy-clean).
//
// Everything is seed-driven and count-based — a fault fires on the Nth
// operation or the Nth visit to a site, never on wall-clock time or global
// randomness — so a faulted run is exactly reproducible and byte-identical
// across serial and parallel harness executions. The `bpesim faults`
// experiment and the recovery tests build their crash/recover matrices on
// this package; docs/FAILURES.md documents the failure model the injector
// exercises.
//
// An Injector is not safe for concurrent use from OS threads; like the rest
// of the engine it relies on the simulation kernel's serialization (one
// runnable process at a time per Env). Use one Injector per engine.
package fault

import (
	"errors"
	"fmt"

	"turbobp/internal/device"
)

// Site names a crash point inside the engine. The engine calls
// Injector.At(site) at each site; when an armed site fires, the surrounding
// operation returns ErrCrashPoint and the test driver simulates the crash.
type Site string

// The crash-point catalog (see docs/FAILURES.md for the state each site
// leaves behind).
const (
	// SitePreWALFlush fires in Commit before the log force: the committing
	// transaction's records may be entirely lost.
	SitePreWALFlush Site = "pre-wal-flush"
	// SitePostWALFlush fires in Commit after the log force but before the
	// caller observes success: the transaction is durable yet unacknowledged.
	SitePostWALFlush Site = "post-wal-flush"
	// SiteMidCheckpoint fires after a sharp checkpoint has flushed every
	// dirty page but before the checkpoint record is logged: recovery must
	// fall back to the previous checkpoint.
	SiteMidCheckpoint Site = "mid-checkpoint"
	// SitePostCheckpoint fires after the checkpoint record is durable and
	// the log truncated: recovery starts from the brand-new checkpoint.
	SitePostCheckpoint Site = "post-checkpoint"
	// SiteMidLazyClean fires inside the LC cleaner between reading a dirty
	// run from the SSD and writing it to disk: the SSD keeps the only
	// up-to-date copies. The cleaner cannot return an error to a caller, so
	// firing this site stops the cleaner and latches Fired; drivers poll
	// Fired() and crash the engine.
	SiteMidLazyClean Site = "mid-lazy-clean"
)

// ErrCrashPoint is returned by engine operations interrupted by an armed
// crash site. The caller owning the fault schedule is expected to crash and
// recover the engine; every other error path treats it as fatal.
var ErrCrashPoint = errors.New("fault: crash point reached")

// ErrInjectedIO is the transient I/O error injected by ErrorRead/ErrorWrite.
// The engine must degrade (fall back to disk, retry, or drop the optional
// SSD traffic) without losing committed data.
var ErrInjectedIO = errors.New("fault: injected I/O error")

// devPlan is the per-device-name fault schedule. Operation counters live
// here, not on the wrapper, so they keep counting across a device
// replacement (RecoverSSDLoss re-wraps the replacement under the same name).
type devPlan struct {
	name      string
	readErrs  map[int]bool // read index -> inject ErrInjectedIO
	writeErrs map[int]bool // write index -> inject ErrInjectedIO
	tears     map[int]int  // write index -> bytes persisted before the tear
	loseAt    int          // total-op count that kills the device; -1 = never
	lossDone  bool         // the loss already fired (one-shot)
	cur       *Device      // the wrapper currently carrying this name

	// Silent faults: the operation succeeds, the bytes lie.
	rot       map[int64]uint // slot -> flipped bit, applied to every read until the slot is rewritten
	sticky    map[int64]uint // slot -> bit that re-arms after every write (a failing cell)
	rotOnRead map[int]bool   // read index -> plant rot on the first slot that read touches
	misdirect map[int]int64  // write index -> slot delta (payload lands at slot+delta)

	reads, writes, ops int
}

// Injector owns a fault schedule: armed crash sites and per-device fault
// plans. The zero value is unusable; call New. A nil *Injector is valid for
// every method that the engine hot path calls (At, Fired), so engines built
// without fault injection pay only a nil check.
type Injector struct {
	state uint64 // splitmix64 PRNG state

	crashSite Site
	crashNth  int // remaining visits before the site fires
	fired     bool
	firedSite Site
	hits      map[Site]int

	plans  map[string]*devPlan
	events []string
}

// New returns an injector seeded with seed (0 is replaced by 1 so the PRNG
// never sticks at zero).
func New(seed uint64) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		state: seed,
		hits:  make(map[Site]int),
		plans: make(map[string]*devPlan),
	}
}

// DeriveSeed derives a per-partition injector seed from a DB-level seed
// (one splitmix64 step over seed and the partition index), so a partitioned
// run replays deterministically from a single Options.FaultSeed while each
// partition's injector draws an independent stream.
func DeriveSeed(seed, index uint64) uint64 {
	z := seed + (index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Rand returns the next value of the injector's deterministic PRNG
// (splitmix64). Fault schedules that want "random" operation indices derive
// them from here so the whole run replays from one seed.
func (in *Injector) Rand() uint64 {
	in.state += 0x9E3779B97F4A7C15
	z := in.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ArmCrash arms site to fire at its nth upcoming visit (nth >= 1; 1 means
// the very next visit). Arming replaces any previously armed site and
// re-enables firing.
func (in *Injector) ArmCrash(site Site, nth int) {
	if nth < 1 {
		nth = 1
	}
	in.crashSite = site
	in.crashNth = nth
	in.fired = false
}

// At reports whether the crash point at site fires now. Every call counts a
// visit; the armed site fires exactly once, on its nth visit after arming.
// Safe on a nil receiver (never fires).
func (in *Injector) At(site Site) bool {
	if in == nil {
		return false
	}
	in.hits[site]++
	if in.fired || site != in.crashSite || in.crashNth <= 0 {
		return false
	}
	in.crashNth--
	if in.crashNth > 0 {
		return false
	}
	in.fired = true
	in.firedSite = site
	in.events = append(in.events, fmt.Sprintf("crash point %s fired (visit %d)", site, in.hits[site]))
	return true
}

// Fired reports whether the armed crash site has fired. Safe on nil.
func (in *Injector) Fired() bool { return in != nil && in.fired }

// FiredSite returns the site that fired, or "" if none has.
func (in *Injector) FiredSite() Site {
	if in == nil {
		return ""
	}
	return in.firedSite
}

// Hits returns how many times site has been visited.
func (in *Injector) Hits(site Site) int {
	if in == nil {
		return 0
	}
	return in.hits[site]
}

// planFor returns (creating if needed) the fault plan for a device name.
func (in *Injector) planFor(name string) *devPlan {
	pl, ok := in.plans[name]
	if !ok {
		pl = &devPlan{
			name:      name,
			readErrs:  make(map[int]bool),
			writeErrs: make(map[int]bool),
			tears:     make(map[int]int),
			rot:       make(map[int64]uint),
			sticky:    make(map[int64]uint),
			rotOnRead: make(map[int]bool),
			misdirect: make(map[int]int64),
			loseAt:    -1,
		}
		in.plans[name] = pl
	}
	return pl
}

// Wrap returns dev wrapped with this injector's fault plan for name. The
// engine wraps its devices as "db", "ssd" and "wal"; schedules armed for a
// name apply to whichever device currently carries it (a replacement SSD
// wrapped under "ssd" continues the same operation count).
func (in *Injector) Wrap(name string, dev device.Device) *Device {
	pl := in.planFor(name)
	d := &Device{in: in, name: name, plan: pl, inner: dev}
	pl.cur = d
	return d
}

// FailDeviceAfter schedules whole-device loss: once the named device has
// performed ops operations (reads + writes), every subsequent operation
// returns device.ErrLost. The loss is one-shot — after the engine replaces
// the device (Device.Replace), it stays healthy unless re-armed.
func (in *Injector) FailDeviceAfter(name string, ops int) {
	pl := in.planFor(name)
	pl.loseAt = ops
	pl.lossDone = false
}

// FailDeviceNow makes the named device's very next operation (and all that
// follow) return device.ErrLost.
func (in *Injector) FailDeviceNow(name string) { in.FailDeviceAfter(name, 0) }

// ErrorRead injects ErrInjectedIO on the named device's index-th read
// (0-based, counted per name across replacements).
func (in *Injector) ErrorRead(name string, index int) {
	in.planFor(name).readErrs[index] = true
}

// ErrorWrite injects ErrInjectedIO on the named device's index-th write.
func (in *Injector) ErrorWrite(name string, index int) {
	in.planFor(name).writeErrs[index] = true
}

// TearWrite schedules a torn write: the named device's index-th write
// persists only the first keepBytes bytes of the request. The torn page's
// unwritten remainder reads back as zeros (the behaviour of a preallocated,
// zero-filled file or a trimmed flash page) and pages after it are not
// written at all. The write itself reports success — the tear is only
// discoverable later, through checksums, exactly like a real power-cut tear.
func (in *Injector) TearWrite(name string, index, keepBytes int) {
	if keepBytes < 0 {
		keepBytes = 0
	}
	in.planFor(name).tears[index] = keepBytes
}

// RotSlot plants silent bit rot in the named device's slot: every read
// covering the slot returns the stored bytes with bit `bit` of the page
// image flipped. The read reports success — the damage is only visible to
// checksums. Rot persists until the slot is next written (fresh data
// replaces the decayed cell), unless made sticky.
func (in *Injector) RotSlot(name string, slot int64, bit uint) {
	in.planFor(name).rot[slot] = bit
	in.note("device %s slot %d rotted (bit %d)", name, slot, bit)
}

// RotSlotSticky plants rot that survives rewrites — a failing cell: every
// write to the slot is immediately re-corrupted, so the slot never reads
// back clean again. This is the fault that drives slot retirement and,
// past the threshold, SSD quarantine.
func (in *Injector) RotSlotSticky(name string, slot int64, bit uint) {
	pl := in.planFor(name)
	pl.rot[slot] = bit
	pl.sticky[slot] = bit
	in.note("device %s slot %d rotted sticky (bit %d)", name, slot, bit)
}

// RotOnRead schedules wear-driven decay: the named device's index-th read
// (0-based) plants rot on the first slot it touches, with the flipped bit
// drawn from the injector's PRNG. That same read already returns the
// decayed bytes.
func (in *Injector) RotOnRead(name string, index int) {
	in.planFor(name).rotOnRead[index] = true
}

// MisdirectWrite redirects the named device's index-th write (0-based) by
// delta slots: the payload lands at slot+delta, the intended slot keeps its
// stale bytes, and the write reports success — the classic misdirected
// write, detectable only by the self-identifying page header.
func (in *Injector) MisdirectWrite(name string, index int, delta int64) {
	if delta == 0 {
		delta = 1
	}
	in.planFor(name).misdirect[index] = delta
}

// Writes returns how many writes the named device has performed, so fault
// schedules can arm count-based faults relative to "now".
func (in *Injector) Writes(name string) int {
	if in == nil {
		return 0
	}
	pl, ok := in.plans[name]
	if !ok {
		return 0
	}
	return pl.writes
}

// Reads returns how many reads the named device has performed, the read-side
// twin of Writes (arming RotOnRead or read errors relative to "now").
func (in *Injector) Reads(name string) int {
	if in == nil {
		return 0
	}
	pl, ok := in.plans[name]
	if !ok {
		return 0
	}
	return pl.reads
}

// Events returns a human-readable trace of the faults that fired, in order.
func (in *Injector) Events() []string {
	if in == nil {
		return nil
	}
	return append([]string(nil), in.events...)
}

// DeviceLost reports whether the named device is currently lost (the loss
// fired and no replacement has been installed).
func (in *Injector) DeviceLost(name string) bool {
	if in == nil {
		return false
	}
	pl, ok := in.plans[name]
	return ok && pl.cur != nil && pl.cur.lost
}

func (in *Injector) note(format string, args ...interface{}) {
	in.events = append(in.events, fmt.Sprintf(format, args...))
}
