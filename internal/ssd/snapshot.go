package ssd

import (
	"encoding/binary"
	"fmt"

	"turbobp/internal/page"
	"turbobp/internal/policy"
)

// This file implements the paper's §6 future-work direction: "No design
// to-date leverages the data in the SSD during system restart, and as a
// result, it takes a very long time to warm-up the SSD". The fix the
// paper sketches in §4.1.2 is to add the SSD buffer table to the
// checkpoint record; restart can then reuse every clean SSD page.
//
// SnapshotTable serializes the buffer table's valid clean entries (taken
// at the end of a sharp checkpoint, when no dirty SSD pages remain) and
// RestoreTable rebuilds a fresh manager's metadata over the surviving SSD
// device contents. Correctness rests on the WAL protocol: any page whose
// SSD copy could be stale after the checkpoint has durable log records
// (pages are never written below a forced log), and redo invalidates the
// SSD copy of every page it touches — so stale entries are purged during
// recovery exactly like stale memory pages.

// TableEntry is one persisted SSD buffer table record.
type TableEntry struct {
	Frame int
	Pid   page.ID
}

// TableEntrySize is the serialized size of a TableEntry.
const TableEntrySize = 12

// SnapshotTable returns the serialized buffer table: every valid, clean,
// occupied frame. Call it after FlushDirty during a checkpoint.
func (m *Manager) SnapshotTable() []byte {
	if !m.Enabled() {
		return nil
	}
	var out []byte
	var buf [TableEntrySize]byte
	for i := range m.frames {
		rec := &m.frames[i]
		if !rec.has(fOccupied) || !rec.has(fValid) || rec.has(fDirty) {
			continue
		}
		binary.LittleEndian.PutUint32(buf[0:4], uint32(i))
		binary.LittleEndian.PutUint64(buf[4:12], uint64(rec.pid))
		out = append(out, buf[:]...)
	}
	return out
}

// RestoreTable rebuilds the manager's metadata from a SnapshotTable blob,
// assuming the SSD device contents survived the restart. It must be
// called on a freshly-constructed manager. The blob is read from the log,
// so entries that do not fit (a frame or page id out of range or a frame
// outside its page's shard after a reconfiguration, a frame or page named
// twice) are skipped.
func (m *Manager) RestoreTable(blob []byte) error {
	if !m.Enabled() || len(blob) == 0 {
		return nil
	}
	if len(blob)%TableEntrySize != 0 {
		return fmt.Errorf("ssd: snapshot blob of %d bytes is not a whole number of entries", len(blob))
	}
	if m.occupied != 0 {
		return fmt.Errorf("ssd: RestoreTable on a non-empty manager (%d occupied)", m.occupied)
	}
	now := m.env.Now()
	for off := 0; off < len(blob); off += TableEntrySize {
		idx := int(binary.LittleEndian.Uint32(blob[off : off+4]))
		pid := page.ID(binary.LittleEndian.Uint64(blob[off+4 : off+12]))
		if idx < 0 || idx >= len(m.frames) || pid < 0 || pid >= page.ID(len(m.dir)) {
			continue
		}
		rec := &m.frames[idx]
		if rec.has(fOccupied) {
			continue // duplicate frame in a corrupt blob
		}
		if _, dup := m.lookup(pid); dup {
			continue
		}
		if m.shardOf(pid) != m.frameShard(idx) {
			continue // the frame is not in the page's shard: another N wrote it
		}
		rec.pid = pid
		rec.flags |= fOccupied | fValid | fRestored // restored: a hint only, validated at first read
		rec.last = now
		rec.prev = policy.Never()
		m.dir[pid] = int32(idx + 1)
		m.occupied++
		if m.cfg.Design == TAC {
			m.pushTac(idx)
		} else {
			m.frameShard(idx).clean.touch(idx)
		}
	}
	// Take the restored frames off their free lists, keeping the order of
	// the rest.
	for i := range m.shards {
		s := &m.shards[i]
		free := s.free[:0]
		for _, idx := range s.free {
			if !m.frames[idx].has(fOccupied) {
				free = append(free, idx)
			}
		}
		s.free = free
	}
	return nil
}
