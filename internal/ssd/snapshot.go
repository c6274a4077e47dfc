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
		if !rec.occupied || !rec.valid || rec.dirty {
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
// called on a freshly-constructed manager. Entries that no longer fit
// (frame out of range after a reconfiguration) are skipped.
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
		if idx < 0 || idx >= len(m.frames) {
			continue
		}
		rec := &m.frames[idx]
		if rec.occupied {
			continue // duplicate frame in a corrupt blob
		}
		s := &m.shards[rec.shard]
		if _, dup := s.lookup(pid); dup {
			continue
		}
		// Remove idx from the shard free list.
		for i, free := range s.free {
			if free == idx {
				s.free = append(s.free[:i], s.free[i+1:]...)
				break
			}
		}
		rec.pid = pid
		rec.occupied = true
		rec.valid = true
		rec.dirty = false
		rec.restored = true // hint only: content is validated at first read
		rec.last = now
		rec.prev = policy.Never()
		s.table.Put(uint64(pid), int32(idx))
		m.occupied++
		if m.cfg.Design == TAC {
			m.pushTac(idx)
		} else {
			s.clean.TouchHistory(m.cleanKey(idx), rec.last, rec.prev)
		}
	}
	return nil
}
