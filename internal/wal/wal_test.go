package wal

import (
	"testing"
	"time"

	"turbobp/internal/device"
	"turbobp/internal/page"
	"turbobp/internal/sim"
)

func newTestLog(env *sim.Env) (*Log, *device.HDD) {
	dev := device.NewHDD(env, device.PaperHDDProfile(), 1<<20)
	return New(env, dev, 8192, 1<<20), dev
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	env := sim.NewEnv()
	l, _ := newTestLog(env)
	a := l.Append(Record{Type: TypeUpdate, Page: 1})
	b := l.Append(Record{Type: TypeUpdate, Page: 2})
	if a != 1 || b != 2 {
		t.Errorf("LSNs = %d,%d want 1,2", a, b)
	}
	if l.NextLSN() != 3 {
		t.Errorf("NextLSN = %d", l.NextLSN())
	}
}

func TestFlushMakesDurable(t *testing.T) {
	env := sim.NewEnv()
	l, dev := newTestLog(env)
	env.Go("t", func(p *sim.Proc) {
		lsn := l.Append(Record{Type: TypeUpdate, Page: 5, Payload: []byte("x")})
		if l.FlushedLSN() != 0 {
			t.Error("durable before flush")
		}
		l.Flush(p, lsn)
		if l.FlushedLSN() != lsn {
			t.Errorf("FlushedLSN = %d, want %d", l.FlushedLSN(), lsn)
		}
		if len(l.Durable()) != 1 {
			t.Errorf("durable count = %d", len(l.Durable()))
		}
	})
	env.Run(-1)
	if dev.Stats().WriteOps != 1 {
		t.Errorf("log device writes = %d, want 1", dev.Stats().WriteOps)
	}
}

func TestFlushBatchesGroupCommit(t *testing.T) {
	env := sim.NewEnv()
	l, dev := newTestLog(env)
	env.Go("t", func(p *sim.Proc) {
		var last uint64
		for i := 0; i < 100; i++ {
			last = l.Append(Record{Type: TypeUpdate, Page: page.ID(i), Payload: make([]byte, 64)})
		}
		l.Flush(p, last)
	})
	env.Run(-1)
	if got := dev.Stats().WriteOps; got != 1 {
		t.Errorf("one flush issued %d write ops, want 1", got)
	}
	if got := dev.Stats().WritePages; got != 2 {
		// 100 * (64+32) bytes = 9600 bytes = 2 pages of 8192.
		t.Errorf("flushed %d pages, want 2", got)
	}
}

func TestFlushUpToAlreadyDurableIsFree(t *testing.T) {
	env := sim.NewEnv()
	l, dev := newTestLog(env)
	env.Go("t", func(p *sim.Proc) {
		lsn := l.Append(Record{Type: TypeUpdate, Page: 1})
		l.Flush(p, lsn)
		before := dev.Stats().WriteOps
		l.Flush(p, lsn)
		l.Flush(p, 0)
		if dev.Stats().WriteOps != before {
			t.Error("redundant flush wrote to the device")
		}
	})
	env.Run(-1)
}

func TestConcurrentFlushesCoalesce(t *testing.T) {
	env := sim.NewEnv()
	l, dev := newTestLog(env)
	var lsns [5]uint64
	for i := range lsns {
		lsns[i] = l.Append(Record{Type: TypeCommit, TxID: uint64(i)})
	}
	for i := range lsns {
		i := i
		env.Go("committer", func(p *sim.Proc) {
			l.Flush(p, lsns[i])
			if l.FlushedLSN() < lsns[i] {
				t.Errorf("committer %d resumed before its LSN was durable", i)
			}
		})
	}
	env.Run(-1)
	if got := dev.Stats().WriteOps; got != 1 {
		t.Errorf("5 concurrent commits issued %d writes, want 1 (group commit)", got)
	}
}

func TestCrashDropsPending(t *testing.T) {
	env := sim.NewEnv()
	l, _ := newTestLog(env)
	env.Go("t", func(p *sim.Proc) {
		l.Append(Record{Type: TypeUpdate, Page: 1})
		lsn := l.Append(Record{Type: TypeUpdate, Page: 2})
		l.Flush(p, lsn)
		// Never flushed; three pages long, so a flush that still counted
		// its bytes would write four pages.
		l.Append(Record{Type: TypeUpdate, Page: 3, Payload: make([]byte, 3*8192)})
	})
	env.Run(-1)
	l.Crash()
	if len(l.Durable()) != 2 {
		t.Errorf("durable = %d records after crash, want 2", len(l.Durable()))
	}
	if n := len(l.PendingRecords()); n != 0 {
		t.Errorf("%d pending records survived crash", n)
	}
	_, _, before := l.Stats()
	env.Go("t", func(p *sim.Proc) { l.Flush(p, l.Append(Record{Type: TypeUpdate, Page: 4})) })
	env.Run(-1)
	if _, _, after := l.Stats(); after-before != 1 {
		t.Errorf("first flush after crash wrote %d pages, want 1: pending bytes survived crash", after-before)
	}
}

func TestLastCheckpoint(t *testing.T) {
	env := sim.NewEnv()
	l, _ := newTestLog(env)
	env.Go("t", func(p *sim.Proc) {
		if _, ok := l.LastCheckpoint(); ok {
			t.Error("checkpoint found in empty log")
		}
		l.Append(Record{Type: TypeUpdate, Page: 1})
		l.Append(Record{Type: TypeCheckpoint, StartLSN: 1})
		l.Append(Record{Type: TypeUpdate, Page: 2})
		last := l.Append(Record{Type: TypeCheckpoint, StartLSN: 3})
		l.Flush(p, last)
		cp, ok := l.LastCheckpoint()
		if !ok || cp.StartLSN != 3 {
			t.Errorf("LastCheckpoint = %+v, %v", cp, ok)
		}
	})
	env.Run(-1)
}

func TestTruncateThrough(t *testing.T) {
	env := sim.NewEnv()
	l, _ := newTestLog(env)
	env.Go("t", func(p *sim.Proc) {
		var last uint64
		for i := 0; i < 10; i++ {
			last = l.Append(Record{Type: TypeUpdate, Page: page.ID(i)})
		}
		l.Flush(p, last)
	})
	env.Run(-1)
	l.TruncateThrough(6)
	d := l.Durable()
	if len(d) != 4 || d[0].LSN != 7 {
		t.Errorf("after truncate: %d records, first LSN %d; want 4, 7", len(d), d[0].LSN)
	}
}

func TestLogWrapsAtCapacity(t *testing.T) {
	env := sim.NewEnv()
	dev := device.NewHDD(env, device.PaperHDDProfile(), 4)
	l := New(env, dev, 8192, 4)
	env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			lsn := l.Append(Record{Type: TypeUpdate, Page: 1, Payload: make([]byte, 8000)})
			l.Flush(p, lsn) // each flush is one page; position must wrap
		}
	})
	env.Run(-1)
	if got := dev.Stats().WriteOps; got != 10 {
		t.Errorf("writes = %d, want 10", got)
	}
}

func TestFlushChargesSequentialTime(t *testing.T) {
	env := sim.NewEnv()
	prof := device.Profile{RandRead: 10 * time.Millisecond, SeqRead: time.Millisecond,
		RandWrite: 10 * time.Millisecond, SeqWrite: time.Millisecond}
	dev := device.NewHDD(env, prof, 1000)
	l := New(env, dev, 8192, 1000)
	var t1, t2 time.Duration
	env.Go("t", func(p *sim.Proc) {
		lsn := l.Append(Record{Type: TypeUpdate, Page: 1})
		l.Flush(p, lsn)
		t1 = p.Now()
		lsn = l.Append(Record{Type: TypeUpdate, Page: 2})
		l.Flush(p, lsn)
		t2 = p.Now()
	})
	env.Run(-1)
	if t1 != 10*time.Millisecond {
		t.Errorf("first flush took %v, want 10ms (seek)", t1)
	}
	if t2-t1 != time.Millisecond {
		t.Errorf("second flush took %v, want 1ms (sequential)", t2-t1)
	}
}

func TestStats(t *testing.T) {
	env := sim.NewEnv()
	l, _ := newTestLog(env)
	env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			lsn := l.Append(Record{Type: TypeUpdate, Page: 1})
			l.Flush(p, lsn)
		}
	})
	env.Run(-1)
	appends, flushes, pages := l.Stats()
	if appends != 3 || flushes != 3 || pages != 3 {
		t.Errorf("stats = %d/%d/%d, want 3/3/3", appends, flushes, pages)
	}
}

func TestAppendStampsVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	l, _ := newTestLog(env)
	env.Run(7 * time.Millisecond)
	l.Append(Record{Type: TypeUpdate, Page: 1})
	env.Go("flusher", func(p *sim.Proc) { l.Flush(p, 1) })
	env.Run(-1)
	d := l.Durable()
	if len(d) != 1 || d[0].At != 7*time.Millisecond {
		t.Fatalf("durable = %+v, want one record stamped at 7ms", d)
	}
}
