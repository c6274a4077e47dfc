package fault

import (
	"bytes"
	"errors"
	"testing"

	"turbobp/internal/device"
	"turbobp/internal/sim"
)

// runOps executes fn inside a one-process simulation so device operations
// can sleep virtual time.
func runOps(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv()
	env.Go("ops", fn)
	env.Run(-1)
	env.Shutdown()
}

func newWrapped(env *sim.Env, in *Injector, name string) *Device {
	return in.Wrap(name, device.NewSSD(env, device.PaperSSDProfile(), 64))
}

func TestCrashSiteCountsAndFiresOnce(t *testing.T) {
	in := New(7)
	in.ArmCrash(SitePreWALFlush, 3)
	for i := 1; i <= 2; i++ {
		if in.At(SitePreWALFlush) {
			t.Fatalf("site fired on visit %d, armed for 3", i)
		}
	}
	if in.At(SitePostWALFlush) {
		t.Fatal("unarmed site fired")
	}
	if !in.At(SitePreWALFlush) {
		t.Fatal("site did not fire on its 3rd visit")
	}
	if !in.Fired() || in.FiredSite() != SitePreWALFlush {
		t.Errorf("Fired = %v, FiredSite = %q", in.Fired(), in.FiredSite())
	}
	if in.At(SitePreWALFlush) {
		t.Error("site fired twice")
	}
	if got := in.Hits(SitePreWALFlush); got != 4 {
		t.Errorf("Hits = %d, want 4", got)
	}
	// Re-arming re-enables firing.
	in.ArmCrash(SitePreWALFlush, 1)
	if !in.At(SitePreWALFlush) {
		t.Error("re-armed site did not fire")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.At(SitePreWALFlush) || in.Fired() {
		t.Error("nil injector fired")
	}
	if in.Hits(SitePreWALFlush) != 0 || in.FiredSite() != "" || in.DeviceLost("ssd") {
		t.Error("nil injector reported state")
	}
	if in.Events() != nil {
		t.Error("nil injector has events")
	}
}

func TestInjectedIOErrorsAreOneShot(t *testing.T) {
	env := sim.NewEnv()
	in := New(1)
	d := newWrapped(env, in, "ssd")
	in.ErrorRead("ssd", 1)  // second read fails
	in.ErrorWrite("ssd", 0) // first write fails
	runOps(t, func(p *sim.Proc) {
		buf := make([]byte, 16)
		if err := device.Write(p, d, 0, [][]byte{buf}); !errors.Is(err, ErrInjectedIO) {
			t.Errorf("write 0: err = %v, want ErrInjectedIO", err)
		}
		if err := device.Write(p, d, 0, [][]byte{buf}); err != nil {
			t.Errorf("write 1: %v (errors must be one-shot)", err)
		}
		if err := device.Read(p, d, 0, [][]byte{buf}); err != nil {
			t.Errorf("read 0: %v", err)
		}
		if err := device.Read(p, d, 0, [][]byte{buf}); !errors.Is(err, ErrInjectedIO) {
			t.Errorf("read 1: err = %v, want ErrInjectedIO", err)
		}
		if err := device.Read(p, d, 0, [][]byte{buf}); err != nil {
			t.Errorf("read 2: %v", err)
		}
	})
}

func TestDeviceLossAndReplace(t *testing.T) {
	env := sim.NewEnv()
	in := New(1)
	d := newWrapped(env, in, "ssd")
	in.FailDeviceAfter("ssd", 2)
	runOps(t, func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < 2; i++ {
			if err := device.Write(p, d, device.PageNum(i), [][]byte{buf}); err != nil {
				t.Fatalf("op %d before loss: %v", i, err)
			}
		}
		if err := device.Read(p, d, 0, [][]byte{buf}); !errors.Is(err, device.ErrLost) {
			t.Fatalf("op at loss threshold: err = %v, want ErrLost", err)
		}
		if err := device.Write(p, d, 0, [][]byte{buf}); !errors.Is(err, device.ErrLost) {
			t.Errorf("op after loss: err = %v, want ErrLost", err)
		}
		if !d.Lost() || !in.DeviceLost("ssd") {
			t.Error("loss not latched")
		}
		// Replacement clears the latch; the loss is one-shot.
		d.Replace()
		if d.Lost() || in.DeviceLost("ssd") {
			t.Error("loss survived Replace")
		}
		for i := 0; i < 8; i++ {
			if err := device.Read(p, d, 0, [][]byte{buf}); err != nil {
				t.Fatalf("read after replace: %v", err)
			}
		}
	})
}

func TestLossCountsAcrossRewrap(t *testing.T) {
	env := sim.NewEnv()
	in := New(1)
	d1 := newWrapped(env, in, "ssd")
	in.FailDeviceAfter("ssd", 3)
	runOps(t, func(p *sim.Proc) {
		buf := make([]byte, 16)
		if err := device.Write(p, d1, 0, [][]byte{buf}); err != nil {
			t.Fatal(err)
		}
		// Re-wrapping a new device under the same name continues the count.
		d2 := newWrapped(env, in, "ssd")
		if err := device.Write(p, d2, 0, [][]byte{buf}); err != nil {
			t.Fatal(err)
		}
		if err := device.Write(p, d2, 0, [][]byte{buf}); err != nil {
			t.Fatal(err)
		}
		if err := device.Write(p, d2, 0, [][]byte{buf}); !errors.Is(err, device.ErrLost) {
			t.Errorf("4th op across wrappers: err = %v, want ErrLost", err)
		}
	})
}

func TestTornWriteZeroFillsTail(t *testing.T) {
	env := sim.NewEnv()
	in := New(1)
	d := newWrapped(env, in, "ssd")
	const pageSize = 16
	in.TearWrite("ssd", 0, pageSize+4) // page 0 whole, page 1 keeps 4 bytes, page 2 dropped
	runOps(t, func(p *sim.Proc) {
		pg := func(fill byte) []byte {
			b := make([]byte, pageSize)
			for i := range b {
				b[i] = fill
			}
			return b
		}
		if err := device.Write(p, d, 0, [][]byte{pg(0xAA), pg(0xBB), pg(0xCC)}); err != nil {
			t.Fatalf("torn write reported failure: %v (tears must be silent)", err)
		}
		got := make([][]byte, 3)
		for i := range got {
			got[i] = make([]byte, pageSize)
		}
		if err := device.Read(p, d, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], pg(0xAA)) {
			t.Error("page before the tear was damaged")
		}
		want1 := append(append([]byte{}, pg(0xBB)[:4]...), make([]byte, pageSize-4)...)
		if !bytes.Equal(got[1], want1) {
			t.Errorf("torn page = %x, want %x", got[1], want1)
		}
		if !bytes.Equal(got[2], make([]byte, pageSize)) {
			t.Error("page after the tear was written")
		}
	})
}

func TestRandDeterministic(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if a.Rand() != b.Rand() {
			t.Fatal("same-seed injectors diverged")
		}
	}
	if New(1).Rand() == New(2).Rand() {
		t.Error("different seeds produced the same first value")
	}
	// Seed 0 is usable (replaced internally, never sticks).
	z := New(0)
	if z.Rand() == z.Rand() {
		t.Error("zero-seed PRNG stuck")
	}
}
