package page

import (
	"errors"
	"testing"
)

// TestPageBufFreeList checks the page-buffer free list: returned buffers
// are resold (identity-preserving), undersized buffers are dropped, and
// vectors round-trip with their contents.
func TestPageBufFreeList(t *testing.T) {
	b := NewBuffers(HeaderSize + 32)

	b1 := b.Get()
	if len(b1) != b.Size() {
		t.Fatalf("Get returned %d bytes, want %d", len(b1), b.Size())
	}
	b.Put(b1)
	b2 := b.Get()
	if &b1[0] != &b2[0] {
		t.Error("free list did not reuse the returned buffer")
	}

	// Undersized buffers must never enter the free list.
	b.Put(make([]byte, b.Size()-1))
	b3 := b.Get()
	if len(b3) != b.Size() {
		t.Errorf("free list resold an undersized buffer (%d bytes)", len(b3))
	}

	v := b.Vec(3)
	if len(v) != 3 {
		t.Fatalf("Vec(3) returned %d buffers", len(v))
	}
	for _, buf := range v {
		if len(buf) != b.Size() {
			t.Fatalf("vec buffer is %d bytes, want %d", len(buf), b.Size())
		}
	}
	first := &v[0][0]
	b.PutVec(v)
	v2 := b.Vec(3)
	found := false
	for _, buf := range v2 {
		if &buf[0] == first {
			found = true
		}
	}
	if !found {
		t.Error("PutVec did not recycle the vector's buffers")
	}
}

// TestDecodeAs: an intact image of the expected page decodes; one naming
// another page, or failing Decode's own checks, comes back as a
// *ChecksumError stamped with the expected id and the location; a blank
// image stays ErrBlank; the LSN is not checked.
func TestDecodeAs(t *testing.T) {
	buf := make([]byte, HeaderSize+8)
	if err := Encode(&Page{ID: 5, LSN: 9, Payload: []byte("payload!")}, buf); err != nil {
		t.Fatal(err)
	}
	var got Page
	if err := DecodeAs(buf, 5, "ssd", 3, &got); err != nil || got.ID != 5 || got.LSN != 9 {
		t.Fatalf("DecodeAs of page 5 = (%+v, %v), want page 5 at LSN 9", got, err)
	}
	var ce *ChecksumError
	if err := DecodeAs(buf, 6, "ssd", 3, &got); !errors.As(err, &ce) ||
		*ce != (ChecksumError{ID: 6, Device: "ssd", Slot: 3, Reason: "id", Got: 5, Want: 6}) {
		t.Errorf("DecodeAs of page 5 as page 6 = %v, want an id mismatch on ssd slot 3", err)
	}
	buf[HeaderSize] ^= 1
	if err := DecodeAs(buf, 5, "db", 5, &got); !errors.As(err, &ce) ||
		ce.Reason != "crc" || ce.ID != 5 || ce.Device != "db" || ce.Slot != 5 {
		t.Errorf("DecodeAs of a flipped image = %v, want a crc mismatch of page 5 on db slot 5", err)
	}
	if err := DecodeAs(make([]byte, HeaderSize+8), 5, "db", 5, &got); !errors.Is(err, ErrBlank) {
		t.Errorf("DecodeAs of a blank image = %v, want ErrBlank", err)
	}
}
