package store

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"zerberr/internal/binfmt"
)

// TestElementRecord: the shared record round-trips every field bit for
// bit, aliases its input with capped capacity, and refuses every
// truncation.
func TestElementRecord(t *testing.T) {
	for _, el := range []Element{
		{Sealed: []byte("payload"), TRS: 0.5, Group: 3},
		{Sealed: []byte{}, TRS: math.Copysign(0, -1), Group: -1 << 40},
		{Sealed: bytes.Repeat([]byte{0xff}, 300), TRS: math.Inf(1), Group: 0},
		{Sealed: []byte{0}, TRS: math.Float64frombits(0x7ff8_0000_0000_beef), Group: 1}, // a NaN payload
	} {
		rec := AppendElement(nil, el)
		if len(rec) < MinElementBytes {
			t.Fatalf("record of %d bytes, below MinElementBytes", len(rec))
		}
		buf := append(append([]byte(nil), rec...), "next"...)
		got, rest, err := readElement(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(rest) != "next" {
			t.Fatalf("rest %q", rest)
		}
		if got.Group != el.Group || math.Float64bits(got.TRS) != math.Float64bits(el.TRS) || !bytes.Equal(got.Sealed, el.Sealed) {
			t.Fatalf("round trip: got %+v, want %+v", got, el)
		}
		if cap(got.Sealed) != len(got.Sealed) {
			t.Fatalf("sealed has spare capacity %d: an append would overwrite the next record", cap(got.Sealed)-len(got.Sealed))
		}
		for cut := 0; cut < len(rec); cut++ {
			if _, _, err := readElement(rec[:cut]); !errors.Is(err, binfmt.ErrTruncated) {
				t.Fatalf("truncation to %d of %d bytes: %v", cut, len(rec), err)
			}
		}
	}
	// A sealed length no buffer could hold is a truncation, not a panic.
	huge := append(AppendElement(nil, Element{})[:9], 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, _, err := readElement(huge); !errors.Is(err, binfmt.ErrTruncated) {
		t.Fatalf("sealed length 2^64-1: %v", err)
	}
}

var errElementRecord = errors.New("element record")

// readElement reads the element record at the head of b and returns
// what follows it.
func readElement(b []byte) (Element, []byte, error) {
	r := binfmt.NewReader(b, errElementRecord)
	el := ReadElement(&r)
	return el, r.Bytes(r.Len()), r.Err()
}
