package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test format")

// TestReaderReadsWhatAppendWrites: every field reads back what Go's
// encoding/binary appended, byte strings alias the input with no spare
// capacity, and the cursor ends exactly at the end.
func TestReaderReadsWhatAppendWrites(t *testing.T) {
	b := []byte("MAGIC")
	b = append(b, 7)
	b = binary.BigEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.BigEndian.AppendUint64(b, 1<<63|5)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(math.Copysign(0, -1)))
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendUvarint(b, math.MaxUint32)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abcNEXT"...)

	r := NewReader(b, errTest)
	r.Magic("MAGIC")
	if v := r.Byte(); v != 7 {
		t.Fatalf("Byte = %d", v)
	}
	if v := r.Uint32(); v != 0xdeadbeef {
		t.Fatalf("Uint32 = %#x", v)
	}
	if v := r.Uint64(); v != 1<<63|5 {
		t.Fatalf("Uint64 = %#x", v)
	}
	if v := r.Float64(); v != 0 || !math.Signbit(v) {
		t.Fatalf("Float64 = %v, want -0", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Int(); v != 300 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Uvarint32(); v != math.MaxUint32 {
		t.Fatalf("Uvarint32 = %d", v)
	}
	p := r.Prefixed()
	if string(p) != "abc" || cap(p) != len(p) {
		t.Fatalf("Prefixed = %q with capacity %d", p, cap(p))
	}
	if r.Offset()+r.Len() != len(b) || r.Len() != 4 {
		t.Fatalf("offset %d + left %d, input %d", r.Offset(), r.Len(), len(b))
	}
	if err := r.End(); !errors.Is(err, errTest) {
		t.Fatalf("4 bytes left: End = %v", err)
	}
	r = NewReader([]byte("NEXT"), errTest)
	if r.Bytes(4); r.End() != nil {
		t.Fatalf("End at the end: %v", r.Err())
	}
}

// TestReaderRefuses: each way an input can be malformed is a failure
// of the format's kind — truncations also ErrTruncated, nothing else —
// and the first failure sticks: later reads return zero values and
// leave the error alone.
func TestReaderRefuses(t *testing.T) {
	cases := []struct {
		name      string
		in        []byte
		read      func(*Reader)
		truncated bool
	}{
		{"empty byte", nil, func(r *Reader) { r.Byte() }, true},
		{"short uint32", []byte{1, 2, 3}, func(r *Reader) { r.Uint32() }, true},
		{"short uint64", []byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.Uint64() }, true},
		{"cut uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, true},
		{"cut varint", []byte{0xff, 0xff}, func(r *Reader) { r.Varint() }, true},
		{"prefixed past the end", []byte{5, 'a', 'b'}, func(r *Reader) { r.Prefixed() }, true},
		{"prefixed 2^64-1", binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Prefixed() }, true},
		{"negative take", []byte{1}, func(r *Reader) { r.Bytes(-1) }, true},
		{"short magic", []byte("MAG"), func(r *Reader) { r.Magic("MAGIC") }, true},
		{"wrong magic", []byte("MAGIX"), func(r *Reader) { r.Magic("MAGIC") }, false},
		{"overlong uvarint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, false},
		{"overlong zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, false},
		{"overlong varint", []byte{0x82, 0x80, 0x00}, func(r *Reader) { r.Varint() }, false},
		{"overflowing uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, false},
		{"int past MaxInt", binary.AppendUvarint(nil, math.MaxInt+1), func(r *Reader) { r.Int() }, false},
		{"uvarint32 past 32 bits", binary.AppendUvarint(nil, math.MaxUint32+1), func(r *Reader) { r.Uvarint32() }, false},
		{"count past the bytes", []byte{3, 'a', 'b'}, func(r *Reader) { r.Count("items", 1) }, false},
		{"count of wide items", []byte{2, 'a', 'b', 'c'}, func(r *Reader) { r.Count("items", 2) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.in, errTest)
			tc.read(&r)
			err := r.Err()
			if !errors.Is(err, errTest) || errors.Is(err, ErrTruncated) != tc.truncated {
				t.Fatalf("err = %v, want %v (truncated %v)", err, errTest, tc.truncated)
			}
			left := r.Len()
			if r.Byte() != 0 || r.Uvarint() != 0 || r.Bytes(0) != nil || r.Err() != err || r.Len() != left {
				t.Fatal("a read after a failure was not a no-op")
			}
		})
	}
}

// TestCountBoundsByBytes: a count is accepted up to what the bytes that
// remain can hold at minBytes each, and no further.
func TestCountBoundsByBytes(t *testing.T) {
	for _, tc := range []struct {
		count, minBytes, left int
		ok                    bool
	}{
		{0, 1, 0, true},
		{4, 1, 4, true},
		{5, 1, 4, false},
		{2, 10, 20, true},
		{2, 10, 19, false},
	} {
		in := append(binary.AppendUvarint(nil, uint64(tc.count)), make([]byte, tc.left)...)
		r := NewReader(in, errTest)
		got := r.Count("items", tc.minBytes)
		if (r.Err() == nil) != tc.ok || tc.ok && got != tc.count {
			t.Errorf("%d items of ≥ %d bytes in %d: got %d, err %v", tc.count, tc.minBytes, tc.left, got, r.Err())
		}
	}
}

// TestReaderDoesNotAllocate: a read that succeeds allocates nothing, so
// a Reader can sit on every hot decode path.
func TestReaderDoesNotAllocate(t *testing.T) {
	b := binary.AppendUvarint(nil, 1<<40)
	b = binary.AppendVarint(b, -5)
	b = binary.BigEndian.AppendUint64(b, 9)
	b = append(binary.AppendUvarint(b, 2), "ok"...)
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader(b, errTest)
		r.Uvarint()
		r.Varint()
		r.Uint64()
		r.Prefixed()
		if r.End() != nil {
			t.Fatal(r.Err())
		}
	}); n != 0 {
		t.Fatalf("reading allocates %.0f times", n)
	}
}

// FuzzReader drives the cursor with a script read from the input over
// the rest of the input. Whatever the bytes: no panic; Offset and Len
// always add up to the input; a failure sticks; and every varint
// accepted re-encodes to exactly the bytes it consumed, so an accepted
// input has one encoding.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, binary.AppendUvarint(nil, 300))
	f.Add([]byte{1, 1, 4, 5}, []byte{0x82, 0x80, 0x00, 1, 2, 3})
	f.Add([]byte{6, 7, 0}, []byte{3, 'a', 'b', 'c', 0xff})
	f.Fuzz(func(t *testing.T, script, in []byte) {
		r := NewReader(in, errTest)
		for _, op := range script {
			before, failed := r.Offset(), r.Err() != nil
			switch op % 8 {
			case 0:
				if v := r.Uvarint(); r.Err() == nil && !bytes.Equal(binary.AppendUvarint(nil, v), in[before:r.Offset()]) {
					t.Fatalf("uvarint %d accepted from %x", v, in[before:r.Offset()])
				}
			case 1:
				if v := r.Varint(); r.Err() == nil && !bytes.Equal(binary.AppendVarint(nil, v), in[before:r.Offset()]) {
					t.Fatalf("varint %d accepted from %x", v, in[before:r.Offset()])
				}
			case 2:
				r.Byte()
			case 3:
				r.Uint32()
			case 4:
				r.Uint64()
			case 5:
				r.Bytes(int(op >> 3))
			case 6:
				if p := r.Prefixed(); cap(p) != len(p) {
					t.Fatal("prefixed bytes with spare capacity")
				}
			case 7:
				r.Count("items", 1+int(op>>3))
			}
			if r.Offset()+r.Len() != len(in) {
				t.Fatalf("offset %d + left %d, input %d", r.Offset(), r.Len(), len(in))
			}
			if failed && r.Offset() != before {
				t.Fatal("a read after a failure moved the cursor")
			}
			if err := r.Err(); err != nil && !errors.Is(err, errTest) {
				t.Fatalf("failure %v does not wrap the format's kind", err)
			}
		}
	})
}
