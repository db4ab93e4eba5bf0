package rstf

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadStore hardens the ZRST1 decoder against whatever bytes it is
// handed: it must return (never panic), allocate no more than a small
// multiple of its input whatever counts the input claims, and whatever
// it decodes must survive WriteTo — the re-encoding decodes again and
// re-encodes to the same bytes.
//
// The corpus under testdata/fuzz/FuzzReadStore is a small real store
// (TrainStore over a 6-document corpus), its truncations, and a 28-byte
// input whose one term claims 2^28 training points, for which the
// decoder allocated 2 GiB before it reached the end of the input, and
// a store whose one term ID is 2^32+7, which decoded as term 7 until
// term IDs were read as 32-bit varints.
func FuzzReadStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ReadStore(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if bound := 64*uint64(len(data)) + 1<<16; after.TotalAlloc-before.TotalAlloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), after.TotalAlloc-before.TotalAlloc, bound)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := s.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadStore(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded store does not decode: %v", err)
		}
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("store changed across a decode of its own encoding")
		}
	})
}
