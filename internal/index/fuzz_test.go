package index

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzIndexRead hardens the ZIDX1 decoder against whatever bytes it is
// handed: it must return (never panic), allocate no more than a small
// multiple of its input whatever counts the input claims, and whatever
// it decodes must survive WriteTo — the re-encoding decodes again and
// re-encodes to the same bytes.
//
// The corpus under testdata/fuzz/FuzzIndexRead is a small real index
// (Build over a 6-document corpus), its truncations, and an input whose
// document and posting counts claim 2^62 and 2^61 in 25 bytes, which
// made the decoder panic sizing the posting list.
func FuzzIndexRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if bound := 64*uint64(len(data)) + 1<<16; after.TotalAlloc-before.TotalAlloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), after.TotalAlloc-before.TotalAlloc, bound)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := ix.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded index does not decode: %v", err)
		}
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("index changed across a decode of its own encoding")
		}
	})
}
