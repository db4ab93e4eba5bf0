package zerber

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadPlan hardens the ZPLN1 decoder against whatever bytes it is
// handed: it must return (never panic), allocate no more than a small
// multiple of its input whatever counts the input claims, and whatever
// it decodes must survive WriteTo — the re-encoding decodes again and
// re-encodes to the same bytes.
//
// The corpus under testdata/fuzz/FuzzReadPlan is a small real plan (BFM
// at r = 2 over a 6-document corpus), its truncations, and a 19-byte
// input whose one list claims 2^28 terms, for which the decoder
// allocated 1 GiB before it reached the end of the input, and a plan
// whose one term ID is 2^32+7, which decoded as term 7 until term IDs
// were read as 32-bit varints.
func FuzzReadPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := ReadPlan(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if bound := 64*uint64(len(data)) + 1<<16; after.TotalAlloc-before.TotalAlloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), after.TotalAlloc-before.TotalAlloc, bound)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := m.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadPlan(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("plan changed across a decode of its own encoding")
		}
	})
}
