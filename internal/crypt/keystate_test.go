package crypt

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"zerberr/internal/corpus"
)

// raceEnabled is set by race_test.go when the race detector, whose
// instrumentation allocates, is compiled in.
var raceEnabled bool

// stateless returns the key without derived state: the path that
// derives every cipher per call, as every key did before the state
// rode on it. It is the oracle the cached path is compared against.
func stateless(k GroupKey) GroupKey { return GroupKey{k: k.k} }

// quantized maps arbitrary quick inputs onto an element both codecs
// round-trip exactly.
func quantized(doc, term, score uint32) Element {
	return Element{
		Doc:   corpus.DocID(doc % (1 << compactDocBits)),
		Term:  corpus.TermID(term % (1 << compactTermBits)),
		Score: DequantizeScore(score % (scoreQuantMax + 1)),
	}
}

func TestStatelessKeySealsAndOpensLikeConstructed(t *testing.T) {
	f := func(raw [KeySize]byte, doc, term, score uint32, nonceStart byte) bool {
		built, err := KeyFromBytes(raw[:])
		if err != nil {
			return false
		}
		bare := stateless(built)
		if bare.state != nil || built.state == nil {
			return false
		}
		el := quantized(doc, term, score)
		for _, codecFor := range []func() ElementCodec{
			func() ElementCodec { return GCMCodec{Rand: &countingReader{next: nonceStart}} },
			func() ElementCodec { return Compact64Codec{} },
		} {
			fromBuilt, err1 := codecFor().Seal(el, built)
			fromBare, err2 := codecFor().Seal(el, bare)
			if err1 != nil || err2 != nil || !bytes.Equal(fromBuilt, fromBare) {
				return false
			}
			a, err1 := codecFor().Open(fromBare, built)
			b, err2 := codecFor().Open(fromBuilt, bare)
			if err1 != nil || err2 != nil || a != el || b != el {
				return false
			}
		}
		artifact := []byte(fmt.Sprint(doc, term, score))
		fromBuilt, err1 := SealBytes(artifact, built, &countingReader{next: nonceStart})
		fromBare, err2 := SealBytes(artifact, bare, &countingReader{next: nonceStart})
		if err1 != nil || err2 != nil || !bytes.Equal(fromBuilt, fromBare) {
			return false
		}
		a, err1 := OpenBytes(fromBare, built)
		b, err2 := OpenBytes(fromBuilt, bare)
		return err1 == nil && err2 == nil && bytes.Equal(a, artifact) && bytes.Equal(b, artifact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyFromOwnBytesBehavesAsKey(t *testing.T) {
	k, err := NewGroupKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := KeyFromBytes(k.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	el := Element{Doc: 9, Term: 77, Score: DequantizeScore(4242)}
	for _, codec := range codecs() {
		for _, pair := range [][2]GroupKey{{k, again}, {again, k}} {
			ct, err := codec.Seal(el, pair[0])
			if err != nil {
				t.Fatal(err)
			}
			if got, err := codec.Open(ct, pair[1]); err != nil || got != el {
				t.Fatalf("%s: opened %+v, %v", codec.Name(), got, err)
			}
		}
	}
	sealed, err := SealBytes([]byte("plan"), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := OpenBytes(sealed, again); err != nil || string(pt) != "plan" {
		t.Fatalf("artifact: %q, %v", pt, err)
	}
}

// TestKeyCopiesConcurrent races the first use of every derived cipher
// and then the ciphers themselves: copies of one key in 8 goroutines.
func TestKeyCopiesConcurrent(t *testing.T) {
	key := testKey()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int, key GroupKey) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				el := Element{Doc: corpus.DocID(g), Term: corpus.TermID(i), Score: DequantizeScore(uint32(i))}
				for _, codec := range codecs() {
					ct, err := codec.Seal(el, key)
					if err != nil {
						t.Error(err)
						return
					}
					if got, err := codec.Open(ct, key); err != nil || got != el {
						t.Errorf("%s: opened %+v, %v; sealed %+v", codec.Name(), got, err, el)
						return
					}
				}
				sealed, err := SealBytes([]byte{byte(g), byte(i)}, key, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if pt, err := OpenBytes(sealed, key); err != nil || !bytes.Equal(pt, []byte{byte(g), byte(i)}) {
					t.Errorf("artifact: %x, %v", pt, err)
					return
				}
			}
		}(g, key)
	}
	wg.Wait()
}

// TestDerivedOnceAndOnlyWhenUsed: a GCM-only deployment never builds
// the Feistel cipher, and every copy of a key shares what was built.
func TestDerivedOnceAndOnlyWhenUsed(t *testing.T) {
	key := testKey()
	clone := key
	ct, err := GCMCodec{}.Seal(Element{Doc: 1}, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (GCMCodec{}).Open(ct, clone); err != nil {
		t.Fatal(err)
	}
	if key.state.element.c == nil || key.state.element.c != clone.state.element.c {
		t.Fatal("copies of a key do not share the element AEAD")
	}
	if key.state.feistel.c != nil || key.state.artifact.c != nil {
		t.Fatal("a cipher nobody used was derived")
	}
}

func TestSealOpenAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	key := testKey()
	el := Element{Doc: 42, Term: 1234, Score: 0.625}
	for _, tc := range []struct {
		codec      ElementCodec
		seal, open float64
	}{
		{GCMCodec{}, 1, 1},       // the returned slice; the plaintext block the AEAD interface makes escape
		{Compact64Codec{}, 2, 1}, // the Feistel scratch, plus Seal's returned slice
	} {
		ct, err := tc.codec.Seal(el, key)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = tc.codec.Seal(el, key) }); n > tc.seal {
			t.Errorf("%s Seal: %v allocations, limit %v", tc.codec.Name(), n, tc.seal)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = tc.codec.Open(ct, key) }); n > tc.open {
			t.Errorf("%s Open: %v allocations, limit %v", tc.codec.Name(), n, tc.open)
		}
	}
}

// TestKeyNeverPrintsItself: no fmt verb and no slog handler renders a
// 4-byte run of the key, alone or inside a map.
func TestKeyNeverPrintsItself(t *testing.T) {
	raw := make([]byte, KeySize)
	for i := range raw {
		raw[i] = byte(0x41 + i) // printable, so %s of the bytes would show
	}
	key, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Derive everything, so the expanded state is there to leak.
	if _, err := (GCMCodec{}).Seal(Element{}, key); err != nil {
		t.Fatal(err)
	}
	if _, err := (Compact64Codec{}).Seal(Element{}, key); err != nil {
		t.Fatal(err)
	}
	keys := map[int]GroupKey{3: key}
	var logged bytes.Buffer
	for _, h := range []slog.Handler{slog.NewTextHandler(&logged, nil), slog.NewJSONHandler(&logged, nil)} {
		slog.New(h).Info("keys", "key", key, "ptr", &key, "keys", keys, "group", slog.GroupValue(slog.Any("k", key)))
	}
	rendered := []string{logged.String()}
	for _, verb := range []string{"%v", "%+v", "%#v", "%s", "%x", "%q", "%d"} {
		rendered = append(rendered, fmt.Sprintf(verb, key), fmt.Sprintf(verb, &key), fmt.Sprintf(verb, keys), fmt.Sprintf(verb, []GroupKey{key}))
	}
	for _, out := range rendered {
		if !strings.Contains(out, "redacted") {
			t.Errorf("no redaction marker in %q", out)
		}
		for i := 0; i+4 <= KeySize; i++ {
			run := raw[i : i+4]
			for _, form := range []string{string(run), fmt.Sprintf("%x", run), fmt.Sprintf("%X", run), fmt.Sprint(run), strings.Trim(fmt.Sprint(run), "[]")} {
				if strings.Contains(out, form) {
					t.Fatalf("key bytes %q appear in %q", form, out)
				}
			}
		}
	}
}
