package crypt

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites testdata/golden.txt from what the package seals
// today. The committed file was written by the commit before the key
// carried its derived ciphers; regenerating it is a format break that
// orphans every sealed index, so review that diff as one.
var update = flag.Bool("update", false, "rewrite the golden sealed vectors")

// countingReader is the fixed nonce source of the golden vectors:
// bytes 0, 1, 2, … across reads.
type countingReader struct{ next byte }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.next
		r.next++
	}
	return len(p), nil
}

func goldenKeys(t *testing.T) map[string]GroupKey {
	raw := make([]byte, KeySize)
	for i := range raw {
		raw[i] = byte(0xa0 + i)
	}
	fromBytes, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]GroupKey{
		"passphrase": KeyFromPassphrase("zerberr/golden/v1"),
		"bytes":      fromBytes,
	}
}

// goldenElements fit the compact64 field widths and sit on its
// quantization levels, so both codecs open them to the value sealed.
var goldenElements = []Element{
	{Doc: 0, Term: 0, Score: 0},
	{Doc: 42, Term: 1234, Score: DequantizeScore(655360)},
	{Doc: 1<<24 - 1, Term: 1<<20 - 1, Score: 1},
}

// goldenLines seals every vector with the fixed nonce stream and
// returns them as "name hex" lines, in a fixed order.
func goldenLines(t *testing.T) []string {
	var lines []string
	keys := goldenKeys(t)
	for _, keyName := range []string{"passphrase", "bytes"} {
		key := keys[keyName]
		nonces := &countingReader{}
		for _, codec := range []ElementCodec{GCMCodec{Rand: nonces}, Compact64Codec{}} {
			for i, el := range goldenElements {
				ct, err := codec.Seal(el, key)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s/%s/%d %x", keyName, codec.Name(), i, ct))
			}
		}
	}
	return lines
}

// TestGoldenVectors pins the sealed bytes — subkey labels, packing,
// nonce placement — to what earlier commits wrote, and checks the
// committed bytes still open to the values sealed.
func TestGoldenVectors(t *testing.T) {
	path := filepath.Join("testdata", "golden.txt")
	got := goldenLines(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/crypt -run TestGoldenVectors -update)", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d committed vectors, %d sealed now", len(want), len(got))
	}
	keys := goldenKeys(t)
	codecs := map[string]ElementCodec{"aes-gcm": GCMCodec{}, "compact64": Compact64Codec{}}
	for i, line := range want {
		if line != got[i] {
			t.Errorf("sealing no longer writes the committed bytes\n got %s\nwant %s", got[i], line)
		}
		name, hexed, _ := strings.Cut(line, " ")
		sealed, err := hex.DecodeString(hexed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		part := strings.Split(name, "/")
		key := keys[part[0]]
		var n int
		fmt.Sscan(part[2], &n)
		el, err := codecs[part[1]].Open(sealed, key)
		if err != nil || el != goldenElements[n] {
			t.Errorf("%s: opened %+v, %v; sealed %+v", name, el, err, goldenElements[n])
		}
	}
}
