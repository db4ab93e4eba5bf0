package crypt

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"zerberr/internal/binfmt"
	"zerberr/internal/corpus"
)

func testKey() GroupKey { return KeyFromPassphrase("test-group") }

func codecs() []ElementCodec {
	return []ElementCodec{GCMCodec{}, Compact64Codec{}}
}

func TestKeyFromPassphraseDeterministic(t *testing.T) {
	a := KeyFromPassphrase("secret")
	b := KeyFromPassphrase("secret")
	c := KeyFromPassphrase("other")
	if !bytes.Equal(a.k[:], b.k[:]) {
		t.Fatal("same passphrase gave different keys")
	}
	if bytes.Equal(a.k[:], c.k[:]) {
		t.Fatal("different passphrases gave the same key")
	}
}

func TestNewGroupKeyRandom(t *testing.T) {
	a, err := NewGroupKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGroupKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.k[:], b.k[:]) {
		t.Fatal("two random keys identical")
	}
}

func TestKeyFromBytes(t *testing.T) {
	raw := bytes.Repeat([]byte{7}, KeySize)
	k, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k.k[:], raw) {
		t.Fatal("round trip failed")
	}
	if _, err := KeyFromBytes([]byte{1, 2}); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestElementRoundTrip(t *testing.T) {
	for _, codec := range codecs() {
		el := Element{Doc: 12345, Term: 678, Score: 0.0625}
		ct, err := codec.Seal(el, testKey())
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if len(ct) != codec.WireSize() {
			t.Fatalf("%s: wire size %d, want %d", codec.Name(), len(ct), codec.WireSize())
		}
		got, err := codec.Open(ct, testKey())
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		if got.Doc != el.Doc || got.Term != el.Term {
			t.Fatalf("%s: ids changed: %+v", codec.Name(), got)
		}
		if math.Abs(got.Score-el.Score) > 1e-6 {
			t.Fatalf("%s: score %v, want %v", codec.Name(), got.Score, el.Score)
		}
	}
}

func TestElementWrongKeyFails(t *testing.T) {
	el := Element{Doc: 1, Term: 2, Score: 0.5}
	// GCM must reject outright.
	ct, err := GCMCodec{}.Seal(el, testKey())
	if err != nil {
		t.Fatal(err)
	}
	gcm := GCMCodec{}
	if _, err := gcm.Open(ct, KeyFromPassphrase("wrong")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("GCM wrong key: err = %v, want ErrDecrypt", err)
	}
	// Compact64 is unauthenticated by design: wrong key yields garbage,
	// not an error — document that behaviour here.
	ct2, err := Compact64Codec{}.Seal(el, testKey())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compact64Codec{}.Open(ct2, KeyFromPassphrase("wrong"))
	if err != nil {
		t.Fatal(err)
	}
	if got == el {
		t.Fatal("compact64 decrypted correctly under the wrong key")
	}
}

func TestGCMTamperDetected(t *testing.T) {
	ct, err := GCMCodec{}.Seal(Element{Doc: 9, Term: 9, Score: 0.9}, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ct); i += 7 {
		mangled := append([]byte(nil), ct...)
		mangled[i] ^= 0x80
		if _, err := (GCMCodec{}).Open(mangled, testKey()); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("tampering byte %d not detected", i)
		}
	}
}

func TestGCMNonDeterministic(t *testing.T) {
	el := Element{Doc: 3, Term: 4, Score: 0.25}
	a, _ := GCMCodec{}.Seal(el, testKey())
	b, _ := GCMCodec{}.Seal(el, testKey())
	if bytes.Equal(a, b) {
		t.Fatal("two GCM seals of the same element identical (nonce reuse?)")
	}
}

func TestOpenRejectsWrongSizes(t *testing.T) {
	for _, codec := range codecs() {
		for _, n := range []int{0, 1, codec.WireSize() - 1, codec.WireSize() + 1} {
			if _, err := codec.Open(make([]byte, n), testKey()); err == nil {
				t.Fatalf("%s accepted %d-byte ciphertext", codec.Name(), n)
			}
		}
	}
}

func TestCompact64FieldOverflow(t *testing.T) {
	cases := []Element{
		{Doc: 1 << compactDocBits, Term: 0, Score: 0},
		{Doc: 0, Term: 1 << compactTermBits, Score: 0},
	}
	for _, el := range cases {
		if _, err := (Compact64Codec{}).Seal(el, testKey()); !errors.Is(err, ErrFieldOverflow) {
			t.Fatalf("overflow %+v: err = %v, want ErrFieldOverflow", el, err)
		}
	}
}

func TestQuantizeScore(t *testing.T) {
	if QuantizeScore(0) != 0 {
		t.Fatal("QuantizeScore(0) != 0")
	}
	if QuantizeScore(1) != scoreQuantMax {
		t.Fatal("QuantizeScore(1) != max")
	}
	if QuantizeScore(-5) != 0 || QuantizeScore(5) != scoreQuantMax {
		t.Fatal("clamping failed")
	}
	if QuantizeScore(math.NaN()) != 0 {
		t.Fatal("NaN not clamped")
	}
	for _, s := range []float64{0.001, 0.1, 0.333, 0.999} {
		got := DequantizeScore(QuantizeScore(s))
		if math.Abs(got-s) > 1.0/scoreQuantMax {
			t.Fatalf("quantization error at %v: %v", s, got)
		}
	}
}

func TestQuantizePreservesOrderQuick(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 1)
		b = math.Mod(math.Abs(b), 1)
		if a > b {
			a, b = b, a
		}
		return QuantizeScore(a) <= QuantizeScore(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFeistelBijective(t *testing.T) {
	key := testKey()
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 2000; i++ {
		v := i * 0x9e3779b97f4a7c15
		enc, err := feistelEncrypt(v, key)
		if err != nil {
			t.Fatal(err)
		}
		if seen[enc] {
			t.Fatalf("feistel collision at input %d", i)
		}
		seen[enc] = true
		dec, err := feistelDecrypt(enc, key)
		if err != nil {
			t.Fatal(err)
		}
		if dec != v {
			t.Fatalf("feistel round trip failed: %d -> %d -> %d", v, enc, dec)
		}
	}
}

func TestFeistelRoundTripQuick(t *testing.T) {
	key := testKey()
	f := func(v uint64) bool {
		enc, err := feistelEncrypt(v, key)
		if err != nil {
			return false
		}
		dec, err := feistelDecrypt(enc, key)
		return err == nil && dec == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestElementRoundTripQuick(t *testing.T) {
	key := testKey()
	for _, codec := range codecs() {
		codec := codec
		f := func(doc uint32, term uint32, sRaw uint32) bool {
			el := Element{
				Doc:   corpus.DocID(doc % (1 << compactDocBits)),
				Term:  corpus.TermID(term % (1 << compactTermBits)),
				Score: float64(sRaw%1000000) / 1000000,
			}
			ct, err := codec.Seal(el, key)
			if err != nil {
				return false
			}
			got, err := codec.Open(ct, key)
			if err != nil {
				return false
			}
			return got.Doc == el.Doc && got.Term == el.Term && math.Abs(got.Score-el.Score) < 1e-5
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
	}
}

func TestTokens(t *testing.T) {
	secret := []byte("server-secret")
	now := time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)
	tok := IssueToken(secret, "john", 3, now.Add(time.Hour))
	if !VerifyToken(secret, tok, now) {
		t.Fatal("valid token rejected")
	}
	if VerifyToken(secret, tok, now.Add(2*time.Hour)) {
		t.Fatal("expired token accepted")
	}
	if VerifyToken([]byte("other-secret"), tok, now) {
		t.Fatal("token accepted under wrong secret")
	}
	forged := tok
	forged.Group = 4
	if VerifyToken(secret, forged, now) {
		t.Fatal("forged group accepted")
	}
	forged2 := tok
	forged2.User = "eve"
	if VerifyToken(secret, forged2, now) {
		t.Fatal("forged user accepted")
	}
	forged3 := tok
	forged3.Expiry = tok.Expiry.Add(time.Hour)
	if VerifyToken(secret, forged3, now) {
		t.Fatal("extended expiry accepted")
	}
	// The MAC binds exactly Key: expiries within one second share it,
	// which is what lets a server remember a MAC under its key.
	sameSecond := IssueToken(secret, "john", 3, tok.Expiry.Add(999*time.Millisecond))
	if sameSecond.Key() != tok.Key() || !bytes.Equal(sameSecond.MAC, tok.MAC) {
		t.Fatalf("expiries within one second: keys %+v, %+v; MACs differ %v", sameSecond.Key(), tok.Key(), !bytes.Equal(sameSecond.MAC, tok.MAC))
	}
}

func TestSubkeysIndependent(t *testing.T) {
	k := testKey()
	a := k.subkey("purpose-a")
	b := k.subkey("purpose-b")
	if bytes.Equal(a[:], b[:]) {
		t.Fatal("different purposes share a subkey")
	}
	if bytes.Equal(a[:], k.k[:]) {
		t.Fatal("subkey equals master key")
	}
}

// TestTokenRecordRoundTrip: the binary token record returns every field
// exactly (the expiry as the same instant), verifies under the same
// secret, and refuses every truncation of itself.
func TestTokenRecordRoundTrip(t *testing.T) {
	secret := []byte("token-record-secret")
	for _, tok := range []Token{
		IssueToken(secret, "john", 3, time.Now().Add(time.Hour)),
		IssueToken(secret, "", -7, time.Unix(1_700_000_000, 123_456_789)),
		IssueToken(secret, "üser with spaces", 1<<40, time.Unix(0, 0)),
		{User: "no-mac", Group: 1, Expiry: time.Unix(1, 0)},
	} {
		rec := AppendToken([]byte("prefix"), tok)[len("prefix"):]
		got, rest, err := readToken(append(append([]byte(nil), rec...), "tail"...), "someone else")
		if err != nil {
			t.Fatalf("%+v: %v", tok, err)
		}
		if string(rest) != "tail" {
			t.Fatalf("rest %q", rest)
		}
		if got.User != tok.User || got.Group != tok.Group || !got.Expiry.Equal(tok.Expiry) || !bytes.Equal(got.MAC, tok.MAC) {
			t.Fatalf("round trip changed the token:\n got %+v\nwant %+v", got, tok)
		}
		if len(tok.MAC) > 0 && !VerifyToken(secret, got, tok.Expiry) {
			t.Fatal("decoded token no longer verifies")
		}
		for cut := 0; cut < len(rec); cut++ {
			if _, _, err := readToken(rec[:cut], ""); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", cut, len(rec))
			}
		}
		// The user-name length again, in two bytes instead of one.
		long := append([]byte{rec[0] | 0x80, 0}, rec[1:]...)
		if _, _, err := readToken(long, ""); err == nil || errors.Is(err, binfmt.ErrTruncated) {
			t.Fatalf("a non-minimal length decoded or read as a truncation (err %v)", err)
		}
	}
}

var errTokenRecord = errors.New("token record")

// readToken reads the token record at the head of b and returns what
// follows it.
func readToken(b []byte, user string) (Token, []byte, error) {
	r := binfmt.NewReader(b, errTokenRecord)
	tok := ReadToken(&r, user)
	return tok, r.Bytes(r.Len()), r.Err()
}

// TestReadTokenSharesTheUserName: a token list of one user costs one
// copy of the name — the reader passes the name before, and a record
// naming the same user reuses it without allocating.
func TestReadTokenSharesTheUserName(t *testing.T) {
	rec := AppendToken(nil, IssueToken([]byte("s"), "john", 3, time.Unix(1_700_000_000, 0)))
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := readToken(rec, "john"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("reading a token of the user passed allocates %.0f times", n)
	}
	if tok, _, err := readToken(rec, "jane"); err != nil || tok.User != "john" {
		t.Fatalf("token of another user: %+v (%v)", tok, err)
	}
}
