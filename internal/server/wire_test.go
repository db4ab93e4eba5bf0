package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// -update rewrites the golden frames under testdata/wire and the fuzz
// seeds derived from them (testdata/fuzz). Review the diff: a changed
// golden file is a changed wire grammar.
var update = flag.Bool("update", false, "rewrite the golden wire fixtures and the fuzz seeds derived from them")

// goldenWindow is a hand-built proved window that verifies: list
// version 0x2a00000007, groups 0 (68 elements, in the caller's view)
// and 2 (foreign, opaque); the caller asked for offset 2, count 20, so
// the window's edges cut the first bucket and the one holding
// position 22.
func goldenWindow() (resp QueryResponse, allowed map[int]bool, offset, count int) {
	const version = 0x2a00000007
	run := make([]StoredElement, 68)
	for i := range run {
		run[i] = StoredElement{Sealed: fmt.Appendf(nil, "a%02d", i), TRS: float64(100-i) / 100}
	}
	gw := provedGroup(run, 2, 22)
	foreign := proof.HeaderHash(2, 3, proof.Hash{0x66})
	content := proof.ContentRoot([]proof.HeaderEntry{
		{Group: 0, HH: proof.HeaderHash(0, len(run), *gw.Root)},
		{Group: 2, HH: foreign},
	})
	w := &proof.Window{
		Version: version,
		Root:    proof.ListRoot(version, content),
		Groups:  []proof.GroupWindow{gw, {Group: 2, Opaque: &foreign}},
	}
	return QueryResponse{Elements: run[2:22], Version: version, Proof: w}, map[int]bool{0: true}, 2, 20
}

// provedGroup is the honest proof of the window [start, end) of a run
// that is group 0's whole: the run cut by the boundary rule, the range
// from the bucket holding start-1 to the one holding end.
func provedGroup(run []StoredElement, start, end int) proof.GroupWindow {
	var b proof.Bucketer
	var bk proof.Buckets
	var starts []int
	at := 0
	add := func(nd proof.Node) {
		bk.Hashes, bk.Sizes = append(bk.Hashes, nd.Root), append(bk.Sizes, uint8(nd.Count))
		starts = append(starts, at)
		at += nd.Count
	}
	for _, el := range run {
		if nd, ok := b.Add(el.TRS, el.Sealed); ok {
			add(nd)
		}
	}
	if nd, ok := b.Flush(); ok {
		add(nd)
	}
	bucketOf := func(p int) int {
		i := 0
		for i+1 < len(starts) && starts[i+1] <= p {
			i++
		}
		return i
	}
	edge := func(els []StoredElement) []proof.Boundary {
		var out []proof.Boundary
		for _, el := range els {
			out = append(out, proof.Boundary{TRS: el.TRS, Sealed: el.Sealed})
		}
		return out
	}
	root := proof.TreeRoot(bk).Root
	gw := proof.GroupWindow{Count: len(run), Root: &root, Buckets: bk.Len(), Start: start, End: end}
	lo, hb, hi := 0, bk.Len(), len(run)
	if start > 0 {
		gw.First = bucketOf(start - 1)
		lo = starts[gw.First]
	}
	if end < len(run) {
		i := bucketOf(end)
		hb, hi = i+1, starts[i]+int(bk.Sizes[i])
	}
	gw.Pred, gw.Succ = edge(run[lo:start]), edge(run[end:hi])
	gw.Path = proof.RangeProof(bk, gw.First, hb)
	return gw
}

func verifyWindow(resp QueryResponse, allowed map[int]bool, offset, count int) error {
	return proof.VerifyWindow(resp.Proof, allowed, offset, count, resp.Elements, resp.Exhausted, resp.Version)
}

// goldenResponses is the golden /v2/query answer: a plain window, the
// proved one, and an unchanged marker.
func goldenResponses() []QueryResponse {
	proved, _, _, _ := goldenWindow()
	return []QueryResponse{
		{
			Elements: []StoredElement{
				{Sealed: []byte("first"), TRS: 0.75, Group: 1},
				{Sealed: []byte("second"), TRS: 0.25, Group: -3},
			},
			Exhausted: true,
			Version:   9,
		},
		proved,
		{Version: 1 << 40, Unchanged: true},
	}
}

func goldenToken() crypt.Token {
	return crypt.IssueToken([]byte("golden-secret"), "golden", 1, time.Unix(1_700_003_600, 0))
}

func goldenInsert() []InsertOp {
	return []InsertOp{
		{List: 7, Element: StoredElement{Sealed: []byte("first"), TRS: 0.75, Group: 1}},
		{List: 7, Element: StoredElement{Sealed: []byte("second"), TRS: 0.25, Group: 1}},
		{List: 3, Element: StoredElement{Sealed: []byte{0, 0xff}, TRS: 1, Group: 1}},
	}
}

func goldenRemove() []RemoveOp {
	return []RemoveOp{{List: 7, Sealed: []byte("first")}, {List: math.MaxUint32, Sealed: []byte{0, 0xff}}}
}

// goldenQuery is the golden /v2/query request: two tokens of one user,
// and sub-queries whose list IDs go down as well as up, with every
// flag set somewhere.
func goldenQuery() ([]crypt.Token, []ListQuery) {
	tok := goldenToken()
	ifVersion, proofFrom := uint64(1<<40+9), uint64(0x2a00000007)
	return []crypt.Token{tok, crypt.IssueToken([]byte("golden-secret"), tok.User, 2, tok.Expiry)},
		[]ListQuery{
			{List: 7, Count: 10},
			{List: 3, Offset: 20, Count: 40, Proof: true, ProofFrom: &proofFrom},
			{List: math.MaxUint32, Offset: 5, Count: 1, IfVersion: &ifVersion},
		}
}

func goldenQueryRequest() []byte {
	toks, queries := goldenQuery()
	return AppendQueryRequest(nil, toks, queries)
}

// lengthen rewrites the one-byte varint at frame[at] in two bytes — the
// same value, not in its shortest form — and patches the body length.
func lengthen(frame []byte, at int) []byte {
	out := append(bytes.Clone(frame[:at]), frame[at]|0x80, 0)
	out = append(out, frame[at+1:]...)
	binary.BigEndian.PutUint32(out[wireHeaderLen-4:], uint32(len(out)-wireHeaderLen))
	return out
}

// TestWireGolden pins the grammar: the committed bytes must be exactly
// what the encoders produce, and must decode back to the values.
func TestWireGolden(t *testing.T) {
	if proved, allowed, offset, count := goldenWindow(); verifyWindow(proved, allowed, offset, count) != nil {
		t.Fatalf("golden proved window does not verify: %v", verifyWindow(proved, allowed, offset, count))
	}
	tok := goldenToken()
	cases := []struct {
		file  string
		frame []byte
		check func(raw []byte) error
	}{
		{"query_response.bin", AppendQueryResponse(nil, goldenResponses()), func(raw []byte) error {
			got, err := DecodeQueryResponse(raw)
			if err == nil && !reflect.DeepEqual(got, goldenResponses()) {
				err = fmt.Errorf("decoded %+v", got)
			}
			return err
		}},
		{"insert_request.bin", AppendInsertRequest(nil, tok, goldenInsert()), func(raw []byte) error {
			gotTok, ops, err := DecodeInsertRequest(raw)
			if err == nil && (!sameToken(gotTok, tok) || !reflect.DeepEqual(ops, goldenInsert())) {
				err = fmt.Errorf("decoded %+v %+v", gotTok, ops)
			}
			return err
		}},
		{"remove_request.bin", AppendRemoveRequest(nil, tok, goldenRemove()), func(raw []byte) error {
			gotTok, ops, err := DecodeRemoveRequest(raw)
			if err == nil && (!sameToken(gotTok, tok) || !reflect.DeepEqual(ops, goldenRemove())) {
				err = fmt.Errorf("decoded %+v %+v", gotTok, ops)
			}
			return err
		}},
		{"query_request.bin", goldenQueryRequest(), func(raw []byte) error {
			toks, queries, err := DecodeQueryRequest(raw)
			wantToks, wantQueries := goldenQuery()
			if err == nil && (!sameTokens(toks, wantToks) || !reflect.DeepEqual(queries, wantQueries)) {
				err = fmt.Errorf("decoded %+v %+v", toks, queries)
			}
			return err
		}},
	}
	for _, tc := range cases {
		path := filepath.Join("testdata", "wire", tc.file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/server -run TestWireGolden -update)", err)
		}
		if !bytes.Equal(tc.frame, want) {
			t.Errorf("%s: the encoder no longer writes the committed bytes\n got %x\nwant %x", tc.file, tc.frame, want)
		}
		if err := tc.check(want); err != nil {
			t.Errorf("%s: %v", tc.file, err)
		}
	}
	if *update {
		writeFuzzSeeds(t)
	}
}

// sameToken compares tokens the way the server does: the expiry as an
// instant, not as a time.Time representation.
func sameToken(a, b crypt.Token) bool {
	return a.User == b.User && a.Group == b.Group && a.Expiry.Equal(b.Expiry) && bytes.Equal(a.MAC, b.MAC)
}

func sameTokens(a, b []crypt.Token) bool {
	return slices.EqualFunc(a, b, sameToken)
}

// randomTRS draws an arbitrary bit pattern short of NaN (DeepEqual
// could not compare those): infinities, subnormals, negative zero.
func randomTRS(rng *rand.Rand) float64 {
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) {
			return f
		}
	}
}

// randomWindow draws one window; groups are signed.
func randomWindow(rng *rand.Rand) QueryResponse {
	trs := func() float64 { return randomTRS(rng) }
	payload := func() []byte {
		b := make([]byte, rng.Intn(60))
		rng.Read(b)
		return b
	}
	hash := func() (h proof.Hash) {
		rng.Read(h[:])
		return h
	}
	w := QueryResponse{Exhausted: rng.Intn(2) == 0, Unchanged: rng.Intn(8) == 0, Version: rng.Uint64() >> uint(rng.Intn(64))}
	if n := rng.Intn(6); n > 0 { // n == 0: the empty window
		w.Elements = make([]StoredElement, n)
		for i := range w.Elements {
			w.Elements[i] = StoredElement{Sealed: payload(), TRS: trs(), Group: rng.Intn(9) - 4}
		}
	}
	if rng.Intn(3) == 0 {
		// A continuation carries proved groups with only End, Succ and Path.
		w.Proof = &proof.Window{Version: rng.Uint64(), Root: hash(), Continued: rng.Intn(3) == 0}
		for g := rng.Intn(4); g > 0; g-- {
			gw := proof.GroupWindow{Group: rng.Intn(1000) - 500}
			if !w.Proof.Continued && rng.Intn(3) == 0 {
				h := hash()
				gw.Opaque = &h
			} else {
				gw.End = rng.Intn(1 << 20)
				if !w.Proof.Continued {
					root := hash()
					gw.Root, gw.Count, gw.Start = &root, rng.Intn(1<<20), rng.Intn(1<<10)
					gw.Buckets, gw.First = rng.Intn(1<<18), rng.Intn(1<<8)
				}
				edge := func() (out []proof.Boundary) {
					for n := rng.Intn(proof.MaxBucket + 1); n > 0; n-- {
						out = append(out, proof.Boundary{TRS: trs(), Sealed: payload()})
					}
					return out
				}
				if !w.Proof.Continued {
					gw.Pred = edge()
				}
				gw.Succ = edge()
				for p := rng.Intn(5); p > 0; p-- {
					gw.Path = append(gw.Path, proof.Node{Count: 1 + rng.Intn(1<<20), Root: hash()})
				}
			}
			w.Proof.Groups = append(w.Proof.Groups, gw)
		}
	}
	return w
}

// TestWireRoundTrip is the seeded property test: whatever the encoders
// accept comes back exactly, TRS bit patterns included.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	flagsSeen, decreasing, tagged := map[int]bool{}, false, false
	for round := 0; round < 300; round++ {
		resps := make([]QueryResponse, rng.Intn(5))
		for i := range resps {
			resps[i] = randomWindow(rng)
		}
		frame := AppendQueryResponse(nil, resps)
		got, err := DecodeQueryResponse(frame)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(resps) == 0 {
			resps = nil
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, resps) {
			t.Fatalf("round %d:\n got %+v\nwant %+v", round, got, resps)
		}

		tok := crypt.Token{User: fmt.Sprintf("u%d", rng.Intn(100)), Group: rng.Intn(9) - 4,
			Expiry: time.Unix(rng.Int63n(4e9), rng.Int63n(1e9)), MAC: make([]byte, rng.Intn(40))}
		rng.Read(tok.MAC)
		lists := []zerber.ListID{0, 1, 7, math.MaxUint32, zerber.ListID(rng.Uint32())}
		n := 1 + rng.Intn(6)
		ins, rem := make([]InsertOp, n), make([]RemoveOp, n)
		for i := range ins {
			w := randomWindow(rng)
			el := StoredElement{Sealed: []byte{byte(i)}, TRS: randomTRS(rng), Group: rng.Intn(9) - 4}
			if len(w.Elements) > 0 {
				el = w.Elements[0]
			}
			list := lists[rng.Intn(len(lists))]
			ins[i] = InsertOp{List: list, Element: el}
			rem[i] = RemoveOp{List: list, Sealed: el.Sealed}
		}
		gotTok, gotIns, err := DecodeInsertRequest(AppendInsertRequest(nil, tok, ins))
		if err != nil || !sameToken(gotTok, tok) || !reflect.DeepEqual(gotIns, ins) {
			t.Fatalf("round %d: insert came back %+v %+v (%v), sent %+v %+v", round, gotTok, gotIns, err, tok, ins)
		}
		gotTok, gotRem, err := DecodeRemoveRequest(AppendRemoveRequest(nil, tok, rem))
		if err != nil || !sameToken(gotTok, tok) || !reflect.DeepEqual(gotRem, rem) {
			t.Fatalf("round %d: remove came back %+v %+v (%v), sent %+v %+v", round, gotTok, gotRem, err, tok, rem)
		}

		// A query request: none or a few tokens of one user, sub-queries
		// over the same list IDs in drawn order — deltas go down as well
		// as up — with the flag combinations in turn.
		toks := make([]crypt.Token, rng.Intn(4))
		for i := range toks {
			toks[i] = tok
			toks[i].Group = i
		}
		queries := make([]ListQuery, 1+rng.Intn(6))
		for i := range queries {
			flags := (round + i) % 8
			q := ListQuery{List: lists[rng.Intn(len(lists))], Offset: rng.Intn(1 << 20), Count: 1 + rng.Intn(1000), Proof: flags&2 != 0}
			if flags&1 != 0 {
				v := rng.Uint64()
				q.IfVersion = &v
			}
			if flags&4 != 0 {
				v := rng.Uint64()
				q.ProofFrom = &v
			}
			if flags&1 != 0 && flags&2 == 0 && rng.Intn(2) == 0 {
				var tag WindowTag
				rng.Read(tag[:])
				q.IfTag = &tag
				tagged = true
			}
			queries[i] = q
			flagsSeen[flags] = true
			decreasing = decreasing || i > 0 && q.List < queries[i-1].List
		}
		gotToks, gotQueries, err := DecodeQueryRequest(AppendQueryRequest(nil, toks, queries))
		if err != nil || !sameTokens(gotToks, toks) || !reflect.DeepEqual(gotQueries, queries) {
			t.Fatalf("round %d: query came back %+v %+v (%v), sent %+v %+v", round, gotToks, gotQueries, err, toks, queries)
		}
	}
	if len(flagsSeen) != 8 || !decreasing || !tagged {
		t.Fatalf("query rows covered flag combinations %v, decreasing list IDs %v, a tag %v", flagsSeen, decreasing, tagged)
	}

	// A batch of no operations is the server's "empty batch", refused
	// before anything is decoded from it.
	tok := goldenToken()
	if _, _, err := DecodeInsertRequest(AppendInsertRequest(nil, tok, nil)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero-length insert batch: %v", err)
	}
	if _, _, err := DecodeRemoveRequest(AppendRemoveRequest(nil, tok, nil)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero-length remove batch: %v", err)
	}
	if _, _, err := DecodeQueryRequest(AppendQueryRequest(nil, []crypt.Token{tok}, nil)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero-length query batch: %v", err)
	}
}

// TestQueryRequestOneEncoding: a query request has exactly one
// encoding. The same token count, user-name length or sub-query count
// written in more bytes than it needs is refused, and so is a
// sub-query the frame cannot hold, with its index.
func TestQueryRequestOneEncoding(t *testing.T) {
	toks, queries := goldenQuery()
	frame := goldenQueryRequest()
	tokensEnd := len(AppendQueryRequest(nil, toks, nil)) - 1 // before the sub-query count
	for name, at := range map[string]int{
		"token count":     wireHeaderLen,
		"user length":     wireHeaderLen + 1,
		"sub-query count": tokensEnd,
	} {
		if _, _, err := DecodeQueryRequest(lengthen(frame, at)); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s written long: %v", name, err)
		}
	}
	queries[1].Count = -1
	_, _, err := DecodeQueryRequest(AppendQueryRequest(nil, toks, queries))
	var be *BatchError
	if !errors.Is(err, ErrBadRequest) || !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("a negative count: %v, want a bad request at index 1", err)
	}
}

// TestQueryRequestTagGrammar: a tag travels only beside the version it
// revalidates, on an unproven sub-query, and in full. A tagged
// conditional round-trips; a tag without a version, a tag on a proved
// sub-query and a truncated tag are each a *BatchError with the
// sub-query's index.
func TestQueryRequestTagGrammar(t *testing.T) {
	toks, _ := goldenQuery()
	ver := uint64(0x2a00000007)
	tag := WindowTag{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	tagged := []ListQuery{{List: 7, Count: 10}, {List: 3, Offset: 20, Count: 40, IfVersion: &ver, IfTag: &tag}}
	frame := AppendQueryRequest(nil, toks, tagged)
	if !bytes.HasSuffix(frame, append([]byte{queryIfVersion | queryIfTag, 0, 0, 0, 0x2a, 0, 0, 0, 7}, tag[:]...)) {
		t.Fatalf("tagged sub-query ends %x", frame[len(frame)-25:])
	}
	_, got, err := DecodeQueryRequest(frame)
	if err != nil || !reflect.DeepEqual(got, tagged) {
		t.Fatalf("tagged conditional came back %+v (%v)", got, err)
	}
	noVersion := slices.Clone(tagged)
	noVersion[1].IfVersion = nil
	proved := slices.Clone(tagged)
	proved[1].Proof = true
	truncated := bytes.Clone(frame[:len(frame)-5])
	binary.BigEndian.PutUint32(truncated[wireHeaderLen-4:], uint32(len(truncated)-wireHeaderLen))
	for name, bad := range map[string][]byte{
		"without a version": AppendQueryRequest(nil, toks, noVersion),
		"on a proved read":  AppendQueryRequest(nil, toks, proved),
		"truncated":         truncated,
	} {
		_, _, err := DecodeQueryRequest(bad)
		var be *BatchError
		if !errors.Is(err, ErrBadRequest) || !errors.As(err, &be) || be.Index != 1 {
			t.Errorf("tag %s: %v, want a bad request at index 1", name, err)
		}
	}
}

// TestEveryFrameHasOneEncoding: a frame the decoders accept is the one
// its encoder writes for what they decoded — the elements, op lists and
// tokens inside it included — so no two byte strings carry one message.
// Every one-byte field of each golden frame, written in two bytes
// instead — a varint no longer in its shortest form, or a fixed-width
// byte the rest then misreads — is refused, or re-encodes to itself.
func TestEveryFrameHasOneEncoding(t *testing.T) {
	tok := goldenToken()
	toks, queries := goldenQuery()
	for _, c := range []struct {
		name     string
		frame    []byte
		reencode func([]byte) ([]byte, error)
	}{
		{"insert request", AppendInsertRequest(nil, tok, goldenInsert()), func(b []byte) ([]byte, error) {
			tok, ops, err := DecodeInsertRequest(b)
			return AppendInsertRequest(nil, tok, ops), err
		}},
		{"remove request", AppendRemoveRequest(nil, tok, goldenRemove()), func(b []byte) ([]byte, error) {
			tok, ops, err := DecodeRemoveRequest(b)
			return AppendRemoveRequest(nil, tok, ops), err
		}},
		{"query request", AppendQueryRequest(nil, toks, queries), func(b []byte) ([]byte, error) {
			toks, queries, err := DecodeQueryRequest(b)
			return AppendQueryRequest(nil, toks, queries), err
		}},
		{"query response", AppendQueryResponse(nil, goldenResponses()), func(b []byte) ([]byte, error) {
			resps, err := DecodeQueryResponse(b)
			return AppendQueryResponse(nil, resps), err
		}},
	} {
		for at := wireHeaderLen; at < len(c.frame); at++ {
			if c.frame[at] >= 0x80 {
				continue
			}
			long := lengthen(c.frame, at)
			if again, err := c.reencode(long); err == nil && !bytes.Equal(again, long) {
				t.Errorf("%s: byte %d written in two bytes decodes to a frame of %d bytes", c.name, at, len(again))
			}
		}
	}
}

// TestWireDecodeOwnership: every decoded payload, of a request or a
// response, aliases the body with no spare capacity — the store copies
// what it keeps (internal/client's TestInsertCopiesPayload covers that
// side), so no decoder copies for it.
func TestWireDecodeOwnership(t *testing.T) {
	tok := goldenToken()
	insert := AppendInsertRequest(nil, tok, goldenInsert())
	_, ops, err := DecodeInsertRequest(insert)
	if err != nil {
		t.Fatal(err)
	}
	response := AppendQueryResponse(nil, goldenResponses())
	resps, err := DecodeQueryResponse(response)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		frame  []byte
		sealed []byte
	}{
		{"inserted", insert, ops[0].Element.Sealed},
		{"response", response, resps[0].Elements[0].Sealed},
	} {
		if cap(c.sealed) != len(c.sealed) {
			t.Fatalf("decoded %s payload has spare capacity %d: an append would write into its neighbour", c.what, cap(c.sealed)-len(c.sealed))
		}
		for i := range c.frame {
			c.frame[i] = 0xAA
		}
		if c.sealed[0] != 0xAA {
			t.Fatalf("%s payloads were copied; the decode is meant to alias the body", c.what)
		}
	}
}

// window250 is the shape of one `deep` response: 250 elements of 44
// sealed bytes.
func window250() []QueryResponse {
	elems := make([]StoredElement, 250)
	for i := range elems {
		elems[i] = StoredElement{Sealed: bytes.Repeat([]byte{byte(i)}, 44), TRS: 1 - float64(i)/250, Group: i % 8}
	}
	return []QueryResponse{{Elements: elems, Version: 1<<40 + 12}}
}

func TestWireAllocs(t *testing.T) {
	resps := window250()
	buf := AppendQueryResponse(nil, resps)
	if n := testing.AllocsPerRun(100, func() { buf = AppendQueryResponse(buf[:0], resps) }); n != 0 {
		t.Errorf("steady-state response encode allocates %.0f times, want 0", n)
	}
	proved := goldenResponses()
	pbuf := AppendQueryResponse(nil, proved)
	if n := testing.AllocsPerRun(100, func() { pbuf = AppendQueryResponse(pbuf[:0], proved) }); n != 0 {
		t.Errorf("steady-state proved response encode allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeQueryResponse(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decoding a 250-element window allocates %.0f times, want <= 3", n)
	}

	toks, queries := headQuery()
	req := AppendQueryRequest(nil, toks, queries)
	if n := testing.AllocsPerRun(100, func() { req = AppendQueryRequest(req[:0], toks, queries) }); n != 0 {
		t.Errorf("query request encode into a sized buffer allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeQueryRequest(req); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decoding a query request allocates %.0f times, want <= 3", n)
	}
}

// headQuery is the shape of one `head` round: a user's eight group
// tokens and two sub-queries, one of them proved.
func headQuery() ([]crypt.Token, []ListQuery) {
	toks := make([]crypt.Token, 8)
	for g := range toks {
		toks[g] = crypt.IssueToken([]byte("head-secret"), "user-17", g, time.Unix(1_700_003_600, 0))
	}
	return toks, []ListQuery{{List: 812, Count: 10}, {List: 2040, Offset: 10, Count: 20, Proof: true}}
}

// TestElementRecordShared: the frame's element is byte for byte the
// record the WAL and the snapshot write.
func TestElementRecordShared(t *testing.T) {
	el := StoredElement{Sealed: []byte("payload"), TRS: 0.5, Group: -2}
	frame := AppendQueryResponse(nil, []QueryResponse{{Elements: []StoredElement{el}}})
	if rec := store.AppendElement(nil, el); !bytes.HasSuffix(frame, rec) {
		t.Fatalf("frame %x does not end in the element record %x", frame, rec)
	}
}

// TestContinuationFrame pins the continuation grammar: window flags
// 4|8, then per proved group only its ID, end, succ edge and path — no
// flags, count, root, start, pred or opaque group — and a decoder that
// refuses anything else in that place.
func TestContinuationFrame(t *testing.T) {
	resp, _, _, _ := goldenWindow()
	resp.Proof = proof.Continue(resp.Proof, resp.Elements, nil)
	gw := resp.Proof.Groups[0]
	if len(resp.Proof.Groups) != 1 || len(gw.Succ) == 0 || len(gw.Path) == 0 {
		t.Fatalf("golden continuation %+v", resp.Proof)
	}
	want := binary.AppendUvarint(nil, 1)
	want = append(want, windowProved|windowContinued)
	want = binary.BigEndian.AppendUint64(want, resp.Version)
	want = binary.AppendUvarint(want, uint64(len(resp.Elements)))
	for _, el := range resp.Elements {
		want = store.AppendElement(want, el)
	}
	want = binary.BigEndian.AppendUint64(want, resp.Proof.Version)
	want = append(want, resp.Proof.Root[:]...)
	want = binary.AppendUvarint(want, 1)
	want = binary.AppendVarint(want, int64(gw.Group))
	want = binary.AppendUvarint(want, uint64(gw.End))
	succAt := wireHeaderLen + len(want)
	want = binary.AppendUvarint(want, uint64(len(gw.Succ)))
	for _, b := range gw.Succ {
		want = store.AppendElement(want, StoredElement{Sealed: b.Sealed, TRS: b.TRS, Group: gw.Group})
	}
	want = binary.AppendUvarint(want, uint64(len(gw.Path)))
	countAt := wireHeaderLen + len(want)
	for _, nd := range gw.Path {
		want = binary.AppendUvarint(want, uint64(nd.Count))
		want = append(want, nd.Root[:]...)
	}
	frame := AppendQueryResponse(nil, []QueryResponse{resp})
	if !bytes.Equal(frame[wireHeaderLen:], want) {
		t.Fatalf("continuation body\n got %x\nwant %x", frame[wireHeaderLen:], want)
	}
	got, err := DecodeQueryResponse(frame)
	if err != nil || !reflect.DeepEqual(got, []QueryResponse{resp}) {
		t.Fatalf("decoded %+v (%v), sent %+v", got, err, resp)
	}

	flagsAt := wireHeaderLen + 1 // after the window count
	for name, mutate := range map[string]func(b []byte){
		"continuation without a proof": func(b []byte) { b[flagsAt] = windowContinued },
		"edge over a bucket":           func(b []byte) { b[succAt] = proof.MaxBucket + 1 },
		"path node counting nothing":   func(b []byte) { b[countAt] = 0 },
	} {
		bad := bytes.Clone(frame)
		mutate(bad)
		if _, err := DecodeQueryResponse(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: decoded (%v)", name, err)
		}
	}
	// A path node without its count — the layout before nodes were
	// counted — reads its root's first byte as the count and runs out
	// of frame.
	n := len(binary.AppendUvarint(nil, uint64(gw.Path[0].Count)))
	bad := append(bytes.Clone(frame[:countAt]), frame[countAt+n:]...)
	binary.BigEndian.PutUint32(bad[wireHeaderLen-4:], uint32(len(bad)-wireHeaderLen))
	if _, err := DecodeQueryResponse(bad); !errors.Is(err, ErrBadFrame) {
		t.Errorf("path node without its count: decoded (%v)", err)
	}
}
