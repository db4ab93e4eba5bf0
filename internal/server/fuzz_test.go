package server

// FuzzV2Request hardens the protocol request surface: whatever bytes
// arrive at /v2/query, /v2/insert, /v2/remove or /v1/login — before any
// token in them has been checked — the handler must answer without
// panicking and never with a 5xx: every malformed, unauthorized or
// oversized request is the client's fault and says so. The three
// protocol endpoints take binary frames (wire.go); a JSON body there,
// which is what they took before, must be refused as a bad request.
// FuzzQueryRequest runs the query-request decoder alone, and
// FuzzWireResponse the decoder a client runs on what an untrusted
// server answers. The committed corpora under testdata/fuzz hold a
// valid message per target (tokens signed under the fixed secret and
// clock below) and the damaged shapes around them; `go test -run
// TestWireGolden -update` rewrites the binary ones.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/proof"
)

var fuzzEndpoints = []string{"/v2/query", "/v2/insert", "/v2/remove", "/v1/login"}

// fuzzServer is a server whose tokens are reproducible — fixed secret,
// fixed clock — so the corpus files stay valid requests forever.
func fuzzServer() *Server {
	s := New([]byte("fuzz-secret"), time.Hour)
	s.SetClock(func() time.Time { return time.Unix(1_700_000_000, 0) })
	s.RegisterUser("fuzz", 0, 1)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil))) // rejections are the common case here
	return s
}

// fuzzSeeds returns one valid body per endpoint, in fuzzEndpoints
// order.
func fuzzSeeds(tb testing.TB, s *Server) [][]byte {
	toks, err := s.Login(context.Background(), "fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	el := StoredElement{Sealed: []byte("payload"), TRS: 0.5, Group: 0}
	marshal := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return [][]byte{
		AppendQueryRequest(nil, toks, []ListQuery{{List: 3, Count: 10}, {List: 4, Offset: 2, Count: 1, Proof: true}}),
		AppendInsertRequest(nil, toks[0], []InsertOp{{List: 3, Element: el}}),
		AppendRemoveRequest(nil, toks[0], []RemoveOp{{List: 3, Sealed: el.Sealed}}),
		marshal(LoginRequest{User: "fuzz"}),
	}
}

func FuzzV2Request(f *testing.F) {
	s := fuzzServer()
	h := s.Handler()
	for i, body := range fuzzSeeds(f, s) {
		f.Add(uint8(i), body)
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d to %q: %s", path, rec.Code, body, rec.Body.Bytes())
		}
		var env ErrorV2
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" || env.Error == "" {
				t.Fatalf("%s answered %d without the error envelope: %s", path, rec.Code, rec.Body.Bytes())
			}
		}
		if path != "/v1/login" && len(body) > 0 && body[0] == '{' &&
			(rec.Code != http.StatusBadRequest || env.Code != CodeBadRequest) {
			t.Fatalf("%s answered %d %q to a JSON body, want 400 %s", path, rec.Code, env.Code, CodeBadRequest)
		}
	})
}

// FuzzQueryRequest feeds arbitrary bytes to the query-request decoder,
// which the server runs before any token in them has been checked: a
// clean error or a value, never a panic; at most 64 bytes allocated per
// input byte, plus 64 KiB; and a frame it accepts re-encodes to exactly
// its bytes, so one request has one encoding.
func FuzzQueryRequest(f *testing.F) {
	f.Add(goldenQueryRequest())
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		toks, queries, err := DecodeQueryRequest(body)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(body))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			return
		}
		if again := AppendQueryRequest(nil, toks, queries); !bytes.Equal(again, body) {
			t.Fatalf("accepted frame re-encodes differently\n got %x\nwant %x", again, body)
		}
	})
}

// FuzzWireResponse feeds arbitrary bytes to the response decoder: a
// clean error or a value, never a panic, and nothing decoded may be
// larger than a small multiple of the input. A proof that decodes goes
// on to the verifier, which must likewise accept or reject.
func FuzzWireResponse(f *testing.F) {
	f.Add(AppendQueryResponse(nil, goldenResponses()))
	f.Fuzz(func(t *testing.T, body []byte) {
		resps, err := DecodeQueryResponse(body)
		if err != nil {
			return
		}
		elems := 0
		for _, resp := range resps {
			elems += len(resp.Elements)
			if resp.Proof != nil {
				_ = verifyWindow(resp, map[int]bool{0: true}, 2, 2)
				_ = verifyWindow(resp, nil, 0, len(resp.Elements))
			}
		}
		if len(resps) > len(body) || elems > len(body) {
			t.Fatalf("%d windows and %d elements decoded from %d bytes", len(resps), elems, len(body))
		}
		// What decodes re-encodes to a frame that decodes the same.
		again, err := DecodeQueryResponse(AppendQueryResponse(nil, resps))
		if err != nil || len(again) != len(resps) {
			t.Fatalf("re-encoded frame: %d windows, err %v", len(again), err)
		}
	})
}

// writeFuzzSeeds regenerates the corpus files (TestWireGolden
// -update): for FuzzV2Request the valid query, insert and remove frames
// and the damaged shapes around them, and one JSON query, which must be
// refused as a bad request; for FuzzQueryRequest the golden request,
// its truncations, each flag combination and the hostile counts; for
// FuzzWireResponse the golden response, its truncations and the golden
// window's continuation. The FuzzQueryRequest seeds include a tagged
// conditional (seed_tagged), which re-encodes to itself, and the same
// frame one byte short of its tag.
func writeFuzzSeeds(t *testing.T) {
	s := fuzzServer()
	seeds := fuzzSeeds(t, s)
	query, insert, remove := seeds[0], seeds[1], seeds[2]
	toks, err := s.Login(context.Background(), "fuzz")
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed header and token, then an operation count of 2^62.
	huge, start := beginFrame(nil, frameInsertRequest)
	huge = endFrame(binary.AppendUvarint(crypt.AppendToken(huge, toks[0]), 1<<62), start)
	// The valid query's tokens, then a sub-query count of 2^62.
	tokensOnly := AppendQueryRequest(nil, toks, nil)
	hugeQuery := hostileQuery(tokensOnly[wireHeaderLen:len(tokensOnly)-1], binary.AppendUvarint(nil, 1<<62))
	// One sub-query whose list delta lands past 2^32-1.
	overflow := hostileQuery(tokensOnly[wireHeaderLen:len(tokensOnly)-1], binary.AppendVarint([]byte{1}, 1<<32), []byte{0, 1, 0})
	v2 := map[string]struct {
		endpoint uint8
		body     []byte
	}{
		"seed_query_valid":           {0, query},
		"seed_query_truncated":       {0, query[:len(query)-3]},
		"seed_query_trailing":        {0, append(bytes.Clone(query), 0)},
		"seed_query_huge_count":      {0, hugeQuery},
		"seed_query_overflow":        {0, overflow},
		"seed_query_no_tokens":       {0, AppendQueryRequest(nil, nil, []ListQuery{{List: 3, Count: 10, Proof: true}})},
		"seed_query_bad_range":       {0, AppendQueryRequest(nil, toks, []ListQuery{{List: 1, Offset: -1, Count: 0}})},
		"seed_query_wrong_endpoint":  {1, query},
		"seed_query_json":            {0, []byte(`{"tokens":[],"queries":[{"list":3,"offset":0,"count":10}]}`)},
		"seed_insert_valid":          {1, insert},
		"seed_insert_truncated":      {1, insert[:len(insert)-3]},
		"seed_insert_trailing":       {1, append(append([]byte(nil), insert...), 0)},
		"seed_insert_huge_count":     {1, huge},
		"seed_insert_wrong_endpoint": {2, insert},
		"seed_remove_valid":          {2, remove},
		"seed_remove_truncated":      {2, remove[:len(remove)-3]},
		"seed_remove_header_only":    {2, remove[:wireHeaderLen]},
		"seed_remove_wrong_endpoint": {1, remove},
	}
	for name, seed := range v2 {
		writeCorpusFile(t, "FuzzV2Request", name, fmt.Sprintf("byte(%q)\n[]byte(%q)\n", seed.endpoint, seed.body))
	}
	request := goldenQueryRequest()
	writeCorpusFile(t, "FuzzQueryRequest", "seed_golden", fmt.Sprintf("[]byte(%q)\n", request))
	for _, cut := range []int{0, wireHeaderLen, wireHeaderLen + 1, len(request) / 2, len(request) - 9, len(request) - 1} {
		writeCorpusFile(t, "FuzzQueryRequest", fmt.Sprintf("seed_truncated_%03d", cut), fmt.Sprintf("[]byte(%q)\n", request[:cut]))
	}
	for flags := 0; flags < 8; flags++ {
		q := ListQuery{List: 5, Offset: 10, Count: 20, Proof: flags&2 != 0}
		v := uint64(0x2a00000007)
		if flags&1 != 0 {
			q.IfVersion = &v
		}
		if flags&4 != 0 {
			q.ProofFrom = &v
		}
		writeCorpusFile(t, "FuzzQueryRequest", fmt.Sprintf("seed_flags_%d", flags), fmt.Sprintf("[]byte(%q)\n", AppendQueryRequest(nil, toks[:1], []ListQuery{q})))
	}
	v := uint64(0x2a00000007)
	tag := WindowTag{0: 0xa5, 15: 0x5a}
	tagged := AppendQueryRequest(nil, toks[:1], []ListQuery{{List: 5, Offset: 10, Count: 20, IfVersion: &v, IfTag: &tag}})
	writeCorpusFile(t, "FuzzQueryRequest", "seed_tagged", fmt.Sprintf("[]byte(%q)\n", tagged))
	writeCorpusFile(t, "FuzzQueryRequest", "seed_tag_truncated", fmt.Sprintf("[]byte(%q)\n", hostileQuery(tagged[wireHeaderLen:len(tagged)-1])))
	writeCorpusFile(t, "FuzzQueryRequest", "seed_huge_token_count", fmt.Sprintf("[]byte(%q)\n", hostileQuery(binary.AppendUvarint(nil, 1<<62))))
	writeCorpusFile(t, "FuzzQueryRequest", "seed_huge_query_count", fmt.Sprintf("[]byte(%q)\n", hugeQuery))
	writeCorpusFile(t, "FuzzQueryRequest", "seed_list_overflow", fmt.Sprintf("[]byte(%q)\n", overflow))
	writeCorpusFile(t, "FuzzQueryRequest", "seed_long_varint", fmt.Sprintf("[]byte(%q)\n", lengthen(request, wireHeaderLen)))

	golden := AppendQueryResponse(nil, goldenResponses())
	writeCorpusFile(t, "FuzzWireResponse", "seed_golden", fmt.Sprintf("[]byte(%q)\n", golden))
	for _, cut := range []int{0, 3, wireHeaderLen, wireHeaderLen + 1, 40, len(golden) / 2, len(golden) - 33, len(golden) - 1} {
		writeCorpusFile(t, "FuzzWireResponse", fmt.Sprintf("seed_truncated_%03d", cut), fmt.Sprintf("[]byte(%q)\n", golden[:cut]))
	}
	cont, _, _, _ := goldenWindow()
	cont.Proof = proof.Continue(cont.Proof)
	writeCorpusFile(t, "FuzzWireResponse", "seed_continuation", fmt.Sprintf("[]byte(%q)\n", AppendQueryResponse(nil, []QueryResponse{cont})))
}

// hostileQuery frames the concatenated parts as a query request body.
func hostileQuery(parts ...[]byte) []byte {
	frame, start := beginFrame(nil, frameQueryRequest)
	for _, p := range parts {
		frame = append(frame, p...)
	}
	return endFrame(frame, start)
}

func writeCorpusFile(t *testing.T, target, name, values string) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte("go test fuzz v1\n"+values), 0o644); err != nil {
		t.Fatal(err)
	}
}
