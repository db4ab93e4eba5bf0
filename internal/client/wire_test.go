package client

import (
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// TestLocalHTTPDifferential: the same QueryBatch through the in-process
// transport and through the binary frame over HTTP returns deeply equal
// responses — plain, proved, conditional.
func TestLocalHTTPDifferential(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 31)
	ts := httptest.NewServer(h.srv.Handler())
	defer ts.Close()
	local, remote := Local{S: h.srv}, HTTP{BaseURL: ts.URL}
	ctx := context.Background()
	toks, err := remote.Login(ctx, "writer")
	if err != nil {
		t.Fatal(err)
	}
	// Lists of mixed depth: the most common terms' lists and a rare one.
	terms := h.c.TermsByDF()
	var lists []zerber.ListID
	for _, term := range []int{0, 3, 40, len(terms) - 1} {
		lists = append(lists, h.cl.ListFor(terms[term]))
	}

	var plain []server.ListQuery
	for _, l := range lists {
		plain = append(plain,
			server.ListQuery{List: l, Offset: 0, Count: 10},
			server.ListQuery{List: l, Offset: 3, Count: 40},
			server.ListQuery{List: l, Offset: 1 << 20, Count: 5}) // past the end: empty and exhausted
	}
	want, err := local.QueryBatch(ctx, toks, plain)
	if err != nil {
		t.Fatal(err)
	}
	proved := append([]server.ListQuery(nil), plain...)
	for i := range proved {
		proved[i].Proof = true
	}
	// Conditional on the versions just learned: every other sub-query
	// names the current version (Unchanged), the rest a stale one.
	conditional := append([]server.ListQuery(nil), plain...)
	for i := range conditional {
		v := want.Responses[i].Version
		if i%2 == 1 {
			v++
		}
		conditional[i].IfVersion = &v
	}

	for name, queries := range map[string][]server.ListQuery{"plain": plain, "proved": proved, "conditional": conditional} {
		viaLocal, err := local.QueryBatch(ctx, toks, queries)
		if err != nil {
			t.Fatalf("%s: local: %v", name, err)
		}
		viaHTTP, err := remote.QueryBatch(ctx, toks, queries)
		if err != nil {
			t.Fatalf("%s: http: %v", name, err)
		}
		if viaHTTP.WireBytes == 0 || viaLocal.WireBytes != 0 {
			t.Errorf("%s: wire bytes http %d, local %d", name, viaHTTP.WireBytes, viaLocal.WireBytes)
		}
		if !reflect.DeepEqual(viaLocal.Responses, viaHTTP.Responses) {
			for i := range viaLocal.Responses {
				if !reflect.DeepEqual(viaLocal.Responses[i], viaHTTP.Responses[i]) {
					t.Fatalf("%s: sub-query %d (%+v):\n local %+v\n  http %+v", name, i, queries[i], viaLocal.Responses[i], viaHTTP.Responses[i])
				}
			}
		}
		for i, resp := range viaHTTP.Responses {
			if name == "conditional" && resp.Unchanged != (i%2 == 0) {
				t.Errorf("conditional sub-query %d: unchanged %v", i, resp.Unchanged)
			}
			if name == "proved" && resp.Proof == nil {
				t.Errorf("proved sub-query %d came back without a proof", i)
			}
		}
	}
}

// hostileFrame builds a response frame around body, with an honest
// header: what is wrong with it is inside.
func hostileFrame(body []byte) []byte {
	frame := append([]byte("ZWF\x01Q"), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(frame[5:], uint32(len(body)))
	return append(frame, body...)
}

// TestHostileServer: the server is the adversary. Whatever it answers
// a query with — lying lengths, absurd counts, more than was asked for,
// half a frame, a frame and a half — is a clean error, never a panic
// and never an allocation sized by the server's claim.
func TestHostileServer(t *testing.T) {
	el := server.StoredElement{Sealed: []byte("payload"), TRS: 0.5, Group: 1}
	honest := server.AppendQueryResponse(nil, []server.QueryResponse{{Elements: []server.StoredElement{el, el}, Version: 7}})
	uvarint := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// One window, no flags, version 7: what precedes its element count.
	window := func(rest ...byte) []byte { return append([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 7}, rest...) }
	cases := []struct {
		name    string
		respond func(w http.ResponseWriter)
		wantErr string
	}{
		{"huge Content-Length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "1099511627776") // 1 TiB announced, nothing sent
			w.WriteHeader(http.StatusOK)
		}, "over the"},
		{"window count 2^62", func(w http.ResponseWriter) {
			_, _ = w.Write(hostileFrame(uvarint(1 << 62)))
		}, "windows claimed"},
		{"element count 2^62", func(w http.ResponseWriter) {
			_, _ = w.Write(hostileFrame(window(uvarint(1 << 62)...)))
		}, "elements claimed"},
		{"sealed length 2^62", func(w http.ResponseWriter) {
			body := append(window(1, 2), make([]byte, 8)...) // one element: group 1, a TRS
			_, _ = w.Write(hostileFrame(append(body, uvarint(1<<62)...)))
		}, "truncated: 4611686018427387904 bytes wanted"},
		{"over-long window", func(w http.ResponseWriter) {
			_, _ = w.Write(honest) // two elements, one was asked for
		}, "1 were asked for"},
		{"window count mismatch", func(w http.ResponseWriter) {
			_, _ = w.Write(server.AppendQueryResponse(nil, make([]server.QueryResponse, 2)))
		}, "2 responses for 1 queries"},
		{"truncated frame", func(w http.ResponseWriter) {
			_, _ = w.Write(honest[:len(honest)-4])
		}, "header claims"},
		{"trailing garbage", func(w http.ResponseWriter) {
			_, _ = w.Write(append(append([]byte(nil), honest...), "garbage"...))
		}, "header claims"},
		{"trailing garbage inside the frame", func(w http.ResponseWriter) {
			_, _ = w.Write(hostileFrame(append(window(0), "garbage"...)))
		}, "trailing bytes"},
		{"JSON, as servers used to answer", func(w http.ResponseWriter) {
			_, _ = w.Write([]byte(`{"responses":[{"elements":[],"exhausted":true}]}`))
		}, "JSON, not a binary frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { tc.respond(w) }))
			defer ts.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := HTTP{BaseURL: ts.URL}.QueryBatch(context.Background(), nil, []server.ListQuery{{List: 1, Count: 1}})
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
			// The whole exchange — HTTP machinery included — stays far
			// below what any of the claimed sizes would have cost.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("exchange allocated %d bytes", grew)
			}
		})
	}
}

// TestReadBodyTrustsBytesNotClaims: an announced length sizes the read
// buffer only up to 1 MiB; past that the peer has to send the bytes.
func TestReadBodyTrustsBytesNotClaims(t *testing.T) {
	body, err := server.ReadBody(strings.NewReader("tiny"), nil, maxResponseBytes)
	if err != nil || string(body) != "tiny" {
		t.Fatalf("body %q, err %v", body, err)
	}
	if cap(body) > 1<<20+512 {
		t.Fatalf("a %d-byte claim sized the buffer to %d", maxResponseBytes, cap(body))
	}
	big := strings.Repeat("x", 3<<20)
	body, err = server.ReadBody(strings.NewReader(big), nil, -1)
	if err != nil || string(body) != big {
		t.Fatalf("unannounced body: %d bytes, err %v", len(body), err)
	}
}
