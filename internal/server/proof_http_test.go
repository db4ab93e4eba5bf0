package server

// Differential tests for audit-on-demand: proved sub-queries carry a
// verifying window, while proof-off traffic stays byte-for-byte what a
// pre-proof server produced — even right after a proof was served for
// the very same window.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/proof"
)

// proofTestServer builds a server with one three-group list
// and a user in groups 0 and 1 (group 2 stays foreign).
func proofTestServer(t *testing.T) (*Server, *httptest.Server, []crypt.Token) {
	t.Helper()
	s := New(secret, time.Hour)
	s.RegisterUser("auditor", 0, 1)
	s.RegisterUser("writer", 0, 1, 2)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp := post(t, ts, "/v1/login", LoginRequest{User: "writer"})
	var wr LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// One token per group membership; inserts need the matching one.
	byGroup := map[int]crypt.Token{}
	for _, tok := range wr.Tokens {
		byGroup[tok.Group] = tok
	}
	els := map[int][]StoredElement{
		0: {{Sealed: []byte("a1"), TRS: 0.9, Group: 0}, {Sealed: []byte("a2"), TRS: 0.5, Group: 0}},
		1: {{Sealed: []byte("b1"), TRS: 0.8, Group: 1}, {Sealed: []byte("b2"), TRS: 0.3, Group: 1}},
		2: {{Sealed: []byte("c1"), TRS: 0.7, Group: 2}},
	}
	for g, batch := range els {
		var ops []InsertOp
		for _, el := range batch {
			ops = append(ops, InsertOp{List: 1, Element: el})
		}
		r := postInsert(t, ts, byGroup[g], ops)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("group %d insert status %d", g, r.StatusCode)
		}
		r.Body.Close()
	}

	resp = post(t, ts, "/v1/login", LoginRequest{User: "auditor"})
	var lr LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return s, ts, lr.Tokens
}

// rawQuery posts one batched query and returns the raw response body.
func rawQuery(t *testing.T, ts *httptest.Server, tokens []crypt.Token, q ListQuery) []byte {
	t.Helper()
	r := postQuery(t, ts, tokens, []ListQuery{q})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", r.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	return buf.Bytes()
}

// oneWindow decodes a response frame that must hold one window.
func oneWindow(t *testing.T, raw []byte) QueryResponse {
	t.Helper()
	windows, err := DecodeQueryResponse(raw)
	if err != nil || len(windows) != 1 {
		t.Fatalf("response frame: %d windows, err %v", len(windows), err)
	}
	return windows[0]
}

func TestHTTPProofRoundTrip(t *testing.T) {
	_, ts, tokens := proofTestServer(t)
	raw := rawQuery(t, ts, tokens, ListQuery{List: 1, Offset: 1, Count: 2, Proof: true})
	resp := oneWindow(t, raw)
	if resp.Proof == nil {
		t.Fatal("proved query returned no proof")
	}
	// Visible ranked order for groups {0,1}: a1 .9, b1 .8, a2 .5, b2 .3.
	if len(resp.Elements) != 2 || string(resp.Elements[0].Sealed) != "b1" || string(resp.Elements[1].Sealed) != "a2" {
		t.Fatalf("window %+v", resp.Elements)
	}
	allowed := map[int]bool{0: true, 1: true}
	elems := make([]proof.WindowElement, len(resp.Elements))
	for i, el := range resp.Elements {
		elems[i] = proof.WindowElement{TRS: el.TRS, Sealed: el.Sealed, Group: el.Group}
	}
	if err := proof.VerifyWindow(resp.Proof, allowed, 1, 2, elems, resp.Exhausted, resp.Version); err != nil {
		t.Fatalf("window served over HTTP does not verify: %v", err)
	}
	// The foreign group travels opaque: group 2's header must carry no
	// count, root or boundaries.
	var sawForeign bool
	for _, gw := range resp.Proof.Groups {
		if gw.Group != 2 {
			continue
		}
		sawForeign = true
		if gw.Opaque == nil || gw.Root != nil || gw.Count != 0 || gw.Pred != nil || gw.Succ != nil || len(gw.Path) != 0 {
			t.Fatalf("foreign group leaked window fields: %+v", gw)
		}
	}
	if !sawForeign {
		t.Fatal("foreign group missing from the commitment")
	}
}

// TestProofOffByteIdentical is the compatibility differential: the
// bytes of an unproven response must not change when proofs enter the
// picture — not even once a proof was built for the same (list,
// version, window).
func TestProofOffByteIdentical(t *testing.T) {
	_, ts, tokens := proofTestServer(t)
	q := ListQuery{List: 1, Offset: 0, Count: 3}

	before := rawQuery(t, ts, tokens, q)
	if oneWindow(t, before).Proof != nil {
		t.Fatalf("unproven response carries a proof: %x", before)
	}

	// Exercise the proved path for the identical window; the store now
	// holds the list's proof tree at this version.
	proved := rawQuery(t, ts, tokens, ListQuery{List: 1, Offset: 0, Count: 3, Proof: true})
	if oneWindow(t, proved).Proof == nil {
		t.Fatal("proved response carries no proof")
	}

	after := rawQuery(t, ts, tokens, q)
	if !bytes.Equal(before, after) {
		t.Fatalf("proof-off bytes changed after a proved read:\nbefore %x\nafter  %x", before, after)
	}

	// And the proved window read again at the same version, from the
	// tree the first read built, is the same bytes.
	proved2 := rawQuery(t, ts, tokens, ListQuery{List: 1, Offset: 0, Count: 3, Proof: true})
	if !bytes.Equal(proved, proved2) {
		t.Fatal("second proved response differs from the first")
	}
}

// TestStatsRoots: /v2/stats stays root-free by default and exposes
// per-list commitment digests only with ?roots=1, in full: 64 hex
// characters, not a prefix.
func TestStatsRoots(t *testing.T) {
	_, ts, _ := proofTestServer(t)
	plain, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsV2Response
	if err := json.NewDecoder(plain.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()
	if len(st.PerList) != 1 || st.PerList[0].Root != "" {
		t.Fatalf("default stats carry roots: %+v", st.PerList)
	}

	rooted, err := http.Get(ts.URL + "/v2/stats?roots=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(rooted.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	rooted.Body.Close()
	if len(st.PerList) != 1 {
		t.Fatalf("per-list stats %+v", st.PerList)
	}
	ls := st.PerList[0]
	if len(ls.Root) != 64 || ls.Version == 0 || ls.Elements != 5 {
		t.Fatalf("rooted stats %+v", ls)
	}
}

// TestProofFromNamesTheVersion: a proved sub-query gets its window's
// continuation only when proof_from names the version the window is
// read at — any other version gets the full proof, byte for byte as
// without proof_from, and an unproven sub-query no proof at all.
func TestProofFromNamesTheVersion(t *testing.T) {
	s, ts, tokens := proofTestServer(t)
	s.SetObs(obs.NewRegistry())
	full := ListQuery{List: 1, Offset: 2, Count: 2, Proof: true}
	plainFull := rawQuery(t, ts, tokens, full)
	version := oneWindow(t, plainFull).Version
	stale, current := version-1, version

	q := full
	q.ProofFrom = &stale
	if got := rawQuery(t, ts, tokens, q); !bytes.Equal(got, plainFull) {
		t.Fatal("proof_from at another version changed the full proof")
	}
	q.ProofFrom = &current
	if w := oneWindow(t, rawQuery(t, ts, tokens, q)); w.Proof == nil || !w.Proof.Continued {
		t.Fatalf("proof_from at the served version answered %+v", w.Proof)
	}
	q.Proof = false
	if w := oneWindow(t, rawQuery(t, ts, tokens, q)); w.Proof != nil {
		t.Fatal("an unproven sub-query with proof_from carries a proof")
	}
	if n := s.Obs().Counter(MetricProofContinuations, "").Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricProofContinuations, n)
	}
}
