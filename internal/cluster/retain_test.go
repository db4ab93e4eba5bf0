package cluster

import (
	"reflect"
	"testing"

	"zerberr/internal/proof"
	"zerberr/internal/server"
)

// TestRetainWindowCopies: what the window cache keeps must not alias
// the response body a window was decoded from — a retained 1 KB window
// would otherwise pin (and here, be corrupted through) the whole body.
func TestRetainWindowCopies(t *testing.T) {
	root := proof.LeafHash(0.1, []byte("root"))
	sent := server.QueryResponse{
		Elements: []server.StoredElement{
			{Sealed: []byte("first"), TRS: 0.7, Group: 1},
			{Sealed: []byte("second"), TRS: 0.6, Group: 1},
		},
		Exhausted: true,
		Version:   9,
		Proof: &proof.Window{Version: 9, Root: root, Groups: []proof.GroupWindow{{
			Group: 1, Count: 4, Root: &root, Start: 1, End: 3,
			Pred: &proof.Boundary{TRS: 0.8, Sealed: []byte("pred")},
			Succ: &proof.Boundary{TRS: 0.5, Sealed: []byte("succ")},
			Path: []proof.Hash{root},
		}}},
	}
	body := server.AppendQueryResponse(nil, []server.QueryResponse{sent})
	decoded, err := server.DecodeQueryResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	kept := retainWindow(decoded[0])
	for i := range body {
		body[i] = 0xAA
	}
	if !reflect.DeepEqual(kept.Elements, sent.Elements) || kept.Exhausted != sent.Exhausted || kept.Version != sent.Version {
		t.Fatalf("retained window follows the body it was decoded from: %+v", kept)
	}
	if !reflect.DeepEqual(kept.Proof, sent.Proof) {
		t.Fatalf("retained proof follows the body it was decoded from: %+v", kept.Proof.Groups[0])
	}
}
