package client

// Verified search: the client-side half of the audit-on-demand proof
// protocol. With WithProof every batched round asks the server for
// Merkle window proofs and verifies each response before a single
// element is decrypted or absorbed: inclusion (every element sits at
// its claimed committed position), adjacency (nothing was withheld
// inside or around the window) and the exhausted flag all bind to one
// list root per (list, version). Roots are pinned across the rounds
// of one search, so a server cannot commit to two different states
// under the same version without being caught (equivocation). A
// scan's follow-up round names the version its previous window
// verified at (ListQuery.ProofFrom); while the list is still at it,
// the answer is a continuation, verified against what that window left
// (proof.Frontier) instead of carrying it again.
//
// What the root itself is bound to remains out of band — a server
// whose committed state simply is wrong (stale, selectively indexed)
// proves that state honestly. Proofs reduce the trust surface to one
// hash per list version; replicas cross-check it (internal/replica)
// and `zerber verify` audits whole windows against it.

import (
	"errors"
	"fmt"

	"zerberr/internal/proof"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// ErrProofInvalid reports that a server response failed Merkle window
// verification under WithProof: a forged, reordered, truncated or
// withheld window, a proof that does not bind to its advertised root,
// or a root that changed under a pinned (list, version).
var ErrProofInvalid = errors.New("client: response failed proof verification")

// pinKey pins one list root for the duration of a search: the same
// (list, version) must always commit to the same root.
type pinKey struct {
	list    zerber.ListID
	version uint64
}

// proofState is the per-search verification state of a proved search.
type proofState struct {
	allowed map[int]bool
	pins    map[pinKey]proof.Hash
}

// newProofState captures the client's view (its token groups) for
// VerifyWindow and an empty pin table.
func (c *Client) newProofState() *proofState {
	allowed := make(map[int]bool, len(c.byGrp))
	for g := range c.byGrp {
		allowed[g] = true
	}
	return &proofState{allowed: allowed, pins: make(map[pinKey]proof.Hash)}
}

// verify checks one sub-query response against its proof and the pin
// table. Responses reach it before absorb sees them, so a tampered
// window never contributes to results. prev is what the scan's
// previous window left (nil before its first): a continuation is
// verified against it, and the Frontier returned is what the scan's
// next sub-query continues from.
func (ps *proofState) verify(q server.ListQuery, resp server.QueryResponse, prev *proof.Frontier) (*proof.Frontier, error) {
	next, err := proof.VerifyNext(prev, resp.Proof, ps.allowed, q.Offset, q.Count, resp.Elements, resp.Exhausted, resp.Version)
	if err != nil {
		return nil, fmt.Errorf("%w: list %d: %v", ErrProofInvalid, q.List, err)
	}
	key := pinKey{list: q.List, version: resp.Version}
	if pinned, ok := ps.pins[key]; ok {
		if pinned != resp.Proof.Root {
			return nil, fmt.Errorf("%w: list %d version %d committed two different roots across rounds", ErrProofInvalid, q.List, resp.Version)
		}
		return next, nil
	}
	ps.pins[key] = resp.Proof.Root
	return next, nil
}
