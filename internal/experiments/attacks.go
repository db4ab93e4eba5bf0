package experiments

import (
	"fmt"

	zerberr "zerberr"
	"zerberr/internal/adversary"
	"zerberr/internal/client"
	"zerberr/internal/stats"
	"zerberr/internal/zerber"
)

// AttackSimulations is extension experiment Ext-B: it measures the
// Section 4.1 threats against systems with and without the RSTF and
// with BFM vs random merging, so the paper's security claims become
// numbers. Three findings are reported:
//
//  1. List-composition attack (threat 1 as the paper frames it:
//     "undo the posting list merging"): strong against plain scores,
//     near chance against TRS.
//  2. Per-element attribution on non-training documents: near the
//     prior for both systems (most postings carry tf=1 and are
//     intrinsically anonymous), with TRS at or below plain scores and
//     amplification within Definition 1's bound.
//  3. Residual leak: elements of the RSTF's own training documents are
//     re-identifiable under TRS, because the published transform pins
//     their exact quantile positions — a limitation the paper does not
//     evaluate.
func AttackSimulations(e *Env) (*Result, error) {
	c, bg := adversary.Corpus(e.Seed), adversary.BackgroundCorpus(e.Seed)
	// r = 4 forces even mid-frequency (well-trained) terms into
	// multi-term lists, the regime worth attacking.
	const r = 4.0
	// The composition attack's systems, in row order. Frequency-mixed
	// lists (random merging, the paper's Figure 3 scenario: "and"
	// merged with "imClone") are where plain scores leak composition
	// ("frequent terms are more probably located in the head of the
	// merged posting list"); BFM's similar-frequency lists blunt the
	// attack even without the RSTF. The jittered system is the
	// countermeasure to extension finding 2: per-element TRS jitter
	// spreads shared score atoms, and to be effective its width must
	// exceed the typical per-term TRS gap (~1/df), which costs local
	// rank swaps near the top-k boundary.
	targets := []struct {
		name               string
		identity, random   bool
		jitter             float64
		minTrain, maxLists int
	}{
		{"plain scores, random merge", true, true, 0, 1, 120},
		{"TRS, random merge", false, true, 0, 1, 120},
		{"plain scores, BFM", true, false, 0, 15, 60},
		{"TRS, BFM", false, false, 0, 15, 60},
		{"TRS + jitter, BFM", false, false, 2e-2, 15, 60},
	}
	res := &Result{
		Headers: []string{"attack", "system", "adversary accuracy", "baseline", "mean amplification"},
	}
	// score is an attack's accuracy, its baseline's and the number of
	// lists or probes it was measured on.
	type score struct {
		acc, baseline float64
		n             int
	}
	comp := make([]score, len(targets))
	systems := make([]*zerberr.System, len(targets))
	views := make([]*adversary.View, len(targets))
	lists := make([][]zerber.ListID, len(targets))
	for i, t := range targets {
		sys, err := adversary.System(c, e.Seed, r, t.identity, t.random, t.jitter)
		if err != nil {
			return nil, err
		}
		systems[i], views[i] = sys, adversary.NewView(sys, bg)
		lists[i] = views[i].EligibleLists(t.minTrain, 40, t.maxLists)
		x := &comp[i]
		if x.acc, x.baseline, x.n, err = adversary.CompositionAttack(views[i], lists[i], 8); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []interface{}{"list composition", t.name, x.acc, x.baseline, "-"})
	}

	// Findings 2 and 3: per-element attribution split by training membership, on
	// the BFM systems.
	pTrain, pNon, err := adversary.ElementAttack(views[2], lists[2])
	if err != nil {
		return nil, err
	}
	tTrain, tNon, err := adversary.ElementAttack(views[3], lists[3])
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows,
		[]interface{}{"element attribution (non-train)", "plain scores (no RSTF)", pNon.Acc, pNon.Prior, pNon.Amp},
		[]interface{}{"element attribution (non-train)", "Zerber+R (TRS)", tNon.Acc, tNon.Prior, tNon.Amp},
		[]interface{}{"element attribution (train docs)", "plain scores (no RSTF)", pTrain.Acc, pTrain.Prior, pTrain.Amp},
		[]interface{}{"element attribution (train docs)", "Zerber+R (TRS)", tTrain.Acc, tTrain.Prior, tTrain.Amp},
	)

	// Threat 2: request-count attack on the TRS systems, BFM vs random
	// merge, on the paper's fixed b and on first windows derived per
	// list.
	var req [4]score
	for i, q := range []struct {
		sys  *zerberr.System
		opts []client.SearchOption
	}{
		{systems[3], []client.SearchOption{client.WithInitialResponse(10)}},
		{systems[1], []client.SearchOption{client.WithInitialResponse(10)}},
		{systems[3], nil},
		{systems[1], nil},
	} {
		x := &req[i]
		if x.acc, x.baseline, x.n, err = adversary.ProbeRequestCounts(q.sys, 400, q.opts...); err != nil {
			return nil, err
		}
	}
	res.Rows = append(res.Rows,
		[]interface{}{"request-count", "BFM merging", req[0].acc, req[0].baseline, "-"},
		[]interface{}{"request-count", "random merging", req[1].acc, req[1].baseline, "-"},
		[]interface{}{"request-count", "BFM, derived windows", req[2].acc, req[2].baseline, "-"},
		[]interface{}{"request-count", "random merging, derived windows", req[3].acc, req[3].baseline, "-"},
	)

	res.Series = []stats.Series{{
		Name: "advantage over baseline (composition: plain+rand, TRS+rand, plain+BFM, TRS+BFM; request: BFM, random)",
		X:    []float64{1, 2, 3, 4, 5, 6},
		Y:    []float64{comp[0].acc - comp[0].baseline, comp[1].acc - comp[1].baseline, comp[2].acc - comp[2].baseline, comp[3].acc - comp[3].baseline, req[0].acc - req[0].baseline, req[1].acc - req[1].baseline},
	}}
	res.Notes = append(res.Notes,
		fmt.Sprintf("composition attack on %d/%d (random merge, small sample) and %d/%d (BFM) two-term lists; request attack on %d/%d probes", comp[0].n, comp[1].n, comp[2].n, comp[3].n, req[0].n, req[1].n),
		"BFM already blunts value-only composition attacks on its own: similar-frequency merged terms share their bulk (tf=1) score statistics, so plain+BFM sits at chance",
		fmt.Sprintf("r = %.0f: Definition 1 demands amplification ≤ r; per-element attribution outside the training sample measures %.2f (TRS) vs %.2f (plain), max %.1f (TRS) — the paper's claim holds at the element level", r, tNon.Amp, pNon.Amp, tNon.AmpMax),
		fmt.Sprintf("extension finding 1: elements of the RSTF's own training documents are re-identified with %.0f%% accuracy under TRS (prior %.0f%%) — the published transform memorizes their quantiles; train on a held-out, non-indexed sample", tTrain.Acc*100, tTrain.Prior*100),
		fmt.Sprintf("countermeasure: 2e-2 TRS jitter drops the fine-structure composition attack to %.2f vs %.2f chance on %d lists; the cost is local rank swaps for score pairs whose TRS gap is below the jitter width", comp[4].acc, comp[4].baseline, comp[4].n),
		"extension finding 2: normalized-TF supports are discrete (score atoms like 1/|d| shared by all terms), and a published per-term RSTF maps those shared atoms to term-specific TRS positions — a fine-structure fingerprint that lets list composition be recovered (TRS rows) even though the TRS envelope is uniform; rank-preserving TRS jitter would close this channel",
		"request-count attack: BFM keeps follow-up counts indistinguishable (advantage near 0) exactly as Section 5.2 argues; random merging leaks the queried term's frequency tier",
		fmt.Sprintf("derived first windows (one size per list, from the merge plan): BFM %.4f vs %.4f at the fixed b = 10, random merging %.4f vs %.4f — the window is a function of the list ID the server already sees", req[2].acc, req[0].acc, req[3].acc, req[1].acc))
	return res, nil
}
