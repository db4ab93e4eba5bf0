package adversary

import (
	"context"
	"fmt"
	"math"
	"sort"

	zerberr "zerberr"
	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/workload"
	"zerberr/internal/zerber"
)

// Corpus draws the collection the attacks index: the Stud.IP profile
// at 800 documents, small enough that several full systems (with and
// without the RSTF, BFM and random merge) build quickly.
func Corpus(seed uint64) *corpus.Corpus { return draw(800, seed) }

// BackgroundCorpus draws the adversary's own comparable corpus
// ("general language statistics" in the paper's terms): the same
// profile from an independent seed, twice the size of Corpus.
func BackgroundCorpus(seed uint64) *corpus.Corpus { return draw(1600, seed+0x5eed) }

func draw(docs int, seed uint64) *corpus.Corpus {
	p := corpus.ProfileStudIP()
	p.NumDocs = docs
	p.VocabSize = 8000
	return corpus.Generate(p, seed)
}

// System builds and indexes the system an attack runs against, at
// confidentiality parameter r: raw scores instead of the RSTF when
// identity is set, random merging instead of BFM when randomMerge is
// set, and per-element TRS jitter of the given width. A small r forces
// even mid-frequency (well-trained) terms into multi-term lists, the
// regime worth attacking; under a large r frequent terms sit in
// singleton lists.
func System(c *corpus.Corpus, seed uint64, r float64, identity, randomMerge bool, jitter float64) (*zerberr.System, error) {
	cfg := zerberr.DefaultConfig()
	cfg.Seed = seed
	cfg.R = r
	cfg.Codec = crypt.Compact64Codec{}
	cfg.SkipBaseline = true
	cfg.IdentityStore = identity
	cfg.RandomMerge = randomMerge
	cfg.TRSJitter = jitter
	sys, err := zerberr.Setup(c, cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.IndexAll(); err != nil {
		return nil, err
	}
	return sys, nil
}

// Elements is a run of one list's stored elements: the ranking values
// the server sees and, as ground truth, the terms they were indexed
// under.
type Elements struct {
	Visible []float64
	Terms   []corpus.TermID
}

// ReadList reads a list's elements with the system's group keys (the
// experiment's omniscient access), split into those of the RSTF's
// training documents and the rest, each in stored order.
func ReadList(sys *zerberr.System, list zerber.ListID) (train, rest Elements, err error) {
	trainDocs := make(map[corpus.DocID]bool, len(sys.Split.Train))
	for _, id := range sys.Split.Train {
		trainDocs[id] = true
	}
	snap, err := sys.Server.Snapshot(list)
	if err != nil {
		return train, rest, err
	}
	codec := sys.Config().Codec
	for _, el := range snap {
		plain, err := codec.Open(el.Sealed, sys.Keys[el.Group])
		if err != nil {
			return train, rest, err
		}
		e := &rest
		if trainDocs[plain.Doc] {
			e = &train
		}
		e.Visible = append(e.Visible, el.TRS)
		e.Terms = append(e.Terms, plain.Term)
	}
	return train, rest, nil
}

// View is the adversary's knowledge about one system. Her background
// comes from an independent comparable corpus whose per-term score
// statistics she maps into the server-visible domain: through the
// public RSTF store for a TRS system, into log-score space for an
// identity system (log space resolves the multiplicative differences
// between term score distributions).
type View struct {
	sys *zerberr.System
	// bg holds per-term distributions of her background corpus (the
	// composition attack's model).
	bg *Background
	// bgEl is her per-element attribution model: for a TRS system the
	// published RSTF's own training atoms, for an identity system bg.
	bgEl     *Background
	trainN   map[corpus.TermID]int
	logSpace bool
}

// NewView prepares the adversary's knowledge about sys from her
// background corpus.
func NewView(sys *zerberr.System, background *corpus.Corpus) *View {
	v := &View{sys: sys, trainN: make(map[corpus.TermID]int), logSpace: sys.Store.Identity()}
	allDocs := make([]corpus.DocID, background.NumDocs())
	for i := range allDocs {
		allDocs[i] = corpus.DocID(i)
	}
	bgScores := make(map[corpus.TermID][]float64)
	lo, hi := 0.0, 0.0
	if v.logSpace {
		lo = -7
	}
	for t, xs := range corpus.TrainingScores(background, allDocs) {
		v.trainN[t] = len(xs)
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = v.observable(sys.Store.TRS(t, 0, x))
			hi = math.Max(hi, out[i])
		}
		bgScores[t] = out
	}
	if hi <= lo {
		hi = lo + 1
	}
	v.bg = NewBackground(bgScores, 256, lo, hi)
	if v.logSpace {
		v.bgEl = v.bg
		return v
	}
	// The published RSTF's training atoms, mapped through the transform
	// itself: exactly where training-document elements land in TRS
	// space.
	atomScores := make(map[corpus.TermID][]float64, sys.Store.Len())
	for _, t := range sys.Store.Terms() {
		f := sys.Store.Get(t)
		atoms := f.TrainingPoints()
		out := make([]float64, len(atoms))
		for i, mu := range atoms {
			out[i] = f.Transform(mu)
		}
		atomScores[t] = out
	}
	v.bgEl = NewBackground(atomScores, 256, 0, 1)
	return v
}

// observable maps a visible TRS into the attack's feature space.
func (v *View) observable(x float64) float64 {
	if v.logSpace {
		return math.Log10(math.Max(x, 1e-7))
	}
	return x
}

// EligibleLists returns up to maxLists multi-term merged lists whose
// terms all have at least minTrain observations in the background
// corpus and which hold at least minElems elements.
func (v *View) EligibleLists(minTrain, minElems, maxLists int) []zerber.ListID {
	var out []zerber.ListID
	for _, list := range v.sys.Server.Lists() {
		if len(out) >= maxLists {
			break
		}
		terms := v.sys.Plan.Terms(list)
		if len(terms) < 2 || v.sys.Server.ListLen(list) < minElems {
			continue
		}
		ok := true
		for _, t := range terms {
			ok = ok && v.trainN[t] >= minTrain
		}
		if ok {
			out = append(out, list)
		}
	}
	return out
}

// list reads a list's elements into the attack's feature space.
func (v *View) list(list zerber.ListID) (train, rest Elements, err error) {
	train, rest, err = ReadList(v.sys, list)
	for _, e := range [2]Elements{train, rest} {
		for i, x := range e.Visible {
			e.Visible[i] = v.observable(x)
		}
	}
	return train, rest, err
}

// listPrior returns the Definition 2 within-list prior p_t/Σp.
func listPrior(plan *zerber.MergePlan, terms []corpus.TermID) map[corpus.TermID]float64 {
	prior := make(map[corpus.TermID]float64, len(terms))
	sum := 0.0
	for _, t := range terms {
		sum += plan.P(t)
	}
	for _, t := range terms {
		prior[t] = plan.P(t) / sum
	}
	return prior
}

// CompositionAttack is threat 1 at the list level ("undo the posting
// list merging"): for each two-term merged list the adversary knows a
// candidate set, the true terms plus decoys of similar document
// frequency, and picks the candidate pair whose df-weighted mixture
// maximizes the likelihood of the list's visible values. It returns
// the mean fraction of true terms recovered and the random-pair
// baseline over the lists measured.
//
// Elements of the RSTF's training documents are left out: their
// separate, much larger leak is ElementAttack's train tally; this
// attack measures the intended regime, where indexed documents were
// not part of the published transform's sample.
func CompositionAttack(v *View, lists []zerber.ListID, decoysPerList int) (acc, chance float64, measured int, err error) {
	c := v.sys.Corpus
	byDF := c.TermsByDF()
	for _, list := range lists {
		terms := v.sys.Plan.Terms(list)
		if len(terms) != 2 {
			continue
		}
		_, rest, err := v.list(list)
		if err != nil {
			return 0, 0, 0, err
		}
		if len(rest.Visible) < 20 {
			continue
		}
		// Decoys: trained terms of similar df to each true term, so a
		// frequency-mixed list gets a fair candidate set around both
		// frequency tiers.
		candidates := append([]corpus.TermID(nil), terms...)
		used := map[corpus.TermID]bool{terms[0]: true, terms[1]: true}
		for _, target := range terms {
			type cand struct {
				t    corpus.TermID
				dist int
			}
			var pool []cand
			for _, t := range byDF {
				if d := c.DF(t) - c.DF(target); !used[t] && v.trainN[t] >= 8 {
					pool = append(pool, cand{t, max(d, -d)})
				}
			}
			sort.Slice(pool, func(i, j int) bool {
				if pool[i].dist != pool[j].dist {
					return pool[i].dist < pool[j].dist
				}
				return pool[i].t < pool[j].t
			})
			for i := 0; i < decoysPerList/2 && i < len(pool); i++ {
				candidates = append(candidates, pool[i].t)
				used[pool[i].t] = true
			}
		}
		// Best mixture pair by summed log-likelihood.
		bestLL := math.Inf(-1)
		var bestA, bestB corpus.TermID
		for i := 0; i < len(candidates); i++ {
			for j := i + 1; j < len(candidates); j++ {
				a, b := candidates[i], candidates[j]
				wa, wb := float64(c.DF(a)), float64(c.DF(b))
				wa, wb = wa/(wa+wb), wb/(wa+wb)
				ll := 0.0
				for _, x := range rest.Visible {
					ll += math.Log(wa*v.bg.Likelihood(a, x) + wb*v.bg.Likelihood(b, x))
				}
				if ll > bestLL {
					bestLL, bestA, bestB = ll, a, b
				}
			}
		}
		hit := 0
		for _, t := range terms {
			if t == bestA || t == bestB {
				hit++
			}
		}
		acc += float64(hit) / 2
		chance += 2 / float64(len(candidates))
		measured++
	}
	if measured == 0 {
		return 0, 0, 0, fmt.Errorf("adversary: no eligible two-term lists for the composition attack")
	}
	return acc / float64(measured), chance / float64(measured), measured, nil
}

// Tally pools per-list attribution figures into per-element means over
// every element seen, each list weighted by its elements.
type Tally struct {
	// Acc is the attack's accuracy, Prior the prior-only guesser's.
	Acc, Prior float64
	// Amp is the mean of posterior / within-list prior p_t/Σp
	// (Definition 2's view, Amplification's quantity), AmpMax its
	// largest single ratio.
	Amp, AmpMax float64
	// Def1 is the mean of posterior / global prior P(t), the quantity
	// Definition 1 bounds by r; Def1Max its largest single ratio.
	Def1, Def1Max float64
	N             int
}

// add attributes one run of elements and scores it.
func (a *Tally) add(e Elements, plan *zerber.MergePlan, terms []corpus.TermID, bg *Background) {
	prior := listPrior(plan, terms)
	global := make(map[corpus.TermID]float64, len(terms))
	for _, t := range terms {
		global[t] = plan.P(t)
	}
	att := Attribute(e.Visible, terms, prior, bg)
	w := float64(len(e.Terms))
	amp, def1 := Amplification(att, e.Terms, prior), Amplification(att, e.Terms, global)
	a.Acc += w * Accuracy(att.Guess, e.Terms)
	a.Prior += w * PriorAccuracy(e.Terms, prior)
	a.Amp += w * amp.Mean
	a.AmpMax = math.Max(a.AmpMax, amp.Max)
	a.Def1 += w * def1.Mean
	a.Def1Max = math.Max(a.Def1Max, def1.Max)
	a.N += len(e.Terms)
}

// mean turns the weighted sums into per-element means.
func (a *Tally) mean() {
	if n := float64(a.N); n > 0 {
		a.Acc /= n
		a.Prior /= n
		a.Amp /= n
		a.Def1 /= n
	}
}

// ElementAttack runs per-element Bayesian attribution (threat 1 at the
// element level) on each list, tallying the elements of the RSTF's
// training documents and the rest separately.
func ElementAttack(v *View, lists []zerber.ListID) (train, rest Tally, err error) {
	for _, list := range lists {
		tr, re, err := v.list(list)
		if err != nil {
			return train, rest, err
		}
		terms := v.sys.Plan.Terms(list)
		train.add(tr, v.sys.Plan, terms, v.bgEl)
		rest.add(re, v.sys.Plan, terms, v.bgEl)
	}
	train.mean()
	rest.mean()
	return train, rest, nil
}

// ProbeRequestCounts runs threat 2: the adversary observes the request
// count of a top-k query against a merged list and guesses the queried
// term (RequestCountAttack) from the Equation 10/11 expected counts. It
// probes every term of the multi-term lists once, up to maxProbes, and
// returns her accuracy and the prior-only guesser's. The probes search
// with opts, and her model of the schedule reads the same first-window
// function the client sizes its requests with:
// client.WithInitialResponse(b) pins it to the paper's fixed b, no
// option derives it per list from the merge plan.
func ProbeRequestCounts(sys *zerberr.System, maxProbes int, opts ...client.SearchOption) (acc, prior float64, probes int, err error) {
	cl, err := sys.NewClient("attack-prober")
	if err != nil {
		return 0, 0, 0, err
	}
	const k = 10
	var accSum, priorSum float64
	for _, list := range sys.Server.Lists() {
		if probes >= maxProbes {
			break
		}
		terms := sys.Plan.Terms(list)
		if len(terms) < 2 {
			continue
		}
		// Her expected request count per candidate term, from public
		// df statistics (Eq. 10/11 and the doubling schedule).
		listDF := 0
		for _, t := range terms {
			listDF += sys.Corpus.DF(t)
		}
		w := cl.FirstWindow(list, k, opts...)
		expected := make(map[corpus.TermID]float64, len(terms))
		for _, t := range terms {
			pos := workload.PositionEstimate(k, sys.Corpus.DF(t), listDF)
			n := 1
			for covered := w; float64(covered) < pos && covered < listDF; n++ {
				covered += w << n
			}
			expected[t] = float64(n)
		}
		priorMap := listPrior(sys.Plan, terms)
		// Probe every merged term once: she watches real queries, and
		// uniform probing is her hardest case. Under it the prior-only
		// guesser names one fixed term per list, so its expected
		// accuracy is 1/|terms|.
		for _, t := range terms {
			if probes >= maxProbes {
				break
			}
			if sys.Corpus.DF(t) == 0 {
				continue
			}
			_, st, err := cl.Search(context.Background(), []corpus.TermID{t}, k, opts...)
			if err != nil {
				return 0, 0, 0, err
			}
			if RequestCountAttack(float64(st.Requests), expected, priorMap) == t {
				accSum++
			}
			priorSum += 1 / float64(len(terms))
			probes++
		}
	}
	if probes == 0 {
		return 0, 0, 0, fmt.Errorf("adversary: no request-count probes executed")
	}
	return accSum / float64(probes), priorSum / float64(probes), probes, nil
}
