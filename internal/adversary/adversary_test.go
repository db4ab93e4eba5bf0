package adversary

import (
	"math"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

// twoTermWorld builds background + observations for two terms with
// controllable separation: term 1's scores are drawn near loc1, term
// 2's near loc2 (both with jitter), so separation loc2-loc1 dictates
// attack difficulty.
func twoTermWorld(loc1, loc2 float64, n int, seed uint64) (bg *Background, observed []float64, truth []corpus.TermID) {
	g := stats.NewRNG(seed)
	gen := func(loc float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Mod(math.Abs(loc+0.05*g.NormFloat64()), 1)
		}
		return out
	}
	bgScores := map[corpus.TermID][]float64{
		1: gen(loc1, 2000),
		2: gen(loc2, 2000),
	}
	bg = NewBackground(bgScores, 64, 0, 1)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			observed = append(observed, gen(loc1, 1)[0])
			truth = append(truth, 1)
		} else {
			observed = append(observed, gen(loc2, 1)[0])
			truth = append(truth, 2)
		}
	}
	return bg, observed, truth
}

func uniformPrior() map[corpus.TermID]float64 {
	return map[corpus.TermID]float64{1: 0.5, 2: 0.5}
}

func TestAttributeSeparableDistributions(t *testing.T) {
	bg, observed, truth := twoTermWorld(0.2, 0.7, 400, 1)
	att := Attribute(observed, []corpus.TermID{1, 2}, uniformPrior(), bg)
	acc := Accuracy(att.Guess, truth)
	if acc < 0.95 {
		t.Fatalf("separable distributions: accuracy %v, want > 0.95", acc)
	}
	amp := Amplification(att, truth, uniformPrior())
	if amp.Mean < 1.5 {
		t.Fatalf("separable distributions: mean amplification %v, want well above 1", amp.Mean)
	}
}

func TestAttributeIdenticalDistributions(t *testing.T) {
	// Same location: the attack can do no better than the prior.
	bg, observed, truth := twoTermWorld(0.5, 0.5, 400, 2)
	att := Attribute(observed, []corpus.TermID{1, 2}, uniformPrior(), bg)
	acc := Accuracy(att.Guess, truth)
	if math.Abs(acc-0.5) > 0.1 {
		t.Fatalf("identical distributions: accuracy %v, want about 0.5", acc)
	}
	amp := Amplification(att, truth, uniformPrior())
	if amp.Mean > 1.25 {
		t.Fatalf("identical distributions: mean amplification %v, want near 1", amp.Mean)
	}
}

func TestAttributeRespectsPrior(t *testing.T) {
	bg, observed, _ := twoTermWorld(0.5, 0.5, 200, 3)
	skewed := map[corpus.TermID]float64{1: 0.9, 2: 0.1}
	att := Attribute(observed, []corpus.TermID{1, 2}, skewed, bg)
	ones := 0
	for _, gss := range att.Guess {
		if gss == 1 {
			ones++
		}
	}
	if ones < len(att.Guess)*8/10 {
		t.Fatalf("with 0.9 prior on term 1, only %d/%d guesses were term 1", ones, len(att.Guess))
	}
}

func TestPosteriorNormalized(t *testing.T) {
	bg, observed, _ := twoTermWorld(0.3, 0.6, 50, 4)
	att := Attribute(observed, []corpus.TermID{1, 2}, uniformPrior(), bg)
	for i, post := range att.Posterior {
		sum := 0.0
		for _, p := range post {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("element %d posterior sums to %v", i, sum)
		}
	}
}

func TestAccuracyEdge(t *testing.T) {
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if Accuracy([]corpus.TermID{1}, []corpus.TermID{1, 2}) != 0 {
		t.Error("length mismatch should be 0")
	}
	if got := Accuracy([]corpus.TermID{1, 2}, []corpus.TermID{1, 1}); got != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", got)
	}
}

func TestPriorAccuracy(t *testing.T) {
	truth := []corpus.TermID{1, 1, 1, 2}
	prior := map[corpus.TermID]float64{1: 0.75, 2: 0.25}
	if got := PriorAccuracy(truth, prior); got != 0.75 {
		t.Errorf("PriorAccuracy = %v, want 0.75", got)
	}
	if got := PriorAccuracy(nil, prior); got != 0 {
		t.Errorf("empty PriorAccuracy = %v", got)
	}
	// Equally probable terms: the guesser names the smallest term ID,
	// whatever order the map is ranged in.
	tied := map[corpus.TermID]float64{7: 0.4, 3: 0.4, 9: 0.2}
	for i := 0; i < 50; i++ {
		if got := PriorAccuracy([]corpus.TermID{3, 3, 3, 7}, tied); got != 0.75 {
			t.Fatalf("tied PriorAccuracy = %v, want 0.75 (term 3 guessed)", got)
		}
	}
}

func TestBackgroundUnknownTermUniform(t *testing.T) {
	bg := NewBackground(map[corpus.TermID][]float64{1: {0.5}}, 10, 0, 1)
	if got := bg.Likelihood(99, 0.3); got != 0.1 {
		t.Errorf("unknown term likelihood %v, want uniform 0.1", got)
	}
}

func TestBackgroundClampsOutOfRange(t *testing.T) {
	bg := NewBackground(map[corpus.TermID][]float64{1: {-5, 12}}, 4, 0, 1)
	if bg.Likelihood(1, -3) <= 0 || bg.Likelihood(1, 7) <= 0 {
		t.Error("out-of-range values should land in edge bins")
	}
}

func TestRequestCountAttack(t *testing.T) {
	expected := map[corpus.TermID]float64{
		10: 1, // frequent term: one request
		20: 5, // rare term: five requests
	}
	prior := map[corpus.TermID]float64{10: 0.8, 20: 0.2}
	if got := RequestCountAttack(1.2, expected, prior); got != 10 {
		t.Errorf("observed 1.2 requests: guessed %d, want 10", got)
	}
	if got := RequestCountAttack(4.5, expected, prior); got != 20 {
		t.Errorf("observed 4.5 requests: guessed %d, want 20", got)
	}
	// Identical expected counts (BFM): the rule must follow the prior.
	flat := map[corpus.TermID]float64{10: 2, 20: 2}
	if got := RequestCountAttack(2, flat, prior); got != 10 {
		t.Errorf("flat counts: guessed %d, want prior-best 10", got)
	}
}

func TestAmplificationEmpty(t *testing.T) {
	amp := Amplification(Attribution{}, nil, nil)
	if amp.Mean != 0 || amp.Max != 0 {
		t.Error("empty amplification should be zero")
	}
}
