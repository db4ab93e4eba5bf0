package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"zerberr/internal/corpus"
)

// sharedEnv is built once per test binary: experiments share systems,
// so the suite exercises the cache too.
var (
	envOnce sync.Once
	envInst *Env
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment environments are slow; skipping in -short mode")
	}
	envOnce.Do(func() {
		envInst = NewEnv(0.1, 7)
	})
	return envInst
}

func TestIDsComplete(t *testing.T) {
	ids := Paper().Names()
	want := []string{"ablation", "accuracy", "attacks", "bandwidth",
		"fig04", "fig05", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "windows"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Paper().Lookup("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func runAndRender(t *testing.T, id string) *Result {
	t.Helper()
	x, err := Paper().Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(context.Background(), testEnv(t))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID %q, want %q", res.ID, id)
	}
	out := res.Render()
	if !strings.Contains(out, res.Title) {
		t.Fatalf("%s render missing title", id)
	}
	return res
}

func TestFig04(t *testing.T) {
	res := runAndRender(t, "fig04")
	if len(res.Series) != 2 {
		t.Fatalf("fig04 has %d series", len(res.Series))
	}
	// Both tail slopes must be negative (decaying distributions).
	for _, row := range res.Rows {
		if slope := row[2].(float64); slope >= 0 {
			t.Fatalf("fig04 %v tail slope %v not negative", row[0], slope)
		}
	}
}

func TestFig05(t *testing.T) {
	res := runAndRender(t, "fig05")
	if len(res.Series) != 2 {
		t.Fatalf("fig05 has %d series", len(res.Series))
	}
	// Term-specificity: medians differ.
	m0 := res.Rows[0][2].(float64)
	m1 := res.Rows[1][2].(float64)
	if m0 == m1 {
		t.Fatal("fig05 probe terms have identical medians: no term specificity")
	}
}

func TestFig07(t *testing.T) {
	res := runAndRender(t, "fig07")
	if len(res.Series) != 6 { // 5 bells + accumulated
		t.Fatalf("fig07 has %d series, want 6", len(res.Series))
	}
	sum := res.Series[5]
	peak := 0.0
	for _, y := range sum.Y {
		if y > peak {
			peak = y
		}
	}
	if peak <= 0 {
		t.Fatal("fig07 accumulated density is flat")
	}
}

func TestFig08(t *testing.T) {
	res := runAndRender(t, "fig08")
	ys := res.Series[0].Y
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1]-1e-12 {
			t.Fatal("fig08 RSTF curve not monotone")
		}
	}
	if ys[0] < 0 || ys[len(ys)-1] > 1 {
		t.Fatal("fig08 RSTF outside [0,1]")
	}
}

func TestFig09(t *testing.T) {
	res := runAndRender(t, "fig09")
	best := res.Rows[0][0].(float64)
	minVar := res.Rows[0][1].(float64)
	loVar := res.Rows[0][2].(float64)
	hiVar := res.Rows[0][3].(float64)
	if !(minVar < loVar && minVar < hiVar) {
		t.Fatalf("fig09: optimum %v is no interior minimum (smallest sigma %v, largest %v)", minVar, loVar, hiVar)
	}
	if best <= 0 {
		t.Fatalf("fig09: nonsensical optimal sigma %v", best)
	}
}

// TestFig09TermTieBreak hands the term choice tied sample sizes: the
// lowest TermID must win whatever order the map is ranged in (run with
// -count=200 to see map order flap a choice that depends on it).
func TestFig09TermTieBreak(t *testing.T) {
	train := map[corpus.TermID][]float64{}
	control := map[corpus.TermID][]float64{}
	for id := corpus.TermID(40); id > 8; id-- {
		train[id] = make([]float64, 9)
		control[id] = make([]float64, 6+int(id)%2*3) // 6 or 9 control points
	}
	train[3] = make([]float64, 50) // plenty of training data, but no control data at all
	for i := 0; i < 20; i++ {
		if term, n := bestCalibratedTerm(train, control); term != 9 || n != 9 {
			t.Fatalf("picked term %d with %d samples, want the lowest tied term 9 with 9", term, n)
		}
	}
	if term, n := bestCalibratedTerm(nil, control); term != 0 || n != 0 {
		t.Fatalf("empty training set picked term %d, %d", term, n)
	}
}

// TestFig08ProbeTermTieBreak leaves no corpus term with minSamples
// training points, so the choice falls back to the best-sampled term,
// and hands it two tied ones: the lower TermID must win on every run,
// not whichever the map ranges first.
func TestFig08ProbeTermTieBreak(t *testing.T) {
	c := corpus.Ingest([]corpus.RawDoc{{Text: "quartz zebra violin"}, {Text: "quartz harbor"}}, nil)
	train := map[corpus.TermID][]float64{
		31: {0.1, 0.2, 0.3},
		17: {0.4, 0.5, 0.6},
		23: {0.7},
	}
	for i := 0; i < 50; i++ {
		if term, xs := probeTermWithSamples(c, train, 40); term != 17 || len(xs) != 3 {
			t.Fatalf("run %d picked term %d with %d samples, want the lower tied term 17 with 3", i, term, len(xs))
		}
	}
}

func TestFig10(t *testing.T) {
	res := runAndRender(t, "fig10")
	ys := res.Series[0].Y
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1]-1e-9 {
			t.Fatal("fig10 cumulative curve not monotone")
		}
	}
	// Head concentration: first 10% of terms should carry > 40% of the
	// workload.
	idx := len(ys) / 10
	if idx > 0 && ys[idx] < 40 {
		t.Fatalf("fig10: first 10%% of terms carry only %.1f%% of workload", ys[idx])
	}
}

func TestFig11MinimumNearK(t *testing.T) {
	res := runAndRender(t, "fig11")
	if len(res.Series) != 6 {
		t.Fatalf("fig11 has %d series, want 6", len(res.Series))
	}
	// The paper's headline: best b tracks k. Allow one grid step of
	// slack (the grid is {1,2,5,10,20,50,100}).
	for _, row := range res.Rows {
		k := row[1].(int)
		bestB := row[2].(int)
		if bestB > 4*k || k > 10*bestB {
			t.Fatalf("fig11 %v k=%d: best b=%d too far from k", row[0], k, bestB)
		}
	}
}

func TestFig12Monotone(t *testing.T) {
	res := runAndRender(t, "fig12")
	for _, s := range res.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-9 {
				t.Fatalf("fig12 %s: requests increased with larger b", s.Name)
			}
		}
	}
	// At b=100 almost everything should finish in one request.
	for _, row := range res.Rows {
		if at100 := row[3].(float64); at100 > 2.5 {
			t.Fatalf("fig12 %v k=%v: %v requests at b=100", row[0], row[1], at100)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	res := runAndRender(t, "fig13")
	if len(res.Series) != 6 {
		t.Fatalf("fig13 has %d series, want 6", len(res.Series))
	}
	for _, s := range res.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-9 {
				t.Fatalf("fig13 %s not non-increasing", s.Name)
			}
		}
		if s.Y[0] > 1.000001 {
			t.Fatalf("fig13 %s starts above 1", s.Name)
		}
	}
	// b=10 should give more queries at QRatio=1 than b=50 on the same
	// collection (rows are ordered b=10,20,50 per profile).
	for _, prof := range []int{0, 3} {
		at10 := res.Rows[prof][2].(float64)
		at50 := res.Rows[prof+2][2].(float64)
		if at10 < at50 {
			t.Fatalf("fig13: b=10 share at QRatio=1 (%v) below b=50 (%v)", at10, at50)
		}
	}
}

func TestBandwidth(t *testing.T) {
	res := runAndRender(t, "bandwidth")
	if len(res.Rows) < 6 {
		t.Fatalf("bandwidth table has %d rows", len(res.Rows))
	}
	// Per-element bytes must match the compact codec (paper parity).
	if got := res.Rows[1][2].(float64); got != 8 {
		t.Fatalf("bandwidth: element bytes %v, want 8", got)
	}
	// Throughput must be positive.
	if qps := res.Rows[5][2].(float64); qps <= 0 {
		t.Fatalf("bandwidth: qps %v", qps)
	}
}

func TestAccuracy(t *testing.T) {
	res := runAndRender(t, "accuracy")
	vsTFIDF := res.Rows[0][1].(float64)
	vsNormTF := res.Rows[1][1].(float64)
	if vsNormTF < vsTFIDF-0.05 {
		t.Fatalf("accuracy: overlap vs IDF-free (%v) should be at least vs TF-IDF (%v)", vsNormTF, vsTFIDF)
	}
	// The missing-IDF trade-off is real and substantial on a Zipf-heavy
	// synthetic corpus; the check only guards against total collapse.
	if vsTFIDF < 0.1 {
		t.Fatalf("accuracy: overlap vs TF-IDF %v implausibly low", vsTFIDF)
	}
	if vsNormTF < 0.5 {
		t.Fatalf("accuracy: overlap vs IDF-free %v too low", vsNormTF)
	}
}

// attackRow finds a row by its (attack, system) labels.
func attackRow(t *testing.T, res *Result, attack, system string) []interface{} {
	t.Helper()
	for _, row := range res.Rows {
		if row[0] == attack && row[1] == system {
			return row
		}
	}
	t.Fatalf("attacks: no row for (%s, %s); rows: %v", attack, system, res.Rows)
	return nil
}

func TestAttacks(t *testing.T) {
	res := runAndRender(t, "attacks")
	if len(res.Rows) != 13 {
		t.Fatalf("attacks table has %d rows, want 13", len(res.Rows))
	}
	// Threat 1a: list composition. BFM's similar-frequency merging
	// keeps the value-only attack near chance on plain scores (merged
	// terms share their bulk statistics — that is BFM working).
	plainBFM := attackRow(t, res, "list composition", "plain scores, BFM")
	bfmCompAdv := plainBFM[2].(float64) - plainBFM[3].(float64)
	if bfmCompAdv > 0.15 {
		t.Fatalf("attacks: plain+BFM composition advantage %.3f, want near chance", bfmCompAdv)
	}
	// Extension finding: the published per-term RSTF maps the shared
	// score atoms to term-specific TRS positions, creating a
	// fine-structure fingerprint the plain index did not have.
	trsBFM := attackRow(t, res, "list composition", "TRS, BFM")
	trsCompAdv := trsBFM[2].(float64) - trsBFM[3].(float64)
	if trsCompAdv < bfmCompAdv+0.1 {
		t.Fatalf("attacks: TRS fine-structure composition advantage %.3f not above plain %.3f — finding disappeared", trsCompAdv, bfmCompAdv)
	}
	// And the jitter countermeasure must close most of that channel.
	jit := attackRow(t, res, "list composition", "TRS + jitter, BFM")
	jitAdv := jit[2].(float64) - jit[3].(float64)
	if jitAdv > trsCompAdv/2 {
		t.Fatalf("attacks: jittered composition advantage %.3f not well below unjittered %.3f", jitAdv, trsCompAdv)
	}
	// Threat 1b: per-element attribution outside the training sample —
	// amplification must respect Definition 1 (r=4 here) and stay
	// small for TRS.
	trsEl := attackRow(t, res, "element attribution (non-train)", "Zerber+R (TRS)")
	if amp := trsEl[4].(float64); amp > 1.5 {
		t.Fatalf("attacks: TRS non-train amplification %.3f should stay near 1", amp)
	}
	// Residual leak on training documents must be present (that is the
	// extension finding) and much larger under TRS than the non-train
	// attribution.
	trsTrain := attackRow(t, res, "element attribution (train docs)", "Zerber+R (TRS)")
	leak := trsTrain[2].(float64) - trsTrain[3].(float64)
	if leak < 0.2 {
		t.Fatalf("attacks: training-doc leak %.3f unexpectedly small — finding disappeared", leak)
	}
	// Threat 2: random merging must leak through request counts while
	// BFM stays near its prior.
	bfm := attackRow(t, res, "request-count", "BFM merging")
	random := attackRow(t, res, "request-count", "random merging")
	bfmAdv := bfm[2].(float64) - bfm[3].(float64)
	randAdv := random[2].(float64) - random[3].(float64)
	if randAdv < bfmAdv+0.05 {
		t.Fatalf("attacks: request-count advantage random (%.3f) not clearly above BFM (%.3f)", randAdv, bfmAdv)
	}
	if bfmAdv > 0.1 {
		t.Fatalf("attacks: BFM request-count advantage %.3f, want near zero", bfmAdv)
	}
	// First windows derived per list are a function of the list ID the
	// server already sees: an adversary who models them exactly guesses
	// the term no better than against the fixed b.
	derived := attackRow(t, res, "request-count", "BFM, derived windows")
	if derived[2].(float64) > bfm[2].(float64) {
		t.Fatalf("attacks: request-count accuracy %.4f with derived windows, above %.4f with the fixed b", derived[2], bfm[2])
	}
}

// TestWindowSweep: on both plans and at every k, windows derived per
// list never take more rounds than the fixed b = 10, and at the
// paper's k = 10 they read at most 10 % more elements.
func TestWindowSweep(t *testing.T) {
	res := runAndRender(t, "windows")
	if len(res.Rows) != 2*len(windowKs) {
		t.Fatalf("windows table has %d rows, want %d", len(res.Rows), 2*len(windowKs))
	}
	for _, row := range res.Rows {
		plan, k := row[0], row[1].(int)
		pinnedRounds, derivedRounds := row[2].(float64), row[3].(float64)
		pinnedElems, derivedElems := row[6].(float64), row[7].(float64)
		if derivedRounds > pinnedRounds {
			t.Errorf("%s, k=%d: %.3f rounds derived, %.3f with b=10", plan, k, derivedRounds, pinnedRounds)
		}
		if k == 10 && derivedElems > 1.10*pinnedElems {
			t.Errorf("%s, k=10: %.1f elements derived, over 1.10 × %.1f with b=10", plan, derivedElems, pinnedElems)
		}
	}
}

func TestAblation(t *testing.T) {
	res := runAndRender(t, "ablation")
	var rstfVar, rawVar, bfmSpread, randSpread float64
	for _, row := range res.Rows {
		switch {
		case row[0] == "transform" && row[1] == "Gaussian-sum RSTF":
			rstfVar = row[3].(float64)
		case row[0] == "transform" && row[1] == "identity (raw scores)":
			rawVar = row[3].(float64)
		case row[0] == "merge" && row[1] == "BFM":
			bfmSpread = row[3].(float64)
		case row[0] == "merge" && row[1] == "random":
			randSpread = row[3].(float64)
		}
	}
	if !(rstfVar < rawVar/5) {
		t.Fatalf("ablation: RSTF variance %v not far below raw %v", rstfVar, rawVar)
	}
	if !(bfmSpread < randSpread) {
		t.Fatalf("ablation: BFM df spread %v not below random %v", bfmSpread, randSpread)
	}
}

func TestSampleTerms(t *testing.T) {
	terms := make([]corpus.TermID, 100)
	freq := func(t corpus.TermID) int { return 1000 - int(t) }
	for i := range terms {
		terms[i] = corpus.TermID(i)
	}
	// Under cap: identity.
	all := sampleTerms(terms, freq, 200)
	if len(all) != 100 {
		t.Fatalf("under cap: %d samples", len(all))
	}
	totalW := 0.0
	for _, s := range all {
		totalW += s.weight
	}
	// Over cap: weights must still sum to the full workload.
	sampled := sampleTerms(terms, freq, 20)
	if len(sampled) > 25 {
		t.Fatalf("over cap: %d samples", len(sampled))
	}
	sampledW := 0.0
	for _, s := range sampled {
		sampledW += s.weight
	}
	if sampledW != totalW {
		t.Fatalf("sampled weight %v != total %v", sampledW, totalW)
	}
}
