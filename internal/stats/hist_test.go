package stats

import "testing"

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Bins {
		if c != 1 {
			t.Fatalf("bin %d has %d, want 1", i, c)
		}
	}
}

func TestHistogramClamps(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(5)
	if h.Bins[0] != 1 || h.Bins[1] != 0 || h.Bins[2] != 0 || h.Bins[3] != 1 {
		t.Fatalf("out-of-range values not clamped: %v", h.Bins)
	}
}

func TestHistogramDensityAndCenter(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	h.Add(3.5)
	if h.Bins[1] != 2 {
		t.Errorf("bin 1 holds %d, want 2", h.Bins[1])
	}
	if got := h.BinCenter(0); got != 0.5 {
		t.Errorf("BinCenter(0) = %v, want 0.5", got)
	}
	if got := h.BinCenter(3); got != 3.5 {
		t.Errorf("BinCenter(3) = %v, want 3.5", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 5) },
		func() { NewHistogram(2, 1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFreqCount(t *testing.T) {
	got := FreqCount([]int{1, 1, 2, 3, 3, 3})
	want := map[int]int{1: 2, 2: 1, 3: 3}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("FreqCount[%d] = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("FreqCount has %d keys, want %d", len(got), len(want))
	}
}

func TestLogBinPreservesMass(t *testing.T) {
	points := map[int]int{1: 10, 2: 5, 3: 3, 7: 2, 50: 1, 100: 1}
	xs, ys := LogBin(points, 2)
	if len(xs) != len(ys) {
		t.Fatalf("length mismatch %d vs %d", len(xs), len(ys))
	}
	total := 0.0
	for _, y := range ys {
		total += y
	}
	if total != 22 {
		t.Fatalf("mass = %v, want 22", total)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("bin centers not increasing: %v", xs)
		}
	}
}

func TestLogBinSkipsNonPositive(t *testing.T) {
	xs, ys := LogBin(map[int]int{0: 100, -3: 5, 2: 1}, 2)
	if len(xs) != 1 || ys[0] != 1 {
		t.Fatalf("non-positive keys should be skipped, got %v %v", xs, ys)
	}
}

func TestLogBinEmpty(t *testing.T) {
	xs, ys := LogBin(map[int]int{}, 2)
	if xs != nil || ys != nil {
		t.Fatal("empty input should give nil slices")
	}
}

func TestLogBinPanicsOnBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for base <= 1")
		}
	}()
	LogBin(map[int]int{1: 1}, 1)
}
