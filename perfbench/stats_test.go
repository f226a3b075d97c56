package main

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		med        float64
		q1, q3     float64
		spreadWant float64
	}{
		// Values from Python: statistics.quantiles(xs, n=4).
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25, 5.5 / 5.5},
		{[]float64{3, 1, 2}, 2, 1, 3, 1},
		{[]float64{4, 4}, 4, 4, 4, 0},
		{[]float64{1, 2, 4, 8, 16}, 4, 1.5, 12, 10.5 / 4},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if got := spread(c.xs); math.Abs(got-c.spreadWant) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.spreadWant)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 {
		t.Error("median or quartiles reordered its input")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.90, 10}, {20, 0.50, 10}, {19, 0.50, 9},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	var xs []float64
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if n := beyond(len(xs), 0.99); n != 10 {
		t.Errorf("samples beyond p99 of 1000 = %d, want 10", n)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestWindowRates(t *testing.T) {
	start := time.Unix(100, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	// Completions out of order, as two clients deliver them.
	done := []opDone{
		{at(600), 100}, {at(300), 100}, {at(1000), 200},
		{at(1500), 50}, {at(2600), 300},
		{at(2900), 1000}, // an unclosed last window is dropped
	}
	got := windowRates(done, start, time.Second)
	want := []float64{400, 350 / 1.6}
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("window %d rate = %v, want %v", i, got[i], want[i])
		}
	}
	// An op longer than the window is a window of its own.
	if got := windowRates([]opDone{{at(2500), 500}}, start, time.Second); len(got) != 1 || got[0] != 200 {
		t.Errorf("one long op: %v, want [200]", got)
	}
}
