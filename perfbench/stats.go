package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs, NaN when xs is empty. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// is how run-to-run spread is judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-th percentile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// percentile returns the nearest-rank q-th percentile of xs, NaN when xs
// is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rateWindow is the shortest window a throughput sample covers.
const rateWindow = time.Second

// windowRates cuts the time after start into consecutive windows, each
// closing at the first op completion at least w after the window opened,
// and returns each closed window's records per second. Ops longer than w
// are a window each. The median of these rates is steadier than the
// mean rate over the run, which one stalled second moves.
func windowRates(done []opDone, start time.Time, w time.Duration) []float64 {
	ds := append([]opDone(nil), done...)
	sort.Slice(ds, func(i, j int) bool { return ds[i].at.Before(ds[j].at) })
	var rates []float64
	open, recs := start, int64(0)
	for _, d := range ds {
		recs += d.records
		if span := d.at.Sub(open); span >= w {
			rates = append(rates, float64(recs)/span.Seconds())
			open, recs = d.at, 0
		}
	}
	return rates
}
