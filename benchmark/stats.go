package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number: the median over a run's timed rounds, with
// the quartiles, the round count, and the per-round sample count it rests on.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Rounds  int     `json:"rounds"`
	Samples int     `json:"samples"`
}

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// overRounds summarizes one value per round; samples is how many raw
// observations each round's value was computed from.
func overRounds(perRound []float64, unit string, samples int) metric {
	s := sortedCopy(perRound)
	return metric{
		Value: quantile(s, 0.5), Unit: unit,
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Rounds: len(s), Samples: samples,
	}
}

// single wraps a number measured once (a count, a ratio, a one-shot timing).
func single(v float64, unit string) metric {
	return metric{Value: v, Unit: unit, Q1: v, Q3: v, Rounds: 1, Samples: 1}
}

// percentile returns the p-th percentile of sorted latencies, lowered to the
// highest percentile that still has at least ten samples beyond it — a p99
// over 300 samples would be decided by three of them.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if beyond := float64(n) * (1 - p); beyond < 10 {
		p = 1 - 10/float64(n)
		if p < 0.5 {
			p = 0.5
		}
	}
	return quantile(sorted, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rng is a splitmix64 stream; every generated key and op derives from the
// run's -seed through one of these.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fnv64 is FNV-1a, the checksum behind every output check.
func fnv64(h uint64, s string) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// calibrationBytes is the fixed amount of product-independent work the
// calibration probe times.
const calibrationBytes = 4 << 20

// calibrate times a fixed FNV pass over a 4 MiB buffer (the median of reps
// passes; a reportable run makes 151, about a second in all, so that a brief
// disturbance cannot move it). It touches no product code, so it moves only
// when the machine does; it is what an end-to-end metric reports on a
// workload that does not define it.
func calibrate(reps int) time.Duration {
	buf := make([]byte, calibrationBytes)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var sink uint64
	times := make([]float64, reps)
	for r := range times {
		t0 := time.Now()
		h := uint64(14695981039346656037)
		for _, b := range buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
		times[r] = float64(time.Since(t0))
		sink += h
	}
	if sink == 42 { // keep the loop's result live
		return 0
	}
	return time.Duration(median(times))
}
