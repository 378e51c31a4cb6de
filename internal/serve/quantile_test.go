package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// histStats builds a Stats whose histogram and MaxLatency are
// consistent with the given latency samples, the way noteLatency would.
func histStats(samples []time.Duration) Stats {
	var s Stats
	for _, lat := range samples {
		s.LatencyHist[LatencyBucket(lat)]++
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
	}
	s.Decided = int64(len(samples))
	return s
}

// coveringBucket returns the [lo, hi] bounds of the histogram bucket
// that covers quantile q — the bucket LatencyQuantile interpolates in.
func coveringBucket(s Stats, q float64) (lo, hi int64) {
	var total int64
	for _, n := range s.LatencyHist {
		total += n
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range s.LatencyHist {
		if n == 0 {
			continue
		}
		seen += n
		if seen < rank {
			continue
		}
		lo, hi = 0, 1
		if i > 0 {
			lo = int64(1) << (i - 1)
			if i == LatencyBuckets-1 {
				hi = math.MaxInt64
			} else {
				hi = lo * 2
			}
		}
		return lo, hi
	}
	return 0, 0
}

// randomLatencies draws n samples spread across the histogram's whole
// magnitude range, including the extremes the top and bottom buckets
// cover.
func randomLatencies(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		switch rng.Intn(16) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = time.Duration(math.MaxInt64) // bucket 63
		default:
			out[i] = time.Duration(rng.Int63() >> uint(rng.Intn(62)))
		}
	}
	return out
}

// TestLatencyQuantileTopBucketRegression pins the int64 overflow fix:
// with counts in bucket 63 the upper edge 2*2^62 used to wrap negative,
// dragging the interpolated estimate BELOW the bucket floor. Any
// quantile covered by bucket 63 must now land in [2^62, MaxLatency].
func TestLatencyQuantileTopBucketRegression(t *testing.T) {
	var s Stats
	s.LatencyHist[LatencyBuckets-1] = 5
	s.MaxLatency = time.Duration(math.MaxInt64)
	floor := time.Duration(1) << (LatencyBuckets - 2)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		got := s.LatencyQuantile(q)
		if got <= 0 {
			t.Fatalf("q=%v: non-positive estimate %v from a bucket-63 histogram", q, got)
		}
		if got < floor || got > s.MaxLatency {
			t.Fatalf("q=%v: estimate %v outside [%v, %v]", q, got, floor, s.MaxLatency)
		}
	}
	// The exact-max clamp still applies on top of the overflow fix.
	s.MaxLatency = floor + 12345
	if got := s.LatencyQuantile(1); got != s.MaxLatency {
		t.Fatalf("estimate %v not clamped to the exact max %v", got, s.MaxLatency)
	}
}

// TestLatencyQuantileProperties is the estimator's property suite over
// randomized consistent histograms: monotone non-decreasing in q, never
// above the exact MaxLatency, never below the covering bucket's floor.
func TestLatencyQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	qs := []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 200; trial++ {
		s := histStats(randomLatencies(rng, 1+rng.Intn(400)))
		prev := time.Duration(-1)
		for _, q := range qs {
			got := s.LatencyQuantile(q)
			if got < prev {
				t.Fatalf("trial %d: estimate not monotone: q=%v gives %v after %v", trial, q, got, prev)
			}
			prev = got
			if got > s.MaxLatency {
				t.Fatalf("trial %d: q=%v estimate %v exceeds max %v", trial, q, got, s.MaxLatency)
			}
			if lo, _ := coveringBucket(s, q); got < time.Duration(lo) {
				t.Fatalf("trial %d: q=%v estimate %v below covering bucket floor %v", trial, q, got, lo)
			}
		}
	}
}

// TestLatencyQuantileMergeBounded covers the sharded engine's
// aggregation path: summing two histograms field-wise (MaxLatency takes
// the maximum, as Engine.Stats does) must give estimates between the
// two inputs' extremes — at the histogram's bucket granularity, the
// merged covering bucket provably lies between the inputs' covering
// buckets, so every merged estimate stays within [min of the inputs'
// bucket floors, max of the inputs' bucket ceilings].
func TestLatencyQuantileMergeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0, 0.01, 0.1, 0.5, 0.9, 0.99, 1}
	for trial := 0; trial < 200; trial++ {
		a := histStats(randomLatencies(rng, 1+rng.Intn(300)))
		b := histStats(randomLatencies(rng, 1+rng.Intn(300)))
		merged := a
		for i := range merged.LatencyHist {
			merged.LatencyHist[i] += b.LatencyHist[i]
		}
		if b.MaxLatency > merged.MaxLatency {
			merged.MaxLatency = b.MaxLatency
		}
		for _, q := range qs {
			loA, hiA := coveringBucket(a, q)
			loB, hiB := coveringBucket(b, q)
			lo, hi := min(loA, loB), max(hiA, hiB)
			got := merged.LatencyQuantile(q)
			if got < time.Duration(lo) || got > time.Duration(hi) {
				t.Fatalf("trial %d: q=%v merged estimate %v outside input bucket span [%v, %v] (A [%d,%d], B [%d,%d])",
					trial, q, got, lo, hi, loA, hiA, loB, hiB)
			}
		}
	}
}
