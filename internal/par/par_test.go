package par_test

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

// forEach runs body(i) for every i in [lo, hi] on the pool with the
// given grain, reporting whether the loop completed.
func forEach(p *par.Pool, lo, hi, grain int64, body func(i int64)) bool {
	return p.ForRangesOpts(nil, lo, hi, grain, func(start, end int64) {
		for i := start; i <= end; i++ {
			body(i)
		}
	})
}

// TestPoolCoverage verifies the persistent pool across many reuses —
// the wavefront dispatch pattern — including empty ranges.
func TestPoolCoverage(t *testing.T) {
	p := par.NewPool(4)
	defer p.Close()
	for round := 0; round < 200; round++ {
		n := int64(round % 17)
		counts := make([]atomic.Int32, n)
		if !forEach(p, 0, n-1, 0, func(i int64) { counts[i].Add(1) }) {
			t.Fatalf("round %d: loop reported cancelled", round)
		}
		for i := int64(0); i < n; i++ {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("round %d: index %d visited %d times", round, i, c)
			}
		}
	}
}

// TestPoolSingleWorker verifies the degenerate pool runs inline.
func TestPoolSingleWorker(t *testing.T) {
	p := par.NewPool(1)
	defer p.Close()
	sum := int64(0) // no atomics needed: single worker runs inline
	forEach(p, 1, 100, 0, func(i int64) { sum += i })
	if sum != 5050 {
		t.Errorf("sum = %d, want 5050", sum)
	}
}

// TestPoolGrain verifies grain settings do not lose iterations.
func TestPoolGrain(t *testing.T) {
	p := par.NewPool(3)
	defer p.Close()
	var count atomic.Int64
	forEach(p, 0, 999, 64, func(i int64) { count.Add(1) })
	if count.Load() != 1000 {
		t.Errorf("visited %d, want 1000", count.Load())
	}
}

// TestPoolCloseIdempotent verifies Close can be called twice.
func TestPoolCloseIdempotent(t *testing.T) {
	p := par.NewPool(2)
	p.Close()
	p.Close()
}

// TestForProperty is a property test: arbitrary ranges sum correctly
// under parallel execution.
func TestForProperty(t *testing.T) {
	p := par.NewPool(0)
	defer p.Close()
	f := func(loRaw int16, span uint16) bool {
		lo := int64(loRaw)
		hi := lo + int64(span%2000)
		var sum atomic.Int64
		forEach(p, lo, hi, 0, func(i int64) { sum.Add(i) })
		n := hi - lo + 1
		want := n * (lo + hi) / 2
		return sum.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDefaultWorkers sanity-checks the default and that a pool created
// with workers <= 0 uses it.
func TestDefaultWorkers(t *testing.T) {
	if par.DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
	p := par.NewPool(0)
	defer p.Close()
	if p.Workers() != par.DefaultWorkers() {
		t.Errorf("NewPool(0).Workers() = %d, want %d", p.Workers(), par.DefaultWorkers())
	}
}
