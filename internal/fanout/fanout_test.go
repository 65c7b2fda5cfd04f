package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapIsIndexOrdered(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 16} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			var calls atomic.Int64
			got := Map(n, workers, func(i int) int {
				calls.Add(1)
				return i * i
			})
			if len(got) != n || int(calls.Load()) != n {
				t.Fatalf("workers=%d n=%d: %d results from %d calls", workers, n, len(got), calls.Load())
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: out[%d] = %d, want %d", workers, n, i, v, i*i)
				}
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var live, peak atomic.Int64
		Map(64, workers, func(int) struct{} {
			n := live.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			live.Add(-1)
			return struct{}{}
		})
		if p := peak.Load(); p > int64(workers) {
			t.Fatalf("workers=%d: %d jobs ran at once", workers, p)
		}
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
}
