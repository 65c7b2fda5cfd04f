// Package fanout runs independent, index-addressed jobs on a goroutine
// pool whose size comes from the machine. It is the one place that
// decides how many goroutines detection and discovery use.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the pool size a request for n workers gets: n itself
// when positive, otherwise runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map returns fn(0), ..., fn(n-1), computed by up to Workers(workers)
// goroutines that claim indexes in ascending order. Results come back
// indexed by position, so callers reduce them in a fixed order
// regardless of scheduling; a pool of one is the plain serial loop.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
