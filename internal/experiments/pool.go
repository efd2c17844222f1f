package experiments

import (
	"runtime"
	"sync"
)

// forEach runs fn(0..n-1) on a pool of runtime.GOMAXPROCS(0) workers
// (never more than n). Each index is processed exactly once; fn must
// write its result into an index-addressed slot so the merged output is
// independent of scheduling order. With one worker the indices run
// serially on the calling goroutine, which keeps single-threaded runs
// allocation-free and easy to debug.
func forEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// forEachErr is forEach for fallible work: every index runs, and the
// error of the lowest failing index is returned, so which error surfaces
// does not depend on scheduling.
func forEachErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	forEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
