package experiments

import (
	"runtime"
	"sync"
)

// DefaultWorkers is the worker-pool size used when a config leaves
// Workers at 0. It defaults to the machine's logical CPU count and is
// overridable by front ends (cmd/figures -workers).
var DefaultWorkers = runtime.NumCPU()

// forEach runs fn(0..n-1) on a bounded pool of the given size (0 means
// DefaultWorkers, and the pool never exceeds n). Each index
// is processed exactly once; fn must write its result into an
// index-addressed slot so the merged output is independent of scheduling
// order. With workers <= 1 the indices run serially on the calling
// goroutine, which keeps single-threaded runs allocation-free and easy to
// debug.
func forEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers
	}
	workers = min(max(workers, 1), n)
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
func forEachErr(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	forEach(n, workers, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
