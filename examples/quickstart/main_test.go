package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// analytic cutoff utilization (exact M/M): 24%
	// edge : mean 101.4 ms   p95  196.3 ms   (utilization 62%)
	// cloud: mean 105.8 ms   p95  151.4 ms
	// => tail inversion: the edge still wins on mean, but its p95 is already
	//    worse than the cloud's — the paper's Figure 5 effect.
	//
	// streamed replay (no trace in memory): 24007 requests, mean 101.4 ms (exact match: true)
}
