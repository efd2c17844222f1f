package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// skewed workload: per-site shares [49% 21% 13% 9% 7%], aggregate 39.0 req/s (60% of capacity)
	//
	// edge (no balancing)    mean 71046.5 ms   p95 244630.6 ms
	// edge (geographic LB)   mean   128.1 ms   p95    242.9 ms
	// cloud (5 servers)      mean   109.1 ms   p95    162.5 ms
	//
	// geographic LB redirected 4573 requests (19.6% of the workload)
	//
	// per-site utilization without balancing:
	//   site 1: 100% utilized, mean 143747.9 ms
	//   site 2: 44% utilized, mean   156.8 ms
	//   site 3: 27% utilized, mean   104.1 ms
	//   site 4: 19% utilized, mean    92.3 ms
	//   site 5: 15% utilized, mean    90.5 ms
	//
	// => skew caused inversion; jockeying helped but the cloud still wins.
}
