package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// skewed workload: per-site shares [49% 21% 13% 9% 7%], aggregate 39.0 req/s (60% of capacity)
	//
	// edge (no balancing)    mean 78116.5 ms   p95 260423.2 ms
	// edge (geographic LB)   mean   128.3 ms   p95    241.0 ms
	// cloud (5 servers)      mean   108.5 ms   p95    159.5 ms
	//
	// geographic LB redirected 4815 requests (20.5% of the workload)
	//
	// per-site utilization without balancing:
	//   site 1: 100% utilized, mean 155015.6 ms
	//   site 2: 43% utilized, mean   150.6 ms
	//   site 3: 27% utilized, mean   107.4 ms
	//   site 4: 19% utilized, mean    91.4 ms
	//   site 5: 14% utilized, mean    88.7 ms
	//
	// => skew caused inversion; jockeying helped but the cloud still wins.
}
