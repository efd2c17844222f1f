package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// skewed workload: 48.8 req/s aggregate, hottest site 46%
	//
	// edge (5x2)                   mean   151.7 ms   p95    472.0 ms
	// cloud (10)                   mean   103.5 ms   p95    147.4 ms
	// edge+regional+cloud (5+2+3)  mean   129.7 ms   p95    242.4 ms
	//
	// where the chain served its requests:
	//   edge      served 20183 (76.1%)  spilled on  7025  mean   136.5 ms
	//   regional  served  5956 (22.5%)  spilled on   405  mean   106.9 ms
	//   cloud     served   376 ( 1.4%)  spilled on     0  mean   122.1 ms
	//
	// => the hierarchy rescues the skew-inverted edge, approaching the pooled cloud.
}
