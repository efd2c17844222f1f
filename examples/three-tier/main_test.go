package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// skewed workload: 48.8 req/s aggregate, hottest site 46%
	//
	// edge (5x2)                   mean   142.9 ms   p95    396.7 ms
	// cloud (10)                   mean   103.6 ms   p95    147.5 ms
	// edge+regional+cloud (5+2+3)  mean   129.2 ms   p95    243.6 ms
	//
	// where the chain served its requests:
	//   edge      served 19878 (76.0%)  spilled on  6991  mean   136.3 ms
	//   regional  served  5927 (22.7%)  spilled on   387  mean   106.3 ms
	//   cloud     served   353 ( 1.3%)  spilled on     0  mean   117.6 ms
	//
	// => the hierarchy rescues the skew-inverted edge, approaching the pooled cloud.
}
