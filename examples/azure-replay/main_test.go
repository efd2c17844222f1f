package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// Per-site workload (requests/minute), synthetic Azure trace:
	//   Edge 1: total   5609  min  135  max  574 req/min
	//   Edge 2: total   3395  min  101  max  373 req/min
	//   Edge 3: total   2656  min   56  max  254 req/min
	//   Edge 4: total   1856  min   42  max  167 req/min
	//   Edge 5: total   5060  min   44  max  964 req/min
	//
	// Minute-by-minute mean latency (ms):
	// minute           edge        cloud leader
	// 1                88.7        105.5 edge
	// 2                94.3        104.1 edge
	// 3                99.8        104.8 edge
	// 4                98.0        103.1 edge
	// 5               121.3        103.8 CLOUD (inversion)
	// 6                89.1        104.4 edge
	// 7                88.1        103.3 edge
	// 8                97.4        102.8 edge
	// 9               108.1        102.7 CLOUD (inversion)
	// 10               87.3        103.8 edge
	// 11              108.4        101.7 CLOUD (inversion)
	// 12              122.6        103.0 CLOUD (inversion)
	// 13              104.4        102.5 CLOUD (inversion)
	// 14               93.2        104.6 edge
	// 15              156.4        104.4 CLOUD (inversion)
	// 16               96.8        103.8 edge
	// 17              107.7        103.5 CLOUD (inversion)
	// 18             5181.6        104.0 CLOUD (inversion)
	// 19             1383.7        102.2 CLOUD (inversion)
	// 20              105.2        104.1 CLOUD (inversion)
	//
	// 10 of 20 minutes showed performance inversion.
	//
	// Per-site latency spread (the paper's Figure 10):
	//   Edge 1   median   93.3 ms   q3  135.7 ms   whisker   234.6 ms
	//   Edge 2   median   83.5 ms   q3  109.9 ms   whisker   177.2 ms
	//   Edge 3   median   80.6 ms   q3  104.0 ms   whisker   165.5 ms
	//   Edge 4   median   80.6 ms   q3  101.1 ms   whisker   158.2 ms
	//   Edge 5   median  122.6 ms   q3  351.6 ms   whisker   761.0 ms
	//   Cloud    median  101.1 ms   q3  117.7 ms   whisker   166.0 ms
	//
	// overall: edge mean 562.6 ms vs cloud mean 103.5 ms; edge p95 3359.4 ms vs cloud p95 147.5 ms
}
