package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// Per-site workload (requests/minute), synthetic Azure trace:
	//   Edge 1: total   5117  min  105  max  537 req/min
	//   Edge 2: total   3905  min   76  max  436 req/min
	//   Edge 3: total   2529  min   46  max  192 req/min
	//   Edge 4: total   2264  min   51  max  290 req/min
	//   Edge 5: total   3831  min   54  max  623 req/min
	//
	// Minute-by-minute mean latency (ms):
	// minute           edge        cloud leader
	// 1                84.9        102.4 edge
	// 2               120.5        103.4 CLOUD (inversion)
	// 3                98.4        103.5 edge
	// 4                88.4        103.7 edge
	// 5               101.7        104.8 edge
	// 6                95.0        104.6 edge
	// 7                90.6        101.4 edge
	// 8                97.5        103.9 edge
	// 9                99.9        103.4 edge
	// 10               90.9        105.0 edge
	// 11               95.2        102.9 edge
	// 12               92.8        104.0 edge
	// 13               93.2        104.5 edge
	// 14              171.4        102.9 CLOUD (inversion)
	// 15               98.0        103.2 edge
	// 16               99.7        103.6 edge
	// 17               93.3        102.1 edge
	// 18               89.3        102.0 edge
	// 19               96.0        104.5 edge
	// 20              106.2        103.9 CLOUD (inversion)
	//
	// 3 of 20 minutes showed performance inversion.
	//
	// Per-site latency spread (the paper's Figure 10):
	//   Edge 1   median   89.6 ms   q3  125.1 ms   whisker   210.7 ms
	//   Edge 2   median   85.3 ms   q3  112.9 ms   whisker   183.4 ms
	//   Edge 3   median   80.2 ms   q3  103.5 ms   whisker   164.8 ms
	//   Edge 4   median   79.3 ms   q3  102.0 ms   whisker   161.5 ms
	//   Edge 5   median   91.4 ms   q3  132.1 ms   whisker   226.6 ms
	//   Cloud    median  100.7 ms   q3  118.6 ms   whisker   168.2 ms
	//
	// overall: edge mean 102.5 ms vs cloud mean 103.5 ms; edge p95 211.2 ms vs cloud p95 147.8 ms
}
