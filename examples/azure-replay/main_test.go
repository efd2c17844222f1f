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
	// 1                89.8        105.6 edge
	// 2                91.0        103.6 edge
	// 3               101.7        104.8 edge
	// 4               100.6        103.8 edge
	// 5               187.3        103.7 CLOUD (inversion)
	// 6                89.9        103.8 edge
	// 7                86.9        103.6 edge
	// 8                96.5        102.1 edge
	// 9               104.5        103.8 CLOUD (inversion)
	// 10               89.3        102.9 edge
	// 11              103.6        101.7 CLOUD (inversion)
	// 12              120.4        102.9 CLOUD (inversion)
	// 13              106.9        102.5 CLOUD (inversion)
	// 14               95.6        104.5 edge
	// 15              408.0        104.6 CLOUD (inversion)
	// 16               96.5        104.2 edge
	// 17              111.2        102.9 CLOUD (inversion)
	// 18             5210.5        104.5 CLOUD (inversion)
	// 19             1639.6        102.2 CLOUD (inversion)
	// 20              113.4        103.9 CLOUD (inversion)
	//
	// 10 of 20 minutes showed performance inversion.
	//
	// Per-site latency spread (the paper's Figure 10):
	//   Edge 1   median   93.9 ms   q3  141.2 ms   whisker   247.3 ms
	//   Edge 2   median   82.5 ms   q3  108.2 ms   whisker   173.8 ms
	//   Edge 3   median   80.6 ms   q3  103.7 ms   whisker   164.6 ms
	//   Edge 4   median   79.7 ms   q3   99.3 ms   whisker   154.4 ms
	//   Edge 5   median  133.3 ms   q3 1289.6 ms   whisker  3103.3 ms
	//   Cloud    median  101.2 ms   q3  117.9 ms   whisker   166.1 ms
	//
	// overall: edge mean 615.2 ms vs cloud mean 103.6 ms; edge p95 4334.3 ms vs cloud p95 148.3 ms
}
