package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// diurnal workload, 5 edge sites, scaler policy comparison
	// (same trace, same seed — every difference is the policy)
	//
	// policy                      mean (ms)   p95 (ms)   peak   actions  srv-sec    $/kreq
	// predictive/holt-0.5-0.3         102.2      208.0      2        36     4226    0.0186
	// predictive/naive                103.9      213.9      2        50     4236    0.0187
	// predictive/ewma-0.5             103.3      210.0      2        26     4266    0.0188
	// predictive/sma-6                104.1      213.9      2        12     4271    0.0188
	// reactive                        147.1      527.3      3       111     4471    0.0194
	// predictive/winmax-6              94.9      178.7      2        12     4546    0.0196
	//
	// lowest mean latency: predictive/winmax-6 (94.9 ms at 0.0196 $/kreq)
	// reactive baseline:   147.1 ms at 0.0194 $/kreq
	//
	// => prediction pays: provisioning for the forecast beats chasing the queue.
}
