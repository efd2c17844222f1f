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
	// predictive/sma-6                104.6      219.8      2        12     4235    0.0184
	// predictive/ewma-0.5             103.0      213.4      2        26     4245    0.0185
	// predictive/holt-0.5-0.3         103.8      214.9      3        31     4245    0.0185
	// predictive/naive                103.0      212.2      2        52     4260    0.0185
	// reactive                        170.9      684.3      3       110     4366    0.0188
	// predictive/winmax-6              94.8      178.3      2        12     4565    0.0194
	//
	// lowest mean latency: predictive/winmax-6 (94.8 ms at 0.0194 $/kreq)
	// reactive baseline:   170.9 ms at 0.0188 $/kreq
	//
	// => prediction pays: provisioning for the forecast beats chasing the queue.
}
