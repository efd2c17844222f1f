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
	// reactive                        167.1      631.5      3       107     4196    0.0186
	// predictive/ewma-0.5             103.3      210.2      2        28     4250    0.0188
	// predictive/sma-6                105.5      216.6      2        14     4265    0.0188
	// predictive/holt-0.5-0.3         103.0      209.4      2        36     4270    0.0188
	// predictive/naive                102.5      204.8      2        58     4285    0.0189
	// predictive/winmax-6              93.8      173.7      2        13     4635    0.0199
	//
	// lowest mean latency: predictive/winmax-6 (93.8 ms at 0.0199 $/kreq)
	// reactive baseline:   167.1 ms at 0.0186 $/kreq
	//
	// => prediction pays: provisioning for the forecast beats chasing the queue.
}
