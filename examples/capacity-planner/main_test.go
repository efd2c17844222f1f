package main

// Example runs the walkthrough and checks what it prints, so a change
// to any number it reports fails `go test`.
func Example() {
	main()
	// Output:
	// forecast per-site load: [16 9 6 4 4] req/s (total 39, cloud would use 5 servers)
	//
	// §5.1 static plan (Eq. 22, 1.2x headroom): per-site [4 3 3 3 3], edge total 16 vs cloud 5
	//
	// measured end-to-end latency:
	//   cloud (5 servers, 25 ms away)      mean    109.3 ms   p95     161.1 ms
	//   edge, naive (1 server/site)        mean  32429.8 ms   p95  127500.0 ms
	//   edge, planned capacity             mean     78.7 ms   p95     122.6 ms   (16 servers)
	//   edge, autoscaled                   mean    161.6 ms   p95     582.0 ms   (peak 3 servers at one site)
	//   edge, cloud overflow               mean    145.0 ms   p95     302.7 ms   (11% overflowed to cloud)
	//
	// §5.2 capacity cost: the planned edge uses 16 servers where the cloud pools 5 —
	// the two-sigma rule predicts a 1.30x edge overprovisioning factor for this λ and k.
	//
	// => with capacity matched to the skew, the edge regains its advantage (Lemma 3.3).
}
