package main

// Example pins the example's whole stdout: the mesh-vs-torus table
// through the scenario facade, and the GH(4,4,4) broadcast driven by
// a selector that offers only NextHops, so the network resolves its
// candidates' channels from the endpoint pairs.
func Example() {
	main()
	// Output:
	// Broadcast latency, mesh vs torus (L=64 flits, 6 random sources):
	//   RD    mesh 8x8x8   latency  15.291 µs
	//   EDN   mesh 8x8x8   latency  10.861 µs
	//   RD    torus 8x8x8  latency  15.291 µs
	//   EDN   torus 8x8x8  latency  10.861 µs
	//
	// Generalised hypercube GH(4,4,4): 64 nodes covered in 3 steps,
	//   latency 5.103 µs, arrival CV 0.2033
	//
	// Each GH row is a clique, so one multidestination worm per row
	// covers a whole dimension in a single message-passing step —
	// three steps for GH(4,4,4), the density the paper's future work
	// points at.
}
