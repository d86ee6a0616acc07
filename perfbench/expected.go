package main

// expected holds the digest of the simulated statistics recorded for the
// default and held-out seeds: the figs-speedsize ExecNs grid and the
// service-grid CellResult counters. Other seeds are
// checked against the reference simulator and for repeatability only.
var expected = map[string]map[uint64]string{
	"figs-speedsize": {defaultSeed: "106e542766f05431", heldOutSeed: "51a90441555e566b"},
	"service-grid":   {defaultSeed: "f3328609fba8c6d9", heldOutSeed: "bcb2aa50e9becfb8"},
}
