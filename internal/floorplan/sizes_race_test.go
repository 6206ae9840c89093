//go:build race

package floorplan

// Under the race detector an evaluation runs about ten times slower:
// the oracle stops at five modules (120 orders), keeping it under
// five seconds, and the reference comparisons run a smaller slice of
// their inputs.  Every non-race run covers the full range.
const (
	oracleMaxModules    = 5
	referenceSeeds      = 1
	referenceMaxModules = 6
	mergeTrials         = 2000
)
