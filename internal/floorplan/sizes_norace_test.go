//go:build !race

package floorplan

// oracleMaxModules is the largest chip the exhaustive-order oracle
// enumerates (n! orders); the reference comparisons plan
// referenceSeeds chips of 2 to referenceMaxModules modules and merge
// mergeTrials random staircase pairs.
const (
	oracleMaxModules    = 7
	referenceSeeds      = 5
	referenceMaxModules = 10
	mergeTrials         = 20000
)
