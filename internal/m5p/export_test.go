package m5p

// Exported for the differential tests of package m5p_test, which import
// packages that depend on m5p.
var (
	FitOracle = fitOracle
	TreeDiff  = treeDiff
)
