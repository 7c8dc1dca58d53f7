package linreg

// Exported for the differential tests of package linreg_test, which import
// packages that depend on linreg.
var (
	FitOracle = fitOracle
	ModelDiff = modelDiff
)
