package stats

// The user-month oracle tests build their data with the analysis package,
// which imports this one, so they live in package stats_test and reach the
// reference kernel through these aliases.
var (
	FitLCAReference = fitLCAReference
	LCADiff         = lcaDiff
)
