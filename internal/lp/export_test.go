package lp

// Test-only exports for the external lp_test package.
var (
	SolveDense   = solveDense
	SameSolution = sameSolution
)
