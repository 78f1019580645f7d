package core

// ResidualBound lets the external tests (package core_test) place a residual
// exactly at the constant-residual gate.
var ResidualBound = residualBound
