package core

// ResidualBound lets the external tests (package core_test) place a residual
// exactly at the constant-residual gate.
var ResidualBound = residualBound

// SetMaxStreamElements lowers the per-stream element cap for one test, which
// must restore it with the returned func.
func SetMaxStreamElements(n int) (restore func()) {
	old := maxStreamElements
	maxStreamElements = n
	return func() { maxStreamElements = old }
}
