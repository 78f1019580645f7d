//go:build !amd64

package cpu

func detect() bool { return false }
