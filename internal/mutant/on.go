//go:build mutants

package mutant

var Active ID // set by a test before it starts the system under test, reset to 0 after
