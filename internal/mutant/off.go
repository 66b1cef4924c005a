//go:build !mutants

package mutant

const Active ID = 0 // no mutant: every site is false at compile time
