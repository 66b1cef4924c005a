//go:build conform_fault_logorder

package server

const faultLogOrder = true // see fault_logorder_default.go
