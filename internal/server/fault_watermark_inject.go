//go:build conform_fault_watermark

package server

const faultWatermark = true // see fault_watermark_default.go
