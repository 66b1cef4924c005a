//go:build !conform_fault_watermark

package server

// faultWatermark is true only under the conform_fault_watermark tag, a
// seeded bug the served-history test must catch: a fast GET ignores the
// session watermark and can overtake the session's own queued write.
const faultWatermark = false
