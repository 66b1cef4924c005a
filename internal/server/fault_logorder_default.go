//go:build !conform_fault_logorder

package server

// faultLogOrder is true only under the conform_fault_logorder tag, a seeded
// bug the served-history test must catch: commit unlocks its shards before
// the log step, so log order can differ from commit order.
const faultLogOrder = false
