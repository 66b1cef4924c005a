package client

import (
	"testing"

	"wtftm/internal/server"
)

// BenchmarkClientGetRoundTrip measures a full GET over loopback — encode,
// write, server fast path, response decode into a pooled *wire.Response,
// value copy into the caller's buffer — via the GetBytes variant. This is
// the round-trip allocation gate scripts/ci.sh enforces (0 allocs/op): the
// server hashes, routes and looks up the key in its wire buffer without
// building a string, and everything else on both ends — frames, requests,
// responses, the value handoff — is pooled, so a read-heavy workload's cost
// is syscalls, not GC.
func BenchmarkClientGetRoundTrip(b *testing.B) {
	s, err := server.New(server.Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	cl := New(Options{Addr: s.Addr().String(), Conns: 1})
	defer cl.Close()
	if err := cl.Put("bench-key", "bench-value"); err != nil {
		b.Fatal(err)
	}
	// Warm the pools and size dst before measuring.
	dst, found, err := cl.GetBytes("bench-key", nil)
	if err != nil || !found {
		b.Fatalf("warmup GET = (%v, %v)", found, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, found, err = cl.GetBytes("bench-key", dst[:0])
		if err != nil || !found {
			b.Fatalf("GET = (%v, %v)", found, err)
		}
	}
	if string(dst) != "bench-value" {
		b.Fatalf("value = %q", dst)
	}
}
