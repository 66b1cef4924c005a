package server

import (
	"fmt"
	"sync"
	"testing"

	"wtftm/internal/client"
	"wtftm/internal/wire"
)

// BenchmarkServerEcho measures the server request path — pooled decode, one
// pipeline unit of one (stage accounting, execution, response hand-off),
// append-encode, recycle — without the network in the way. This is
// the allocs/op gate scripts/ci.sh enforces (≤ 2 allocs/op): the lifecycle
// itself must not allocate in steady state, so serving cost scales with
// syscalls and transactions, not with GC pressure.
func BenchmarkServerEcho(b *testing.B) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	payload, err := wire.AppendRequest(nil, &wire.Request{ID: 7, Op: wire.OpPing})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []byte
	l := newLane(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.AcquireRequest()
		if err := wire.DecodeRequestInto(req, payload); err != nil {
			b.Fatal(err)
		}
		resp := l.execute(req)
		out, err := wire.AppendResponse(scratch[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
		wire.ReleaseResponse(resp)
	}
}

// BenchmarkServerGetPath is BenchmarkServerEcho for a keyed read: adds the
// key-string materialization, the store lookup and one STM transaction.
// Reported for trajectory; the CI floor is on the echo path.
func BenchmarkServerGetPath(b *testing.B) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	// Seed one key through the write pipeline.
	wire.ReleaseResponse(newLane(s).execute(pooled(b, &wire.Request{ID: 1, Op: wire.OpPut, Cmd: wire.Put("bench-key", []byte("v"))})))

	payload, err := wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpGet, Cmd: wire.Get("bench-key")})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []byte
	l := newLane(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.AcquireRequest()
		if err := wire.DecodeRequestInto(req, payload); err != nil {
			b.Fatal(err)
		}
		resp := l.execute(req)
		out, err := wire.AppendResponse(scratch[:0], resp)
		if err != nil {
			b.Fatal(err)
		}
		scratch = out
		wire.ReleaseResponse(resp)
	}
}

// BenchmarkServerFastGet measures the GET fast path's whole serving unit as
// the read loop runs it per frame: raw-payload GET classification
// (wire.DecodeGetKey — no pooled Request, no key string), shard hash and
// lock-free ReadLatest over the key bytes, and the direct response encode
// (wire.AppendGetResult — no Response object). This is the 0 allocs/op gate
// scripts/ci.sh enforces: the fast path's entire point is that a read-heavy
// workload generates no garbage, so a single alloc/op here is a regression.
func BenchmarkServerFastGet(b *testing.B) {
	s, err := New(Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	wire.ReleaseResponse(newLane(s).execute(pooled(b, &wire.Request{ID: 1, Op: wire.OpPut, Cmd: wire.Put("bench-key", []byte("fast-value"))})))

	get, err := wire.AppendRequest(nil, &wire.Request{ID: 2, Op: wire.OpGet, Cmd: wire.Get("bench-key")})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, key, ok := wire.DecodeGetKey(get)
		if !ok {
			b.Fatal("GET frame not classified as fast-servable")
		}
		sh := s.store.shardOfBytes(key)
		val, found, _, rok := s.store.getFastBytes(sh, key)
		if !rok {
			b.Fatal("fast read fell back on an idle server")
		}
		scratch = wire.AppendGetResult(scratch[:0], id, val, found)
	}
}

// BenchmarkServerE2EPipelined is the closed-loop loopback shape the wtfbench
// server sweep measures: concurrent clients, one pipelined connection each,
// single-key GET/PUT traffic. Useful with -cpuprofile to see where serving
// time goes end to end.
func BenchmarkServerE2EPipelined(b *testing.B) {
	for _, clients := range []int{1, 4} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s, err := New(Config{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer s.Drain()
			addr := s.Addr().String()

			seed := client.New(client.Options{Addr: addr, Conns: 1})
			for i := 0; i < 64; i++ {
				if err := seed.Put(fmt.Sprintf("bench-key-%d", i), "0"); err != nil {
					b.Fatal(err)
				}
			}
			seed.Close()

			var wg sync.WaitGroup
			work := make(chan int, clients)
			cls := make([]*client.Client, clients)
			for w := 0; w < clients; w++ {
				cls[w] = client.New(client.Options{Addr: addr, Conns: 1})
				defer cls[w].Close()
			}
			errs := make(chan error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl := cls[w]
					rnd := uint64(w)*2654435761 + 1
					for n := range work {
						for i := 0; i < n; i++ {
							rnd = rnd*6364136223846793005 + 1442695040888963407
							key := fmt.Sprintf("bench-key-%d", rnd%64)
							var err error
							if rnd&7 == 0 {
								err = cl.Put(key, "1")
							} else {
								_, _, err = cl.Get(key)
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			b.ReportAllocs()
			b.ResetTimer()
			per := b.N / clients
			for w := 0; w < clients; w++ {
				work <- per
			}
			close(work)
			wg.Wait()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
		})
	}
}
