// Server: the wtfd quickstart — a bank ledger served over TCP. The example
// starts an in-process wtfd (internal/server), seeds a set of accounts, and
// runs concurrent transfer clients against it using the two MULTI shapes the
// protocol is built around:
//
//   - a MULTI of GETs reads a consistent snapshot of both balances (the
//     batch fans out over transactional futures on the server, one per
//     store shard, yet commits as one atomic transaction), and
//   - a MULTI of CASes applies the transfer all-or-nothing: if either
//     balance moved since the read, the whole batch aborts and the client
//     retries — classic optimistic concurrency, one round trip per attempt.
//
// Auditor clients meanwhile read every balance in a single MULTI and check
// the total never changes: the invariant that holds only because a batch is
// one transaction, not a sequence of point reads.
package main

import (
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"

	"wtftm"
	"wtftm/internal/client"
	"wtftm/internal/server"
	"wtftm/internal/wire"
)

const (
	accounts  = 16
	initBal   = 100
	tellers   = 4
	transfers = 200 // per teller
	audits    = 50
)

func key(i int) string { return fmt.Sprintf("acct-%04d", i) }

func main() {
	srv, err := server.New(server.Config{Ordering: wtftm.WO, Shards: 8})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer srv.Drain()
	addr := srv.Addr().String()
	fmt.Printf("wtfd serving on %s (ordering=WO, shards=8)\n", addr)

	// Seed the ledger in one atomic batch.
	seed := client.New(client.Options{Addr: addr})
	defer seed.Close()
	var init []wire.Cmd
	for i := 0; i < accounts; i++ {
		init = append(init, wire.Put(key(i), []byte(strconv.Itoa(initBal))))
	}
	if _, applied, err := seed.Multi(init); err != nil || !applied {
		log.Fatalf("seeding: applied=%v err=%v", applied, err)
	}

	var (
		wg      sync.WaitGroup
		retries atomic.Int64
	)
	for t := 0; t < tellers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			cl := client.New(client.Options{Addr: addr, Conns: 1})
			defer cl.Close()
			rnd := uint64(t)*0x9E3779B9 + 1
			for n := 0; n < transfers; n++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				from := int(rnd>>33) % accounts
				to := (from + 1 + int(rnd>>17)%(accounts-1)) % accounts
				for {
					// Atomic snapshot of both balances.
					reads, _, err := cl.Multi([]wire.Cmd{wire.Get(key(from)), wire.Get(key(to))})
					if err != nil {
						log.Fatal(err)
					}
					fb, _ := strconv.Atoi(string(reads[0].Val))
					tb, _ := strconv.Atoi(string(reads[1].Val))
					if fb == 0 {
						break // nothing to move
					}
					// All-or-nothing transfer: both CASes or neither.
					_, applied, err := cl.Multi([]wire.Cmd{
						wire.CAS(key(from), reads[0].Val, []byte(strconv.Itoa(fb-1))),
						wire.CAS(key(to), reads[1].Val, []byte(strconv.Itoa(tb+1))),
					})
					if err != nil {
						log.Fatal(err)
					}
					if applied {
						break
					}
					retries.Add(1) // a balance moved under us; reread and retry
				}
			}
		}(t)
	}

	// Auditors: the constant-sum check, concurrent with the tellers.
	audit := make([]wire.Cmd, accounts)
	for i := range audit {
		audit[i] = wire.Get(key(i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := client.New(client.Options{Addr: addr, Conns: 1})
		defer cl.Close()
		for n := 0; n < audits; n++ {
			results, applied, err := cl.Multi(audit)
			if err != nil || !applied {
				log.Fatalf("audit: applied=%v err=%v", applied, err)
			}
			total := 0
			for _, r := range results {
				v, _ := strconv.Atoi(string(r.Val))
				total += v
			}
			if total != accounts*initBal {
				log.Fatalf("audit %d: total = %d, want %d (torn snapshot!)", n, total, accounts*initBal)
			}
		}
	}()
	wg.Wait()

	stats, err := seed.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d transfers by %d tellers, %d CAS retries, %d audits — total stayed %d\n",
		tellers*transfers, tellers, retries.Load(), audits, accounts*initBal)
	fmt.Printf("server: %d requests, %d MULTI batches\n",
		stats.Server.Requests, stats.Server.MultiBatches)
	fmt.Printf("engine: %d commits, %d futures; stm: %d commits (%d helped, queue hwm %d)\n",
		stats.Engine.TopCommits, stats.Engine.FuturesSubmitted,
		stats.STM.Commits, stats.STM.HelpedCommits, stats.STM.CommitQueueHWM)
}
