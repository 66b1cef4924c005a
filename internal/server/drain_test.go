package server

import (
	"net"
	"testing"
	"time"

	"wtftm/internal/client"
	"wtftm/internal/wire"
)

// TestDrain exercises graceful shutdown: while a MULTI is held in flight
// (via execHook), Drain must refuse new connections yet let the in-flight
// transaction commit and its response reach the client.
func TestDrain(t *testing.T) {
	leakCheck(t)

	entered := make(chan struct{})
	release := make(chan struct{})
	s, err := New(Config{
		Shards: 4,
		execHook: func(req *wire.Request) {
			if req.Op == wire.OpMulti {
				close(entered)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := s.Addr().String()

	cl := client.New(client.Options{Addr: addr, Conns: 1})
	defer cl.Close()
	if err := cl.Put("x", "seed"); err != nil {
		t.Fatal(err)
	}

	type multiOut struct {
		results []wire.Result
		applied bool
		err     error
	}
	done := make(chan multiOut, 1)
	go func() {
		results, applied, err := cl.Multi([]wire.Cmd{
			wire.Get("x"),
			wire.Put("y", []byte("written-during-drain")),
		})
		done <- multiOut{results, applied, err}
	}()
	<-entered // MULTI is in a worker, pre-transaction

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Drain must be blocked on the in-flight request while refusing new
	// work. Poll for the progress condition — a fresh dial is refused, i.e.
	// the listener is provably closed — instead of sleeping a fixed
	// interval: on a loaded host a fixed sleep either races the listener
	// close (flake) or wastes wall clock. Dials that land in the accept
	// backlog before the close are retried.
	dialDeadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case <-drained:
			t.Fatal("Drain returned while a request was in flight")
		default:
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			break // refused: the listener is closed, drain is in progress
		}
		nc.Close()
		if time.Now().After(dialDeadline) {
			t.Fatal("listener still accepting while a drain is in progress")
		}
		time.Sleep(time.Millisecond)
	}
	// The listener is closed but the held MULTI is still in flight, so
	// Drain must still be blocked.
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was in flight")
	default:
	}

	close(release)

	// The in-flight MULTI commits and its response is delivered.
	select {
	case out := <-done:
		if out.err != nil || !out.applied {
			t.Fatalf("in-flight MULTI: applied=%v err=%v", out.applied, out.err)
		}
		if len(out.results) != 2 || string(out.results[0].Val) != "seed" {
			t.Fatalf("in-flight MULTI results: %+v", out.results)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight MULTI response never arrived")
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not complete after the in-flight request finished")
	}

	// The write committed before shutdown: visible on a fresh server sharing
	// nothing is impossible here, so just assert post-conditions on state we
	// can reach — the engine counted the commit.
	if s.sys.Stats().Snapshot().TopCommits < 2 {
		t.Fatalf("engine commits = %d, want >= 2", s.sys.Stats().Snapshot().TopCommits)
	}

	// Further client calls fail (connection was closed by drain) and new
	// dials are refused.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial succeeded after Drain returned")
	}
	if err := s.Listen("127.0.0.1:0"); err != ErrClosed {
		t.Fatalf("Listen after Drain = %v, want ErrClosed", err)
	}
}

// TestDrainIdle checks Drain on a server with idle connections returns
// promptly (read loops parked in ReadFrame are unblocked by the read
// deadline) and releases all goroutines.
func TestDrainIdle(t *testing.T) {
	leakCheck(t)
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl := client.New(client.Options{Addr: s.Addr().String(), Conns: 3})
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	s.Drain()
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("idle drain took %v", d)
	}
	s.Drain() // idempotent
}
