package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"wtftm/internal/fsg"
	"wtftm/internal/history"
	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// TestSOWithGACWaitsAllFutures: under SO the GAC/LAC distinction is
// irrelevant (§3.3 end) — futures serialize at submission, so the top-level
// commit always waits for them.
func TestSOWithGACWaitsAllFutures(t *testing.T) {
	sys, stm := newSys(SO, GAC)
	x := stm.NewBoxNamed("x", 0)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := sys.Atomic(func(tx *Tx) error {
			tx.Submit(func(ftx *Tx) (any, error) {
				<-gate
				ftx.Write(x, 1)
				return nil, nil
			})
			return nil // escape attempt: SO must still wait
		})
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
		t.Fatal("SO commit returned before its future completed")
	default:
	}
	close(gate)
	<-done
	if got := readInt(t, stm, x); got != 1 {
		t.Fatalf("x = %d, want 1 (future committed with its spawner)", got)
	}
	if esc := sys.Stats().EscapedFutures.Load(); esc != 0 {
		t.Fatalf("SO let %d futures escape", esc)
	}
}

// TestGACRandomizedPipelines: random chains of producer transactions leaving
// escaping futures behind and consumer transactions evaluating them, with
// interleaved interfering writers forcing detach re-executions. The final
// accumulated sum must equal the sum computed from committed inputs, and the
// recorded history must be FSG-serializable.
func TestGACRandomizedPipelines(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rec := history.NewRecorder()
		stm := mvstm.New()
		sys := New(stm, Options{Ordering: WO, Atomicity: GAC, Recorder: rec})
		const slots = 6
		inputs := make([]*mvstm.VBox, slots)
		refs := make([]*mvstm.VBox, slots)
		outputs := make([]*mvstm.VBox, slots)
		for i := range inputs {
			inputs[i] = stm.NewBoxNamed(fmt.Sprintf("in%d", i), i+1)
			refs[i] = stm.NewBoxNamed(fmt.Sprintf("ref%d", i), nil)
			outputs[i] = stm.NewBoxNamed(fmt.Sprintf("out%d", i), 0)
		}
		rng := workload.NewRNG(seed)

		// Producers leave escaping futures that double their input slot.
		var wg sync.WaitGroup
		for i := 0; i < slots; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := sys.Atomic(func(tx *Tx) error {
					f := tx.Submit(func(ftx *Tx) (any, error) {
						return ftx.Read(inputs[i]).(int) * 2, nil
					})
					tx.Write(refs[i], f)
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()

		// Interferers overwrite some inputs (making those detaches stale).
		for i := 0; i < slots; i++ {
			if rng.Intn(2) == 0 {
				i := i
				if err := sys.Atomic(func(tx *Tx) error {
					tx.Write(inputs[i], tx.Read(inputs[i]).(int)+100)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Consumers evaluate concurrently; each writes its slot's output.
		for i := 0; i < slots; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := sys.Atomic(func(tx *Tx) error {
					f := tx.Read(refs[i]).(*Future)
					v, err := tx.Evaluate(f)
					if err != nil {
						return err
					}
					tx.Write(outputs[i], v)
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()

		// Every output must be 2x a value the input slot actually held at
		// some committed point (original or interfered).
		txn := stm.Begin()
		for i := 0; i < slots; i++ {
			out := txn.Read(outputs[i]).(int)
			orig := (i + 1) * 2
			bumped := (i + 1 + 100) * 2
			if out != orig && out != bumped {
				txn.Discard()
				t.Fatalf("seed %d: out%d = %d, want %d or %d", seed, i, out, orig, bumped)
			}
		}
		txn.Discard()

		// The multi-top escaped-future history must be serializable.
		h, err := fsg.FromLog(rec.Ops())
		if err != nil {
			t.Fatalf("seed %d: FromLog: %v", seed, err)
		}
		p, err := fsg.Build(h, fsg.WOsem)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		if !p.Acyclic() {
			t.Fatalf("seed %d: GAC history not serializable", seed)
		}
	}
}

// TestAncestorReadStabilityUnderMerges: the main flow keeps re-reading its
// own ancestor writes (resolved through the visible-write index's lock-free
// fast path) while submitted futures merge concurrently, mutating the graph
// and pushing index patches. Every read must return the value this flow
// wrote — a merge may never clobber, reorder or hide an ancestor write of an
// unrelated flow. Run under -race this also exercises the gver seqlock
// retract path.
func TestAncestorReadStabilityUnderMerges(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	const rounds = 24
	mine := make([]*mvstm.VBox, rounds)
	noise := make([]*mvstm.VBox, rounds)
	for i := range mine {
		mine[i] = stm.NewBoxNamed(fmt.Sprintf("m%d", i), -1)
		noise[i] = stm.NewBoxNamed(fmt.Sprintf("n%d", i), -1)
	}
	for iter := 0; iter < 8; iter++ {
		err := sys.Atomic(func(tx *Tx) error {
			var fs []*Future
			for i := 0; i < rounds; i++ {
				tx.Write(mine[i], i)
				i := i
				fs = append(fs, tx.Submit(func(ftx *Tx) (any, error) {
					// The future both generates merge traffic (disjoint write,
					// serializes at submission) and resolves an ancestor write
					// through its own lazily built index.
					ftx.Write(noise[i], i)
					if got := ftx.Read(mine[i]).(int); got != i {
						return nil, fmt.Errorf("future %d read mine[%d] = %d", i, i, got)
					}
					return nil, nil
				}))
				// The submit boundary turned mine[0..i] into ancestor writes;
				// they must stay stable while the futures merge underneath us.
				for j := 0; j <= i; j++ {
					if got := tx.Read(mine[j]).(int); got != j {
						return fmt.Errorf("round %d: mine[%d] = %d, want %d", i, j, got, j)
					}
				}
			}
			for _, f := range fs {
				if _, err := tx.Evaluate(f); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMixedSemanticsSystemsShareSTM: two engines with different semantics
// over the same STM interoperate through committed state.
func TestMixedSemanticsSystemsShareSTM(t *testing.T) {
	stm := mvstm.New()
	wo := New(stm, Options{Ordering: WO, Atomicity: LAC})
	so := New(stm, Options{Ordering: SO, Atomicity: LAC})
	x := stm.NewBoxNamed("x", 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sys := wo
			if g%2 == 1 {
				sys = so
			}
			for i := 0; i < 10; i++ {
				err := sys.Atomic(func(tx *Tx) error {
					f := tx.Submit(func(ftx *Tx) (any, error) {
						ftx.Write(x, ftx.Read(x).(int)+1)
						return nil, nil
					})
					_, err := tx.Evaluate(f)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := readInt(t, stm, x); got != 40 {
		t.Fatalf("x = %d, want 40", got)
	}
}

// TestStragglerMergesWhileCommitValidates: under GAC a future still running
// when its top-level transaction commits merges futures of its own while
// the substrate commit validates the main chain's reads in place, without
// the graph lock. Its merges target its own vertices, never the main
// chain's, so the race detector sees no access shared with the validation
// (run with -race and -cpu above 1 for the two to overlap: the straggler's
// futures settle once the fold has begun, so they all merge at their
// evaluation, while the main chain's thousands of reads are validated).
func TestStragglerMergesWhileCommitValidates(t *testing.T) {
	sys, stm := newSys(WO, GAC)
	boxes := newBoxes(stm, 2048)
	readAll := func(ftx *Tx) (any, error) {
		for _, b := range boxes {
			ftx.Read(b)
		}
		return nil, nil
	}
	var stragglers []*Future
	for i := 0; i < 20; i++ {
		err := sys.Atomic(func(tx *Tx) error {
			top := tx.top
			folding := func() {
				for !top.phaseAtLeast(phaseFolding) {
					runtime.Gosched()
				}
			}
			stragglers = append(stragglers, tx.Submit(func(ftx *Tx) (any, error) {
				var gs [8]*Future
				for k := range gs {
					gs[k] = ftx.Submit(func(gtx *Tx) (any, error) {
						folding()
						gtx.Write(boxes[k], k)
						return nil, nil
					})
				}
				folding()
				for _, g := range gs {
					if _, err := ftx.Evaluate(g); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}))
			for k := 0; k < 8; k++ {
				if _, err := tx.Evaluate(tx.Submit(readAll)); err != nil {
					return err
				}
			}
			tx.Write(boxes[i], i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range stragglers {
		<-f.Done()
	}
}

// TestForwardScanOfActiveReader: a forward validation scans the read log of
// a vertex whose flow is still reading into it. F1 writes x and finishes
// once F2, submitted after it, has read x; F2 goes on to read 1023 more
// boxes, so its log grows while F1's validation may scan it (run with -race
// and -cpu above 1 for the two to overlap). Under WO F1 must not merge at
// its submission: F2, ordered after it, read the x it overwrites.
//
// Then the opposite case: F1's merge lands while F2 reads F1's boxes
// through the lock-free path (mergeUnderReader), and a first read whose
// lock-free path loses the race with that merge (readLosesMergeRace).
func TestForwardScanOfActiveReader(t *testing.T) {
	defer readLosesMergeRace(t)
	defer mergeUnderReader(t)

	sys, stm := newSys(WO, LAC)
	boxes := newBoxes(stm, 1024)
	x := boxes[0]
	for attempt := 0; attempt < 20; attempt++ {
		err := sys.Atomic(func(tx *Tx) error {
			readX := make(chan struct{})
			f1 := tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Write(x, attempt+1)
				<-readX
				return nil, nil
			})
			f2 := tx.Submit(func(ftx *Tx) (any, error) {
				seen := ftx.Read(x)
				close(readX)
				for _, b := range boxes[1:] {
					ftx.Read(b)
				}
				return seen, nil
			})
			<-f1.settled.wait()
			if st := f1.getState(); st != fParked {
				return fmt.Errorf("F1 settled in state %d, want parked (%d): it merged at its submission although F2 read x", st, fParked)
			}
			seen, err := tx.Evaluate(f2)
			if err != nil {
				return err
			}
			if seen != attempt {
				return fmt.Errorf("F2 read x = %v, want %d", seen, attempt)
			}
			_, err = tx.Evaluate(f1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// mergeUnderReader: F1 writes 64 boxes and finishes as soon as F2,
// submitted after it, has built its visible-write index; F2 then reads 512
// other boxes and F1's, through the lock-free path while its index is
// current, as F1 validates and merges at its submission. F2 must see all
// of F1's writes, and then F1 merged at its submission, or none of them,
// and then F1 did not: a read resolved through an index the merge made
// stale, or one the forward scan missed, shows as a mix or a mismatch.
func mergeUnderReader(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	boxes := newBoxes(stm, 64+512)
	written, other := boxes[:64], boxes[64:]
	merges := 0
	for attempt := 0; attempt < 50; attempt++ {
		err := sys.Atomic(func(tx *Tx) error {
			ready := make(chan struct{})
			f1 := tx.Submit(func(ftx *Tx) (any, error) {
				for _, b := range written {
					ftx.Write(b, attempt+1)
				}
				<-ready
				return nil, nil
			})
			f2 := tx.Submit(func(ftx *Tx) (any, error) {
				ftx.Read(other[0]) // the first read builds the index
				close(ready)
				for _, b := range other[1:] {
					ftx.Read(b)
				}
				seen := make([]any, len(written))
				for i, b := range written {
					seen[i] = ftx.Read(b)
				}
				return seen, nil
			})
			<-f1.settled.wait()
			merged := f1.getState() == fMerged
			if merged {
				merges++
			}
			res, err := tx.Evaluate(f2)
			if err != nil {
				return err
			}
			fresh := 0
			for _, v := range res.([]any) {
				if v == attempt+1 {
					fresh++
				}
			}
			if fresh != 0 && fresh != len(written) || (fresh != 0) != merged {
				return fmt.Errorf("F2 saw %d of F1's %d writes; F1 merged at its submission: %v", fresh, len(written), merged)
			}
			_, err = tx.Evaluate(f1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("F1 merged at its submission in %d of 50 attempts", merges)
}

// readLosesMergeRace: F1 writes 64 boxes and finishes as soon as F2 has
// built its visible-write index; F2 goes on making first reads until F1
// has settled, so it is reading while F1 validates and merges at its
// submission, and reads F1's boxes last. A read whose lock-free path
// loaded gver before the merge's epoch opened and finds it moved on its
// recheck resolves again on the slow path, into the entry the fast path
// filled, and publishes its box a second time. Every read must leave
// exactly one read-set entry for its box, holding the value Read returned,
// and be published once, or twice after a lost race. The race needs two
// flows running at once: at GOMAXPROCS 1 a few attempts check the entries
// and no lost race is required.
func readLosesMergeRace(t *testing.T) {
	sys, stm := newSys(WO, LAC)
	boxes := newBoxes(stm, 64+1<<16)
	written, other := boxes[:64], boxes[64:]
	maxAttempts := 3
	if runtime.GOMAXPROCS(0) > 1 {
		maxAttempts = 1000
	}
	lost, attempts := 0, 0
	for ; attempts < maxAttempts && lost == 0; attempts++ {
		err := sys.Atomic(func(tx *Tx) error {
			ready := make(chan struct{})
			f1 := tx.Submit(func(ftx *Tx) (any, error) {
				for _, b := range written {
					ftx.Write(b, attempts+1)
				}
				<-ready
				return nil, nil
			})
			f2 := tx.Submit(func(ftx *Tx) (any, error) {
				seen := []any{ftx.Read(other[0])} // the first read builds the index
				close(ready)
				for _, b := range other[1:] {
					if f1.settled.isSet() {
						break
					}
					seen = append(seen, ftx.Read(b))
				}
				read := append(other[:len(seen):len(seen)], written...)
				for _, b := range written {
					seen = append(seen, ftx.Read(b))
				}
				races := 0
				for i, b := range read {
					n, obs := ftx.readEntries(b)
					if n != 1 || obs.val != seen[i] {
						return nil, fmt.Errorf("%s: %d read entries, the last holding %v; Read returned %v", b.Name, n, obs.val, seen[i])
					}
					switch p := ftx.published(b); p {
					case 1:
					case 2:
						races++
					default:
						return nil, fmt.Errorf("%s published %d times by one first read", b.Name, p)
					}
				}
				return races, nil
			})
			<-f1.settled.wait()
			merged := f1.getState() == fMerged
			races, err := tx.Evaluate(f2)
			if err != nil {
				return err
			}
			if merged {
				lost += races.(int)
			}
			_, err = tx.Evaluate(f1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d attempts: %d first reads lost their race in attempts where F1 merged at its submission", attempts, lost)
	if runtime.GOMAXPROCS(0) > 1 && lost == 0 {
		t.Errorf("no first read lost its race with F1's merge in %d attempts", attempts)
	}
}
