// Package bank implements the Bank benchmark of §5.3: replaying a log of
// daily operations — transfer and getTotalAmount — of a bank agency for
// backup/verification purposes. All transfers move money between accounts of
// the same bank, so getTotalAmount is a built-in sanity check: it must
// always observe the same total.
package bank

import (
	"fmt"

	"wtftm/internal/mvstm"
	"wtftm/internal/workload"
)

// Bank is the transactional account table.
type Bank struct {
	accounts []*mvstm.VBox
	initial  int
}

// New creates a bank with n accounts holding initialBalance each.
func New(stm *mvstm.STM, n, initialBalance int) *Bank {
	b := &Bank{accounts: make([]*mvstm.VBox, n), initial: initialBalance}
	for i := range b.accounts {
		b.accounts[i] = stm.NewBoxNamed(fmt.Sprintf("acct%d", i), initialBalance)
	}
	return b
}

// ExpectedTotal is the invariant sum of all balances.
func (b *Bank) ExpectedTotal() int { return len(b.accounts) * b.initial }

// OpKind distinguishes the two logged operations.
type OpKind int

const (
	// Transfer moves money between pairs of accounts.
	Transfer OpKind = iota
	// GetTotal sums every account balance.
	GetTotal
)

// LogEntry is one record of the daily operation log.
type LogEntry struct {
	Kind OpKind
	// From/To are the sending/receiving accounts of a Transfer (parallel
	// slices; the paper uses 100 pairs per transfer).
	From, To []int
	// Amount moved per pair.
	Amount int
}

// GenerateLog produces n log entries of which pctUpdate percent are
// transfers involving pairsPerTransfer uniformly selected account pairs.
func GenerateLog(rng *workload.RNG, n, pctUpdate, pairsPerTransfer, nAccounts int) []LogEntry {
	log := make([]LogEntry, n)
	for i := range log {
		if rng.Intn(100) < pctUpdate {
			e := LogEntry{Kind: Transfer, Amount: 1 + rng.Intn(5)}
			e.From = make([]int, pairsPerTransfer)
			e.To = make([]int, pairsPerTransfer)
			for j := 0; j < pairsPerTransfer; j++ {
				e.From[j] = rng.Intn(nAccounts)
				e.To[j] = rng.Intn(nAccounts)
			}
			log[i] = e
		} else {
			log[i] = LogEntry{Kind: GetTotal}
		}
	}
	return log
}

// Apply executes one log entry through any transactional handle and an
// optional per-account unit of emulated computation. It returns the total
// balance for GetTotal entries (transfers return 0).
func (b *Bank) Apply(tx mvstm.ReadWriter, e LogEntry, work func()) int {
	switch e.Kind {
	case Transfer:
		for j := range e.From {
			if work != nil {
				work()
			}
			from := b.accounts[e.From[j]]
			to := b.accounts[e.To[j]]
			tx.Write(from, tx.Read(from).(int)-e.Amount)
			tx.Write(to, tx.Read(to).(int)+e.Amount)
		}
		return 0
	case GetTotal:
		total := 0
		for _, acct := range b.accounts {
			if work != nil {
				work()
			}
			total += tx.Read(acct).(int)
		}
		return total
	default:
		panic(fmt.Sprintf("bank: unknown op kind %d", e.Kind))
	}
}

// Total reads the current total through a fresh snapshot (outside any
// transaction).
func (b *Bank) Total(stm *mvstm.STM) int {
	txn := stm.Begin()
	defer txn.Discard()
	total := 0
	for _, acct := range b.accounts {
		total += txn.Read(acct).(int)
	}
	return total
}
