package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wtftm"
	"wtftm/internal/chaos"
	"wtftm/internal/client"
	"wtftm/internal/wal"
	"wtftm/internal/wire"
)

// TestServedHistoryConformance checks the server production runs, from
// outside: a durable server with every serving mechanism on — group commit,
// the GET fast path, deferred acks, cross-shard MULTIs — serves
// concurrent clients that record what they saw, and after Drain the
// served-history checker (chaos.Check) takes the WAL, restricted to each
// shard, as that shard's commit order and asks internal/fsg's polygraph for one serialization that
// explains every answer and respects every session's order. The clients:
//
//   - transfers read two accounts on two shards with a MULTI, then move a
//     unit between them with a MULTI of two CASes;
//   - deposits read one account with a single-key GET and CAS it, on the
//     account's own executor, beside MULTIs routed from the other one;
//   - a MULTI writer puts two keys on two shards while a reader pipelines
//     GETs of both on one connection: one session's reads never see half
//     of a MULTI (DESIGN.md §13), and the session edge between the two GETs
//     is what enforces it;
//   - a pipelining session sends PUT, GET pairs on one shard's keys, which
//     coalesce into group commits and hold its GETs to the watermark;
//   - a snapshot client reads every account in one MULTI.
//
// STATS must show that the mechanisms the check covers ran.
func TestServedHistoryConformance(t *testing.T) {
	for _, ord := range []wtftm.Ordering{wtftm.WO, wtftm.SO} {
		t.Run(ord.String(), func(t *testing.T) {
			for _, x := range servedHistoryViolations(t, ord) {
				t.Errorf("served history violation: %s", x)
			}
		})
	}
}

// servedHistoryViolations serves TestServedHistoryConformance's workload
// under ord and returns what the served-history checker finds wrong with it.
func servedHistoryViolations(t *testing.T, ord wtftm.Ordering) []string {
	leakCheck(t)
	log := &chaos.Log{FS: wal.NewMemFS(), Dir: "served", Shards: 4}
	s := startServer(t, Config{Ordering: ord, Shards: log.Shards, Executors: 2,
		DataDir: log.Dir, FS: log.FS, Fsync: wal.SyncGroup})
	w := &served{s: s}
	w.run(t)

	st := fetchStats(t, s)
	if st.Server.GroupCommits == 0 || st.Server.FastReads == 0 || st.Server.MultiBatches == 0 {
		t.Fatalf("a mechanism never ran: group_commits=%d fast_reads=%d multi_batches=%d",
			st.Server.GroupCommits, st.Server.FastReads, st.Server.MultiBatches)
	}
	s.Drain()
	v, err := chaos.Check(w.hist.Ops(), log, false)
	if err != nil {
		t.Fatal(err)
	}
	return v.Violations
}

// served is the workload of TestServedHistoryConformance.
type served struct {
	s     *Server
	hist  chaos.History
	accts []string // accts[sh] lives on shard sh

	// transfersDone is closed when both transfer clients are done; the
	// deposits run until then. wrote ticks (without blocking the writer)
	// each time the MULTI writer issues a MULTI, and is closed after its
	// last: the pair reader reads once per tick, so its reads overlap the
	// writes they could split.
	transfersDone chan struct{}
	wrote         chan struct{}

	mu   sync.Mutex
	errs []error
}

// session is one client process: it numbers its operations in the order it
// issues them.
type session struct {
	w     *served
	id, n int
}

// issue reserves the program-order index of the next operation.
func (p *session) issue() int { p.n++; return p.n - 1 }

// add records operation i; err makes it ambiguous, and fails the test: no
// fault is injected here, so every request should be answered.
func (p *session) add(i int, kind string, out chaos.Outcome, err error, acc ...chaos.Access) {
	if err != nil {
		out = chaos.Ambiguous
		p.w.mu.Lock()
		p.w.errs = append(p.w.errs, fmt.Errorf("p%d.%d %s: %w", p.id, i, kind, err))
		p.w.mu.Unlock()
	}
	p.w.hist.Add(chaos.Op{Process: p.id, Index: i, Kind: kind, Access: acc, Outcome: out})
}

func read(key string, r wire.Result) chaos.Access {
	a := chaos.Access{Key: key, Reads: true}
	if r.Status == wire.StatusOK || r.HasVal {
		a.Read = string(r.Val)
	}
	return a
}

// balance parses an account value, "<balance>/<writer>".
func balance(v string) int {
	b, _, _ := strings.Cut(v, "/")
	n, _ := strconv.Atoi(b)
	return n
}

func (w *served) keysOn(prefix string, sh, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("%s-%d", prefix, i); w.s.store.shardOf(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

func (w *served) run(t *testing.T) {
	w.accts = make([]string, w.s.cfg.Shards)
	seed := &session{w: w, id: 0}
	var init []wire.Cmd
	var acc []chaos.Access
	for sh := range w.accts {
		w.accts[sh] = w.keysOn("acct", sh, 1)[0]
		init = append(init, wire.Put(w.accts[sh], []byte("50/init")))
		acc = append(acc, chaos.Access{Key: w.accts[sh], Write: "50/init"})
	}
	_, _, err := newClient(t, w.s, 1).Multi(init)
	seed.add(seed.issue(), "multi", chaos.Acked, err, acc...)

	w.transfersDone, w.wrote = make(chan struct{}), make(chan struct{}, 1)
	var transfers sync.WaitGroup
	transfers.Add(2)
	transfer := func(p *session, cl *client.Client) {
		defer transfers.Done()
		w.transfers(p, cl)
	}
	go func() {
		transfers.Wait()
		close(w.transfersDone)
	}()
	var procs []func(*session)
	for _, f := range []func(*session, *client.Client){
		transfer, transfer, w.deposits, w.deposits, w.multiWriter, w.snapshots,
	} {
		cl := newClient(t, w.s, 1)
		procs = append(procs, func(p *session) { f(p, cl) })
	}
	for _, f := range []func(*session, net.Conn, *bufio.Reader){w.pairReader, w.pipelinedPairs} {
		nc, br := rawDial(t, w.s)
		procs = append(procs, func(p *session) { f(p, nc, br) })
	}
	var wg sync.WaitGroup
	for i, proc := range procs {
		wg.Add(1)
		go func(p *session) {
			defer wg.Done()
			proc(p)
		}(&session{w: w, id: i + 1})
	}
	wg.Wait()
	for _, err := range w.errs {
		t.Error(err)
	}
}

// transfers moves one unit at a time between two accounts on different
// shards: read both with a MULTI, then CAS both in one.
func (w *served) transfers(p *session, cl *client.Client) {
	rnd := uint64(p.id)*2654435761 + 7
	for r := 0; r < 40; r++ {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		from := int(rnd>>33) % len(w.accts)
		to := (from + 1 + int(rnd>>40)%(len(w.accts)-1)) % len(w.accts)
		fk, tk := w.accts[from], w.accts[to]

		i := p.issue()
		res, _, err := cl.Multi([]wire.Cmd{wire.Get(fk), wire.Get(tk)})
		if err != nil {
			p.add(i, "multi", chaos.Acked, err)
			return
		}
		fv, tv := string(res[0].Val), string(res[1].Val)
		p.add(i, "multi", chaos.Acked, nil, read(fk, res[0]), read(tk, res[1]))
		if balance(fv) == 0 {
			continue
		}
		nf := fmt.Sprintf("%d/p%d.%d", balance(fv)-1, p.id, r)
		nt := fmt.Sprintf("%d/p%d.%d", balance(tv)+1, p.id, r)
		i = p.issue()
		res, applied, err := cl.Multi([]wire.Cmd{
			wire.CAS(fk, []byte(fv), []byte(nf)),
			wire.CAS(tk, []byte(tv), []byte(nt)),
		})
		out := chaos.Acked
		fa := chaos.Access{Key: fk, Reads: true, Read: fv, Write: nf}
		ta := chaos.Access{Key: tk, Reads: true, Read: tv, Write: nt}
		if err == nil && !applied {
			// Nothing committed; a CAS that missed reports what it found,
			// one that matched found its expectation.
			out = chaos.Mismatch
			if res[0].Status == wire.StatusCASMismatch {
				fa.Read = read(fk, res[0]).Read
			}
			if res[1].Status == wire.StatusCASMismatch {
				ta.Read = read(tk, res[1]).Read
			}
		}
		p.add(i, "multi", out, err, fa, ta)
	}
}

// deposits adds to the accounts of the second executor's shards (1 and 3)
// with a single-key GET then CAS, for as long as the transfers run: they
// run on that executor, beside transfer MULTIs routed from the first
// executor that write the same keys.
func (w *served) deposits(p *session, cl *client.Client) {
	for r := 0; r < 400; r++ {
		select {
		case <-w.transfersDone:
			return
		default:
		}
		key := w.accts[1+2*((p.id+r)%2)]
		i := p.issue()
		v, _, err := cl.Get(key)
		p.add(i, "get", chaos.Acked, err, chaos.Access{Key: key, Reads: true, Read: v})
		if err != nil {
			return
		}
		nv := fmt.Sprintf("%d/p%d.%d", balance(v)+1, p.id, r)
		i = p.issue()
		ok, cur, err := cl.CAS(key, []byte(v), nv)
		a := chaos.Access{Key: key, Reads: true, Read: v, Write: nv}
		out := chaos.Acked
		if err == nil && !ok {
			out, a.Read = chaos.Mismatch, string(cur)
		}
		p.add(i, "cas", out, err, a)
	}
}

// pair is the two keys the MULTI writer puts together, on shards 0 and 1.
func (w *served) pair() (string, string) {
	return w.keysOn("pair", 0, 1)[0], w.keysOn("pair", 1, 1)[0]
}

// multiWriter puts both keys of the pair in one MULTI, again and again.
func (w *served) multiWriter(p *session, cl *client.Client) {
	x, y := w.pair()
	defer close(w.wrote)
	for r := 0; r < 60; r++ {
		vx, vy := fmt.Sprintf("x%d", r), fmt.Sprintf("y%d", r)
		select {
		case w.wrote <- struct{}{}:
		default:
		}
		i := p.issue()
		_, _, err := cl.Multi([]wire.Cmd{wire.Put(x, []byte(vx)), wire.Put(y, []byte(vy))})
		p.add(i, "multi", chaos.Acked, err, chaos.Access{Key: x, Write: vx}, chaos.Access{Key: y, Write: vy})
	}
}

// snapshots reads every account in one MULTI.
func (w *served) snapshots(p *session, cl *client.Client) {
	var cmds []wire.Cmd
	for _, k := range w.accts {
		cmds = append(cmds, wire.Get(k))
	}
	for r := 0; r < 30; r++ {
		i := p.issue()
		res, _, err := cl.Multi(cmds)
		var acc []chaos.Access
		for j := range res {
			acc = append(acc, read(w.accts[j], res[j]))
		}
		p.add(i, "multi", chaos.Acked, err, acc...)
	}
}

// pipelined sends reqs in one write on nc and returns the responses in
// request order.
func pipelined(nc net.Conn, br *bufio.Reader, reqs []*wire.Request) ([]wire.Response, error) {
	bw := bufio.NewWriter(nc)
	for i, req := range reqs {
		req.ID = uint32(i)
		payload, err := wire.AppendRequest(nil, req)
		if err != nil {
			return nil, err
		}
		if err := wire.WriteFrame(bw, payload); err != nil {
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	out := make([]wire.Response, len(reqs))
	for range reqs {
		fr, err := wire.ReadFrame(br, nil)
		if err != nil {
			return nil, err
		}
		resp, err := wire.DecodeResponse(fr)
		if err != nil {
			return nil, err
		}
		if resp.ID >= uint32(len(reqs)) {
			return nil, fmt.Errorf("response to unknown request %d", resp.ID)
		}
		out[resp.ID] = resp
	}
	return out, nil
}

// pairReader pipelines GET(x), GET(y) of the MULTI writer's pair on a
// connection that never writes, so both are answered from the read loop,
// in order, once for every MULTI the writer issues.
func (w *served) pairReader(p *session, nc net.Conn, br *bufio.Reader) {
	x, y := w.pair()
	for range w.wrote {
		i, j := p.issue(), p.issue()
		resps, err := pipelined(nc, br, []*wire.Request{
			{Op: wire.OpGet, Cmd: wire.Get(x)}, {Op: wire.OpGet, Cmd: wire.Get(y)},
		})
		if err != nil {
			p.add(i, "get", chaos.Acked, err)
			return
		}
		p.add(i, "get", chaos.Acked, nil, read(x, resps[0].Result))
		p.add(j, "get", chaos.Acked, nil, read(y, resps[1].Result))
	}
}

// pipelinedPairs pipelines PUT(k, v), GET(k) for two keys of shard 2 on one
// connection: the four requests queue on one executor, which commits them
// as a unit, and each GET must see the PUT before it.
func (w *served) pipelinedPairs(p *session, nc net.Conn, br *bufio.Reader) {
	keys := w.keysOn("ryw", 2, 2)
	for r := 0; r < 30; r++ {
		var reqs []*wire.Request
		for _, k := range keys {
			v := fmt.Sprintf("%s.%d", k, r)
			reqs = append(reqs,
				&wire.Request{Op: wire.OpPut, Cmd: wire.Put(k, []byte(v))},
				&wire.Request{Op: wire.OpGet, Cmd: wire.Get(k)})
		}
		first := p.n
		p.n += len(reqs)
		resps, err := pipelined(nc, br, reqs)
		if err != nil {
			p.add(first, "put", chaos.Acked, err)
			return
		}
		for j, req := range reqs {
			if req.Op == wire.OpPut {
				p.add(first+j, "put", chaos.Acked, nil, chaos.Access{Key: req.Cmd.Key, Write: string(req.Cmd.Val)})
			} else {
				p.add(first+j, "get", chaos.Acked, nil, read(req.Cmd.Key, resps[j].Result))
			}
		}
	}
}
