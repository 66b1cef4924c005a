package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
)

// Span names. A span is one call into a layer's public function (or, for
// "op" and the rung spans, the benchmark's own bracket around them).
type spanName uint8

const (
	spOp spanName = iota
	spWireEncodeReq
	spWireDecodeReq
	spWireEncodeResp
	spWireDecodeResp
	spMvstmTxn
	spTstructGet
	spTstructGetFast
	spTstructPut
	spCoreAtomic
	spCoreSubmit
	spCoreEvaluate
	spCoreFuture
	spWalEncode
	spPersistAppend
	spWalSync
	spServerWait
	spClientCall
	spBankApply
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "wire.encode_req", "wire.decode_req", "wire.encode_resp", "wire.decode_resp",
	"mvstm.txn", "tstruct.get", "tstruct.getfast", "tstruct.put",
	"core.atomic", "core.submit", "core.evaluate", "core.future",
	"wal.encode", "persist.append", "wal.sync", "server.wait", "client.call", "bank.apply",
}

// span is one traced call: what, for which op of which rung, caused by
// which span, from when to when. Its id is its index in the tracer.
type span struct {
	parent int32
	op     int32
	name   spanName
	rung   uint8
	start  int64
	end    int64
}

// tracer holds spans in memory until the run ends. Slots are claimed with
// an atomic counter so future bodies running on other goroutines can record
// too; the backing array never grows, so a claimed slot stays valid. A nil
// tracer records nothing (the warming pass). An opsOnly tracer records the
// one span around each op and nothing inside it: that pass gives the rungs'
// per-op times free of the cost of the spans inside them, and is the
// baseline the tracing overhead is measured against.
type tracer struct {
	spans   []span
	opsOnly bool
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int, opsOnly bool) *tracer {
	return &tracer{spans: make([]span, capacity), opsOnly: opsOnly}
}

// begin opens a span and returns its id, -1 when nothing is recorded.
func (t *tracer) begin(name spanName, rung uint8, op, parent int32) int32 {
	if t == nil || (t.opsOnly && name != spOp) {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{parent: parent, op: op, name: name, rung: rung, start: now()}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = now()
	}
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(t.n.Load(), int64(len(t.spans)))]
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover (children that overlap each other — future bodies
// running in parallel — are counted once).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make([][]int32, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
		if p := spans[i].parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	for p, ks := range kids {
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, upto := int64(0), spans[p].start
		for _, k := range ks {
			s, e := max(spans[k].start, upto), min(spans[k].end, spans[p].end)
			if e > s {
				covered += e - s
				upto = e
			}
		}
		self[p] -= covered
	}
	return self
}

// writeTrace writes the spans as compact JSON: a name table, the rung
// names, and one array [id, parent, op, name, rung, start_ns, end_ns] per
// span.
func writeTrace(path string, rungs []string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"span_fields":["id","parent","op","name","rung","start_ns","end_ns"],"names":[`)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString(`],"rungs":[`)
	for i, n := range rungs {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\"spans\":[\n")
	var buf []byte
	for i := range spans {
		s := &spans[i]
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = append(buf, '[')
		for j, v := range [...]int64{int64(i), int64(s.parent), int64(s.op), int64(s.name), int64(s.rung), s.start, s.end} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
