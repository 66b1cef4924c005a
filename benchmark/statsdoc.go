package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"

	"wtftm/internal/obs"
	"wtftm/internal/wire"
)

// statsDoc is a STATS reply held as generic JSON rather than as
// wire.StatsReply: a field this server does not send must read as absent,
// not as zero, so that a later change to the reply shows up in the report
// instead of silently zeroing a layer metric.
type statsDoc map[string]any

func scrapeStats(addr string) (statsDoc, error) {
	c, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var resp wire.Response
	if err := c.call(&wire.Request{Op: wire.OpStats}, &resp); err != nil {
		return nil, err
	}
	if resp.Result.Status != wire.StatusOK {
		return nil, fmt.Errorf("STATS answered %v", resp.Result.Status)
	}
	return parseStats(resp.Result.Val)
}

func parseStats(b []byte) (statsDoc, error) {
	var d statsDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("STATS payload: %w", err)
	}
	return d, nil
}

// num looks a number up by section and field.
func (d statsDoc) num(section, field string) (float64, bool) {
	sec, ok := d[section].(map[string]any)
	if !ok {
		return 0, false
	}
	v, ok := sec[field].(float64)
	return v, ok
}

// hist returns the merged histogram of one latency stage over every store
// op class (PING/STATS, class "other", is left out).
func (d statsDoc) hist(stage string) (obs.HistSnapshot, bool) {
	var out obs.HistSnapshot
	list, _ := d["latency"].([]any)
	found := false
	for _, e := range list {
		m, ok := e.(map[string]any)
		if !ok || m["stage"] != stage || m["op"] == "other" {
			continue
		}
		enc, _ := m["hist"].(string)
		raw, err := base64.StdEncoding.DecodeString(enc)
		if err != nil || len(raw) == 0 {
			continue
		}
		h, _, err := obs.DecodeHist(raw)
		if err != nil {
			continue
		}
		if out.Counts == nil {
			out.Counts = make([]uint64, len(h.Counts))
		}
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
		out.Count += h.Count
		out.Sum += h.Sum
		found = true
	}
	return out, found
}

// histSince subtracts an earlier snapshot of the same histogram.
func histSince(end, start obs.HistSnapshot) obs.HistSnapshot {
	out := obs.HistSnapshot{Counts: append([]uint64(nil), end.Counts...), Count: end.Count, Sum: end.Sum}
	for i := range start.Counts {
		if i < len(out.Counts) && out.Counts[i] >= start.Counts[i] {
			out.Counts[i] -= start.Counts[i]
		}
	}
	if out.Count >= start.Count {
		out.Count -= start.Count
	}
	out.Sum -= start.Sum
	return out
}

// layerCounts derives the per-layer counters and stage latencies from the
// STATS replies taken at the start and the end of the measured phases.
// Counters are differences, so preload and warm-up are not in them; a field
// either reply lacks yields no metric.
func layerCounts(start, end statsDoc) map[string]metricValue {
	m := map[string]metricValue{}
	delta := func(section, field string) (float64, bool) {
		e, ok1 := end.num(section, field)
		s, ok2 := start.num(section, field)
		return e - s, ok1 && ok2
	}
	count := func(name, section, field string) (float64, bool) {
		v, ok := delta(section, field)
		if ok {
			m[name] = metricValue{Value: v, Unit: "count"}
		}
		return v, ok
	}
	ratio := func(name string, num, den float64, ok bool) {
		if !ok {
			return
		}
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[name] = metricValue{Value: v, Unit: "ratio", Samples: int64(den)}
	}

	commits, ok1 := count("mvstm.commits", "stm", "commits")
	ro, ok2 := delta("stm", "readonly_commits")
	conf, ok3 := delta("stm", "conflicts")
	ratio("mvstm.conflict_ratio", conf, commits+ro+conf, ok1 && ok2 && ok3)
	count("mvstm.helped_commits", "stm", "helped_commits")

	top, ok1 := delta("engine", "top_commits")
	topc, ok2 := delta("engine", "top_conflict")
	ratio("core.top_conflict_ratio", topc, top+topc, ok1 && ok2)
	fut, ok1 := delta("engine", "futures_submitted")
	re, ok2 := delta("engine", "future_reexecutions")
	ratio("core.future_reexec_ratio", re, fut, ok1 && ok2)
	ms, ok2 := delta("engine", "merged_at_submission")
	ratio("core.merged_at_submission_ratio", ms, fut, ok1 && ok2)

	// A memory-only server sends no wal section: its WAL did nothing, which
	// is the 0 the layer-separation check wants to see.
	if _, durable := end["wal"]; durable {
		fsyncs, okF := count("wal.fsyncs", "wal", "fsyncs")
		count("wal.records", "wal", "appended_records")
		count("persist.snapshots", "wal", "snapshots")
		bytes, okB := delta("wal", "appended_bytes")
		if he, ok := end.hist("batch_ops"); ok {
			hs, _ := start.hist("batch_ops")
			ops := float64(histSince(he, hs).Sum)
			if okF && fsyncs > 0 {
				m["wal.ops_per_fsync"] = metricValue{Value: ops / fsyncs, Unit: "ops", Samples: int64(fsyncs)}
			}
			if okB && ops > 0 {
				m["wal.bytes_per_op"] = metricValue{Value: bytes / ops, Unit: "bytes", Samples: int64(ops)}
			}
		}
	} else {
		for _, name := range []string{"wal.fsyncs", "wal.records", "persist.snapshots"} {
			m[name] = metricValue{Value: 0, Unit: "count"}
		}
	}

	for _, s := range []struct {
		name, stage string
		q           float64
	}{
		{"server.decode_us_p50", "decode", 0.5},
		{"server.queue_us_p50", "queue", 0.5},
		{"server.queue_us_p99", "queue", 0.99},
		{"server.exec_us_p50", "exec", 0.5},
		{"server.sync_us_p50", "sync", 0.5},
		{"server.flush_us_p50", "flush", 0.5},
	} {
		he, ok := end.hist(s.stage)
		if !ok {
			continue
		}
		hs, _ := start.hist(s.stage)
		h := histSince(he, hs)
		if h.Count > 0 {
			m[s.name] = metricValue{Value: float64(h.Quantile(s.q)) / 1e3, Unit: "us", Samples: int64(h.Count)}
		}
	}
	if he, ok := end.hist("group_size"); ok {
		hs, _ := start.hist("group_size")
		if h := histSince(he, hs); h.Count > 0 {
			m["server.group_ops_mean"] = metricValue{Value: h.Mean(), Unit: "ops", Samples: int64(h.Count)}
		}
	}
	fast, ok1 := delta("server", "fast_reads")
	fb, ok2 := delta("server", "fast_read_fallbacks")
	ratio("server.fast_read_ratio", fast, fast+fb, ok1 && ok2)
	ratio("server.fast_read_fallback_ratio", fb, fast+fb, ok1 && ok2)
	if v, ok := end.num("server", "exec_queue_hwm"); ok {
		m["server.exec_queue_hwm"] = metricValue{Value: v, Unit: "count"}
	}
	count("server.shed", "server", "shed")
	count("server.future_fanouts", "server", "future_fanouts")
	return m
}
