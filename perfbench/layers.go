package main

// metricDef names one reported metric with its unit and the direction
// that is better. The tables must match BENCHMARK.json (the tests
// check).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_s_p50", "s", "lower"},
	{"op_s_p90", "s", "lower"},
	{"load_ratio", "ratio", "lower"},
	{"migrations", "objects/op", "lower"},
	{"total_cost", "load/op", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// layerMetrics are reported by the traced run, all per op unless the
// unit says otherwise. README.md maps each to the end-to-end metric it
// should move.
var layerMetrics = []metricDef{
	{"workload.gen_s", "s", "lower"},
	{"core.gossip_msgs", "count", "lower"},
	{"core.gossip_entries", "count", "lower"},
	{"core.transfers", "count", "lower"},
	{"core.rejected", "count", "lower"},
	{"core.no_candidate", "count", "lower"},
	{"core.accept_ratio", "ratio", "higher"},
	{"core.merge_ns", "ns", "lower"},
	{"core.cmf_ns", "ns", "lower"},
	{"core.transfer_ns", "ns", "lower"},
	{"comm.sends", "count", "lower"},
	{"comm.send_s", "s", "lower"},
	{"comm.recv_batches", "count", "lower"},
	{"comm.msgs_per_batch", "msgs/batch", "higher"},
	{"comm.recv_wait_s", "s", "lower"},
	{"wire.frames_out", "count", "lower"},
	{"wire.bytes_out", "bytes", "lower"},
	{"wire.bytes_per_frame", "bytes/frame", "lower"},
	{"wire.queue_highwater", "msgs", "lower"},
	{"wire.redials", "count", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"amt.epochs", "count", "lower"},
	{"amt.epoch_s", "s", "lower"},
	{"amt.collectives", "count", "lower"},
	{"amt.collective_wait_s", "s", "lower"},
	{"amt.collective_msgs", "count", "lower"},
	{"amt.handler_calls", "count", "lower"},
	{"amt.handler_s", "s", "lower"},
	{"amt.migrations", "count", "lower"},
	{"amt.migration_bytes", "bytes", "lower"},
	{"termination.token_rounds", "count", "lower"},
	{"termination.waves_per_epoch", "waves", "lower"},
	{"tempered.iter_s", "s", "lower"},
	{"tempered.commit_s", "s", "lower"},
	{"tempered.knowledge_avg", "ranks", "higher"},
	{"serve.fires", "count", "lower"},
	{"serve.useful_fire_ratio", "ratio", "higher"},
	{"serve.forecast_mae", "load", "lower"},
	{"serve.lb_s", "s", "lower"},
	{"serve.model_ns", "ns", "lower"},
	{"proc.alloc_bytes", "bytes", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_s", "s", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
}

// layerTotals accumulates the traced ops' per-layer numbers. Plain
// metrics are summed and divided by the op count; ratios are formed from
// summed parts at the end; the kernel replays set their per-call
// nanoseconds directly.
type layerTotals struct {
	ops    int
	sum    map[string]float64
	direct map[string]float64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{sum: map[string]float64{}, direct: map[string]float64{}}
}

func (l *layerTotals) add(name string, v float64) { l.sum[name] += v }

// Parts of ratio metrics, summed over the ops.
const (
	partAttempts      = "part.attempts"
	partBatchMsgs     = "part.batch_msgs"
	partWaves         = "part.waves"
	partKnowledge     = "part.knowledge"
	partKnowledgeRows = "part.knowledge_rows"
	partUsefulFires   = "part.useful_fires"
	partMAE           = "part.forecast_mae"
	partMAEOps        = "part.forecast_mae_ops"
)

// ratio returns num/den, or 0 when the denominator is 0 (the layer did
// no work of that kind in this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics forms the per-layer report. Every metric of layerMetrics but
// bench.trace_overhead, which the run loop adds, is present.
func (l *layerTotals) metrics() map[string]metricValue {
	out := make(map[string]metricValue, len(layerMetrics))
	perOp := func(name string) float64 { return ratio(l.sum[name], float64(l.ops)) }
	for _, m := range layerMetrics {
		v, ok := l.direct[m.name]
		if !ok {
			v = perOp(m.name)
		}
		out[m.name] = metricValue{v, m.unit}
	}
	set := func(name string, v float64) { out[name] = metricValue{v, out[name].Unit} }
	set("core.accept_ratio", ratio(l.sum["core.transfers"], l.sum[partAttempts]))
	set("comm.msgs_per_batch", ratio(l.sum[partBatchMsgs], l.sum["comm.recv_batches"]))
	set("wire.bytes_per_frame", ratio(l.sum["wire.bytes_out"], l.sum["wire.frames_out"]))
	set("termination.waves_per_epoch", ratio(l.sum[partWaves], l.sum["amt.epochs"]))
	set("tempered.knowledge_avg", ratio(l.sum[partKnowledge], l.sum[partKnowledgeRows]))
	set("serve.useful_fire_ratio", ratio(l.sum[partUsefulFires], l.sum["serve.fires"]))
	set("serve.forecast_mae", ratio(l.sum[partMAE], l.sum[partMAEOps]))
	delete(out, "bench.trace_overhead")
	return out
}

// addEvents folds one op's tracer and transport counters into the
// totals. cc is nil for a workload without a transport.
func (l *layerTotals) addEvents(t *tracer, cc *commCounters) {
	c := &t.c
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	l.add("amt.epochs", float64(c.epochs.Load()))
	l.add("amt.epoch_s", sec(c.epochNs.Load()))
	l.add(partWaves, float64(c.waves.Load()))
	l.add("amt.collectives", float64(c.collectives.Load()))
	l.add("amt.collective_msgs", float64(c.collMsgs.Load()))
	l.add("amt.handler_calls", float64(c.handlerCalls.Load()))
	l.add("amt.handler_s", sec(c.handlerNs.Load()))
	l.add("amt.migrations", float64(c.migrations.Load()))
	l.add("amt.migration_bytes", float64(c.migrationBytes.Load()))
	l.add("termination.token_rounds", float64(c.tokenRounds.Load()))
	l.add("tempered.iter_s", sec(c.iterNs.Load()))
	l.add("tempered.commit_s", sec(c.commitNs.Load()))
	l.add("serve.lb_s", sec(c.lbNs.Load()))
	if cc != nil {
		// Waiting is reported per rank, as the mean rank's blocked time;
		// busy time is summed over the ranks.
		n := float64(len(cc.ranks))
		l.add("amt.collective_wait_s", sec(c.collNs.Load())/n)
		sends, sendNs, batches, batchMsgs, waitNs := cc.totals()
		l.add("comm.sends", float64(sends))
		l.add("comm.send_s", sec(sendNs))
		l.add("comm.recv_batches", float64(batches))
		l.add(partBatchMsgs, float64(batchMsgs))
		l.add("comm.recv_wait_s", sec(waitNs)/n)
	}
}
