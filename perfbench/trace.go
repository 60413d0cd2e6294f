package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/obs"
)

// span is one interval of the traced run. Every span of an op carries
// the op's id; the op itself is the root span (Parent 0).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted in
// spanLog.dropped instead of recorded.
const maxSpans = 1 << 19

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// open starts a span; close records it once it ends.
func (l *spanLog) open(op, parent int64, name string) span {
	return span{ID: l.ids.Add(1), Parent: parent, Op: op, Name: name, Start: l.now()}
}

func (l *spanLog) close(s span) span {
	s.End = l.now()
	l.record(s)
	return s
}

func (l *spanLog) record(s span) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// selfTimes sums, per span name, the span durations minus the part of
// each span its children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// writeSpans writes the span log and the per-name self times as one
// JSON document.
func (l *spanLog) writeSpans(path, workload string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Dropped  int64              `json:"dropped_spans"`
		SelfS    map[string]float64 `json:"self_time_s"`
		Spans    []span             `json:"spans"`
	}{workload, seed, l.dropped, selfTimes(l.spans), l.spans}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// eventCounts aggregates the runtime's tracer events of one op over all
// ranks. Rank-level totals are atomics because every rank goroutine
// emits concurrently.
type eventCounts struct {
	handlerCalls, handlerNs             atomic.Int64
	collectives, collNs, collMsgs       atomic.Int64
	epochs, epochNs, waves, tokenRounds atomic.Int64
	migrations, migrationBytes          atomic.Int64
	informSends, informEntries          atomic.Int64
	proposals, rejected, noCandidate    atomic.Int64
	iterNs, lbNs, commitNs              atomic.Int64
}

// tracer is the benchmark's obs.Tracer for one op. Rank 0's events also
// become spans: epochs, lb.run and lb.iteration nest as a stack (rank 0
// emits from one goroutine), handlers and collectives are leaves timed
// by their Dur. Other ranks only feed the counters, so a 1024-rank op
// does not record one span per message.
type tracer struct {
	log  *spanLog
	op   int64
	root int64 // parent of rank 0's outermost spans

	stack       []span
	lastIterEnd int64

	c eventCounts
}

func newTracer(log *spanLog, op, root int64) *tracer {
	return &tracer{log: log, op: op, root: root}
}

func (t *tracer) Emit(e obs.Event) {
	c := &t.c
	rank0 := e.Rank == 0
	switch e.Type {
	case obs.EvHandler:
		c.handlerCalls.Add(1)
		c.handlerNs.Add(int64(e.Dur))
	case obs.EvCollective:
		c.collNs.Add(int64(e.Dur))
		c.collMsgs.Add(int64(e.Value))
		if rank0 {
			c.collectives.Add(1)
		}
	case obs.EvEpochClose:
		if rank0 {
			c.epochs.Add(1)
			c.epochNs.Add(int64(e.Dur))
			c.waves.Add(int64(e.Value))
		}
	case obs.EvTokenRound:
		c.tokenRounds.Add(1)
	case obs.EvMigration:
		c.migrations.Add(1)
		c.migrationBytes.Add(int64(e.Bytes))
	case obs.EvInformSend:
		c.informSends.Add(1)
		c.informEntries.Add(int64(e.Value))
	case obs.EvTransferPropose:
		c.proposals.Add(1)
	case obs.EvTransferReject:
		c.rejected.Add(int64(e.Value))
	case obs.EvTransferNoCandidate:
		c.noCandidate.Add(int64(e.Value))
	}
	if rank0 {
		t.rank0(e)
	}
}

// rank0 turns rank 0's events into spans.
func (t *tracer) rank0(e obs.Event) {
	now := t.log.now()
	switch e.Type {
	case obs.EvEpochOpen, obs.EvLBBegin, obs.EvIterBegin:
		t.stack = append(t.stack, t.log.open(t.op, t.parent(), e.Type.String()))
	case obs.EvEpochClose:
		t.pop(e.Type.String())
	case obs.EvIterEnd:
		s := t.pop(e.Type.String())
		t.c.iterNs.Add(s.End - s.Start)
		t.lastIterEnd = s.End
	case obs.EvLBEnd:
		s := t.pop(e.Type.String())
		t.c.lbNs.Add(s.End - s.Start)
		if t.lastIterEnd > s.Start {
			t.c.commitNs.Add(s.End - t.lastIterEnd)
		}
	case obs.EvHandler, obs.EvCollective:
		t.log.record(span{ID: t.log.ids.Add(1), Parent: t.parent(), Op: t.op,
			Name: e.Type.String() + ":" + e.Name, Start: now - int64(e.Dur), End: now})
	}
}

func (t *tracer) parent() int64 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1].ID
	}
	return t.root
}

// pop closes the innermost open span with the given name and any spans
// left open inside it.
func (t *tracer) pop(name string) span {
	for n := len(t.stack); n > 0; n = len(t.stack) {
		s := t.log.close(t.stack[n-1])
		t.stack = t.stack[:n-1]
		if s.Name == name {
			return s
		}
	}
	now := t.log.now()
	return span{Start: now, End: now}
}

// rankComm is one rank's share of the transport counters; each field is
// written by that rank's goroutine only, padded so neighbours do not
// share a cache line.
type rankComm struct {
	sends, sendNs, batches, batchMsgs, waitNs atomic.Int64
	_                                         [24]byte
}

// sampleEvery and maxSamples bound the messages the transport decorator
// encodes for the codec replay.
const (
	sampleEvery = 61
	maxSamples  = 512
)

// commCounters aggregates the transport decorator's counts for one op.
type commCounters struct {
	ranks   []rankComm
	seen    atomic.Int64
	mu      sync.Mutex
	samples [][]byte // encoded frames of sampled sends
}

func newCommCounters(ranks int) *commCounters {
	return &commCounters{ranks: make([]rankComm, ranks)}
}

func (c *commCounters) totals() (sends, sendNs, batches, batchMsgs, waitNs int64) {
	for i := range c.ranks {
		r := &c.ranks[i]
		sends += r.sends.Load()
		sendNs += r.sendNs.Load()
		batches += r.batches.Load()
		batchMsgs += r.batchMsgs.Load()
		waitNs += r.waitNs.Load()
	}
	return
}

// sample keeps the encoded frame of every sampleEvery-th send. It runs
// on the sender's goroutine before the message is handed on, so the
// payload cannot change while it is encoded.
func (c *commCounters) sample(m comm.Message) {
	if c.seen.Add(1)%sampleEvery != 0 {
		return
	}
	c.mu.Lock()
	full := len(c.samples) >= maxSamples
	c.mu.Unlock()
	if full {
		return
	}
	frame := wire.AppendMessage(nil, m)
	c.mu.Lock()
	c.samples = append(c.samples, frame)
	c.mu.Unlock()
}

// tracedTransport decorates a comm.Transport with per-rank counts and
// busy or blocked time of Send, RecvBatch and the blocking receives.
type tracedTransport struct {
	comm.Transport
	c *commCounters
}

// decorate wraps inner so the result implements comm.WireStater and
// comm.RTTHinter exactly when inner does: the runtime type-asserts both,
// and a decorator that hid them would change the collective sequence of
// the balancer and the service (rc.WireTotals) and the retry pacing.
func decorate(inner comm.Transport, c *commCounters) comm.Transport {
	t := &tracedTransport{Transport: inner, c: c}
	ws, isWS := inner.(comm.WireStater)
	rh, isRH := inner.(comm.RTTHinter)
	switch {
	case isWS && isRH:
		return struct {
			*tracedTransport
			comm.WireStater
			comm.RTTHinter
		}{t, ws, rh}
	case isWS:
		return struct {
			*tracedTransport
			comm.WireStater
		}{t, ws}
	case isRH:
		return struct {
			*tracedTransport
			comm.RTTHinter
		}{t, rh}
	}
	return t
}

func (t *tracedTransport) Send(m comm.Message) {
	t.c.sample(m)
	start := time.Now()
	t.Transport.Send(m)
	r := &t.c.ranks[m.From]
	r.sendNs.Add(int64(time.Since(start)))
	r.sends.Add(1)
}

func (t *tracedTransport) Recv(rank int) (comm.Message, bool) {
	m, ok := t.Transport.Recv(rank)
	if ok {
		r := &t.c.ranks[rank]
		r.batches.Add(1)
		r.batchMsgs.Add(1)
	}
	return m, ok
}

func (t *tracedTransport) RecvBatch(rank int, buf []comm.Message) []comm.Message {
	out := t.Transport.RecvBatch(rank, buf)
	if len(out) > 0 {
		r := &t.c.ranks[rank]
		r.batches.Add(1)
		r.batchMsgs.Add(int64(len(out)))
	}
	return out
}

func (t *tracedTransport) RecvWait(rank int) (comm.Message, bool) {
	start := time.Now()
	m, ok := t.Transport.RecvWait(rank)
	t.c.ranks[rank].waitNs.Add(int64(time.Since(start)))
	return m, ok
}

func (t *tracedTransport) RecvWaitTimeout(rank int, d time.Duration) (comm.Message, bool, bool) {
	start := time.Now()
	m, ok, timedOut := t.Transport.RecvWaitTimeout(rank, d)
	t.c.ranks[rank].waitNs.Add(int64(time.Since(start)))
	return m, ok, timedOut
}
