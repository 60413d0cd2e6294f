package main

import (
	"slices"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
)

// replayBudget is roughly how long each kernel replay repeats its
// inputs; enough repetitions to make the per-call time steady.
const replayBudget = 150 * time.Millisecond

// replayCore times the exported core kernels on a workload's balancing
// input, the tasks of every rank under the op's configuration: one
// gossip stage (InformState.Begin and Receive, delivered in FIFO order
// like the engine does), then on every overloaded rank a CMF rebuild
// plus sample and one transfer stage (RunTransferScratch). It sets core.merge_ns
// (per gossip message), core.cmf_ns (per rebuild and sample) and
// core.transfer_ns (per overloaded rank's transfer stage), and returns
// the gossip messages of the first repetition for the codec replay.
func replayCore(cfg core.Config, tasks [][]core.Task, l *layerTotals) []comm.Message {
	n := len(tasks)
	loads := make([]float64, n)
	total := 0.0
	for r, ts := range tasks {
		for _, t := range ts {
			loads[r] += t.Load
		}
		total += loads[r]
	}
	ave := total / float64(n)
	states := make([]*core.InformState, n)
	for r := range states {
		states[r] = core.NewInformState(core.Rank(r), n, &cfg, core.SeededRNG(cfg.Seed, int64(r), 0x90551))
	}
	var (
		queue                []core.Send
		msgs                 []comm.Message
		gossipNs, cmfNs      time.Duration
		transferNs           time.Duration
		merged, built, xfers int
		cmf                  core.CMF
		scr                  core.TransferScratch
	)
	deadline := time.Now().Add(replayBudget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		for r, st := range states {
			st.Reset()
			st.Reseed(deriveSeed(cfg.Seed, int64(rep), int64(r)))
		}
		start := time.Now()
		queue = queue[:0]
		for r, st := range states {
			queue = append(queue, st.Begin(ave, loads[r])...)
		}
		for head := 0; head < len(queue); head++ {
			more, _ := states[queue[head].To].Receive(queue[head].Msg)
			queue = append(queue, more...)
		}
		gossipNs += time.Since(start)
		merged += len(queue)
		if rep == 0 {
			for _, s := range queue {
				msgs = append(msgs, comm.Message{To: int(s.To), Handler: 1, Data: s.Msg})
			}
		}

		rng := core.SeededRNG(cfg.Seed, int64(rep), 0xc3f)
		for r, st := range states {
			if loads[r] <= cfg.Threshold*ave {
				continue
			}
			know := st.Knowledge()
			know.Canonicalize()
			start = time.Now()
			if cmf.Rebuild(know, core.Rank(r), ave, cfg.CMF) {
				cmf.Sample(rng)
			}
			cmfNs += time.Since(start)
			built++
			start = time.Now()
			core.RunTransferScratch(core.Rank(r), tasks[r], loads[r], ave, know, &cfg, rng, nil, &scr)
			transferNs += time.Since(start)
			xfers++
		}
	}
	l.direct["core.merge_ns"] = ratio(float64(gossipNs), float64(merged))
	l.direct["core.cmf_ns"] = ratio(float64(cmfNs), float64(built))
	l.direct["core.transfer_ns"] = ratio(float64(transferNs), float64(xfers))
	return msgs
}

// deriveSeed mixes a run seed with stream indices into an independent
// seed (the repo's SeededRNG does the mixing).
func deriveSeed(seed int64, streams ...int64) int64 {
	return core.SeededRNG(seed, streams...).Int63()
}

// replayCodec times wire.AppendMessage and wire.DecodeMessage on sampled
// messages: frames the transport decorator encoded during the traced
// ops, or, for a workload without a transport, the messages its gossip
// stage produces. It sets wire.encode_ns and wire.decode_ns per message.
func replayCodec(frames [][]byte, msgs []comm.Message, ranks int, l *layerTotals) {
	for _, f := range frames {
		// The frame's 4-byte length and 2-byte header precede the body
		// DecodeMessage takes.
		m, err := wire.DecodeMessage(f[6:], ranks)
		if err == nil {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) == 0 {
		return
	}
	bodies := make([][]byte, len(msgs))
	var buf []byte
	var encNs, decNs time.Duration
	calls := 0
	deadline := time.Now().Add(replayBudget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		start := time.Now()
		for i, m := range msgs {
			buf = wire.AppendMessage(buf[:0], m)
			if rep == 0 {
				bodies[i] = append([]byte(nil), buf[6:]...)
			}
		}
		encNs += time.Since(start)
		start = time.Now()
		for _, b := range bodies {
			wire.DecodeMessage(b, ranks)
		}
		decNs += time.Since(start)
		calls += len(msgs)
	}
	l.direct["wire.encode_ns"] = ratio(float64(encNs), float64(calls))
	l.direct["wire.decode_ns"] = ratio(float64(decNs), float64(calls))
}

// replayModel times amt.LoadModel.Observe plus Predictions, one call of
// each per rank and phase, over phases[p][rank] — the per-object loads
// each rank observes in phase p. It sets serve.model_ns per phase and
// rank.
func replayModel(phases [][]map[amt.ObjectID]float64, l *layerTotals) {
	if len(phases) == 0 {
		return
	}
	ranks := len(phases[0])
	stats := make([][]amt.PhaseStats, ranks)
	for r := range stats {
		for _, ph := range phases {
			st := amt.PhaseStats{Loads: ph[r]}
			ids := make([]amt.ObjectID, 0, len(ph[r]))
			for id := range ph[r] {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, id := range ids {
				st.Total += ph[r][id]
			}
			stats[r] = append(stats[r], st)
		}
	}
	var ns time.Duration
	calls := 0
	deadline := time.Now().Add(replayBudget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		for r := range stats {
			m := amt.NewLoadModel(0.5)
			m.SetTrend(0.3)
			start := time.Now()
			for _, st := range stats[r] {
				m.Observe(st)
				m.Predictions()
			}
			ns += time.Since(start)
			calls += len(stats[r])
		}
	}
	l.direct["serve.model_ns"] = ratio(float64(ns), float64(calls))
}

// staticPhases turns per-rank task lists into phases observations for
// replayModel: the same loads observed for a few phases, as an
// application whose loads persist would feed the model.
func staticPhases(tasks [][]core.Task, phases int) [][]map[amt.ObjectID]float64 {
	obs := make([]map[amt.ObjectID]float64, len(tasks))
	id := 0
	for r, ts := range tasks {
		obs[r] = make(map[amt.ObjectID]float64, len(ts))
		for _, t := range ts {
			obs[r][amt.ObjectID(id)] = t.Load
			id++
		}
	}
	out := make([][]map[amt.ObjectID]float64, phases)
	for p := range out {
		out[p] = obs
	}
	return out
}
