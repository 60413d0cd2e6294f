package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/lb/tempered"
	"temperedlb/internal/obs"
	"temperedlb/internal/serve"
	"temperedlb/internal/workload"
)

// Workload sizes. README.md records how they were chosen.
const (
	// engine-vb: the §V-B clustered case scaled to 256 ranks.
	vbRanks, vbLoaded, vbTasks = 256, 4, 750

	// dist-clustered: 1/8 of the ranks hold distObjs objects on average.
	distRanks, distObjs = 512, 48

	// serve-wire: the burst scenario on a two-node Unix-socket cluster.
	serveRanks, servePhases, serveItems, serveNodes = 16, 64, 128, 2
)

// Salts separating the seed streams the workloads derive.
const (
	saltInput   = 0x1d9
	saltLB      = 0x1b5
	saltRelabel = 0x2e7
)

// workloadNames lists the benchmark's workloads, as BENCHMARK.json does.
func workloadNames() []string { return []string{"engine-vb", "serve-wire"} }

// extraWorkloads run by name like the others but are not in
// BENCHMARK.json: dist-clustered's op times spread too far between runs
// on a shared 2-vCPU host to judge a change by (see README.md).
func extraWorkloads() []string { return []string{"dist-clustered"} }

func newWorkload(name string, seed int64) (runner, error) {
	switch name {
	case "engine-vb":
		return newEngineVB(seed)
	case "dist-clustered":
		return &distClustered{seed: seed}, nil
	case "serve-wire":
		return &serveWire{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, append(workloadNames(), extraWorkloads()...))
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// generate runs workload.Generate, traced as the op's workload.generate
// span and counted in workload.gen_s.
func generate(spec workload.Spec, ot *opTrace) (*core.Assignment, error) {
	s := ot.span("workload.generate")
	a, err := workload.Generate(spec)
	ot.add("workload.gen_s", ot.end(s))
	return a, err
}

// addHistory folds a balancer's per-iteration accounting into the core
// and tempered layer totals.
func addHistory(l *layerTotals, hist []core.IterationStats) {
	for _, st := range hist {
		l.add("core.gossip_msgs", float64(st.GossipMessages))
		l.add("core.gossip_entries", float64(st.GossipEntries))
		l.add("core.transfers", float64(st.Transfers))
		l.add("core.rejected", float64(st.Rejected))
		l.add("core.no_candidate", float64(st.NoCandidate))
		l.add(partAttempts, float64(st.Transfers+st.Rejected))
		if st.KnowledgeAvg > 0 {
			l.add(partKnowledge, st.KnowledgeAvg)
			l.add(partKnowledgeRows, 1)
		}
	}
}

// loadSummary returns max/avg and max−avg of rank loads.
func loadSummary(loads []float64) (ratio, waste float64) {
	max, sum := 0.0, 0.0
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	avg := sum / float64(len(loads))
	if avg == 0 {
		return 1, 0
	}
	return max / avg, max - avg
}

// ---------------------------------------------------------------------
// engine-vb

// engineVB runs the §V-D configuration through one reused core.Engine
// (one more, with the tracer attached, for traced ops).
type engineVB struct {
	seed          int64
	plain, traced *core.Engine
	fwd           forwardTracer
}

// forwardTracer hands engine events to the current op's tracer; the
// engine's tracer is fixed at construction, the op's is not.
type forwardTracer struct{ t *tracer }

func (f *forwardTracer) Emit(e obs.Event) { f.t.Emit(e) }

func vbConfig(seed int64) core.Config {
	cfg := core.Tempered()
	cfg.Trials, cfg.Iterations = 2, 4
	cfg.Rounds, cfg.Fanout = 6, 4
	cfg.Seed = deriveSeed(seed, saltLB)
	return cfg
}

func vbSpec(seed int64, op int) workload.Spec {
	s := workload.VBCase(deriveSeed(seed, int64(op), saltInput))
	s.NumRanks, s.LoadedRanks, s.NumTasks = vbRanks, vbLoaded, vbTasks
	return s
}

// vbCase generates the case of op number op. workload.Generate always loads ranks
// 0..LoadedRanks-1, and the reused engine draws rank r's random streams
// from the run seed and r alone. Renaming the ranks with a permutation
// drawn from the op's seed gives every op its own streams at the loaded
// ranks; otherwise the run seed alone would set the balance quality of
// the whole run.
func vbCase(seed int64, op int, ot *opTrace) (*core.Assignment, error) {
	a, err := generate(vbSpec(seed, op), ot)
	if err != nil {
		return nil, err
	}
	perm := core.SeededRNG(seed, int64(op), saltRelabel).Perm(a.NumRanks())
	b := core.NewAssignment(a.NumRanks())
	for t := 0; t < a.NumTasks(); t++ {
		id := core.TaskID(t)
		b.Add(a.Load(id), core.Rank(perm[a.Owner(id)]))
	}
	return b, nil
}

func newEngineVB(seed int64) (*engineVB, error) {
	w := &engineVB{seed: seed}
	cfg := vbConfig(seed)
	var err error
	if w.plain, err = core.NewEngine(cfg); err != nil {
		return nil, err
	}
	cfg.Tracer = &w.fwd
	if w.traced, err = core.NewEngine(cfg); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *engineVB) op(i int, ot *opTrace) opOutcome {
	var out opOutcome
	start := time.Now()
	a, err := vbCase(w.seed, i, ot)
	if err != nil {
		return opOutcome{err: err}
	}
	out.setupS = since(start)
	eng := w.plain
	run := ot.span("core.Engine.Run")
	var tr *tracer
	if ot != nil {
		eng = w.traced
		tr = newTracer(ot.log, ot.id, run.ID)
		w.fwd.t = tr
	}

	start = time.Now()
	res, err := eng.Run(a)
	out.opS = since(start)
	ot.end(run)
	if err != nil {
		out.err = err
		return out
	}
	var c errCheck
	before, owners := a.RankLoads(), a.AppendOwners(nil)
	moved := make(map[core.TaskID]bool, len(res.Moves))
	for _, m := range res.Moves {
		switch {
		case int(m.Task) < 0 || int(m.Task) >= a.NumTasks():
			c.fail("move of unknown task %d", m.Task)
			continue
		case moved[m.Task]:
			c.fail("task %d moved twice", m.Task)
		case a.Owner(m.Task) != m.From || m.From == m.To || int(m.To) < 0 || int(m.To) >= a.NumRanks():
			c.fail("bad move %+v (owner %d)", m, a.Owner(m.Task))
		}
		moved[m.Task] = true
	}
	if c.err() != nil {
		out.err = c.err()
		return out
	}

	commit := ot.span("core.Result.Apply")
	start = time.Now()
	res.Apply(a)
	out.opS += since(start)
	ot.add("tempered.commit_s", ot.end(commit))
	if ot != nil {
		addHistory(ot.layers, res.History)
		ot.layers.addEvents(tr, nil)
	}

	out.err = checkEngine(a, res, before, owners)
	out.loadRatio, out.totalCost = loadSummary(a.RankLoads())
	out.migrations = float64(len(res.Moves))
	return out
}

// checkEngine checks a committed engine result against the rank loads
// and task owners from before the commit: every task sits where the
// result's moves put it, total load is conserved, and the reported final
// imbalance is the one recomputed from scratch out of the task owners.
func checkEngine(a *core.Assignment, res *core.Result, before []float64, owners []core.Rank) error {
	var c errCheck
	if a.NumTasks() != vbTasks || len(owners) != vbTasks {
		c.fail("task count %d, want %d", a.NumTasks(), vbTasks)
		return c.err()
	}
	if err := a.Validate(); err != nil {
		c.fail("assignment invalid: %v", err)
	}
	want := append([]core.Rank(nil), owners...)
	for _, m := range res.Moves {
		want[m.Task] = m.To
	}
	for t, r := range want {
		if got := a.Owner(core.TaskID(t)); got != r {
			c.fail("task %d on rank %d, want %d", t, got, r)
			break
		}
	}
	loads := make([]float64, a.NumRanks())
	for t := 0; t < a.NumTasks(); t++ {
		loads[a.Owner(core.TaskID(t))] += a.Load(core.TaskID(t))
	}
	sumBefore, sumAfter := 0.0, 0.0
	for r := range loads {
		sumBefore += before[r]
		sumAfter += loads[r]
	}
	c.near("total load", sumAfter, sumBefore)
	ratio, _ := loadSummary(loads)
	c.near("max/avg", ratio, 1+res.FinalImbalance)
	if res.FinalImbalance > res.InitialImbalance {
		c.fail("final imbalance %g above initial %g", res.FinalImbalance, res.InitialImbalance)
	}
	return c.err()
}

func (w *engineVB) replay(l *layerTotals) {
	a, err := vbCase(w.seed, 0, nil)
	if err != nil {
		return
	}
	tasks := make([][]core.Task, a.NumRanks())
	for r := range tasks {
		tasks[r] = a.TasksOf(core.Rank(r))
	}
	msgs := replayCore(w.plain.Config(), tasks, l)
	replayCodec(nil, msgs, a.NumRanks(), l)
	replayModel(staticPhases(tasks, 8), l)
}

// ---------------------------------------------------------------------
// dist-clustered

// distClustered runs one collective RunDistributed on a fresh
// in-memory runtime per op; Runtime.Run closes its transport, so the
// runtime is part of each op's set-up.
type distClustered struct {
	seed int64
	// frames are the codec samples of the traced ops.
	frames [][]byte
}

func distConfig(seed int64, op int) core.Config {
	cfg := core.Tempered()
	cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 3
	cfg.Seed = deriveSeed(seed, int64(op), saltLB)
	return cfg
}

func distSpec(seed int64, op int) workload.Spec {
	return workload.Spec{
		NumRanks:    distRanks,
		NumTasks:    distRanks / 8 * distObjs,
		Placement:   workload.PlaceClustered,
		LoadedRanks: distRanks / 8,
		Loads:       workload.LoadUniform,
		Seed:        deriveSeed(seed, int64(op), saltInput),
	}
}

// distRank is what one rank reports after the op.
type distRank struct {
	res   tempered.DistResult
	err   error
	objs  []amt.ObjectID
	loads float64
}

func (w *distClustered) op(i int, ot *opTrace) opOutcome {
	var out opOutcome
	start := time.Now()
	a, err := generate(distSpec(w.seed, i), ot)
	if err != nil {
		return opOutcome{err: err}
	}
	cfg := distConfig(w.seed, i)
	var opts []amt.Option
	var tr *tracer
	var cc *commCounters
	run := ot.span("amt.Runtime.Run")
	if ot != nil {
		tr = newTracer(ot.log, ot.id, run.ID)
		cc = newCommCounters(distRanks)
		opts = append(opts, amt.WithTracer(tr), amt.WithTransport(decorate(comm.NewNetwork(distRanks), cc)))
	}
	ranks, t0, t1 := distRun(a, cfg, opts...)
	ot.end(run)
	out.setupS = t0.Sub(start).Seconds()
	out.opS = t1.Sub(t0).Seconds()
	if ot != nil {
		addHistory(ot.layers, ranks[0].res.History)
		ot.layers.addEvents(tr, cc)
		w.frames = append(w.frames, cc.samples...)
	}

	loads := make([]float64, distRanks)
	migrations := 0
	for r := range ranks {
		loads[r] = ranks[r].loads
		migrations += ranks[r].res.Migrations
	}
	out.err = checkDist(a, ranks)
	out.loadRatio, out.totalCost = loadSummary(loads)
	out.migrations = float64(migrations)
	return out
}

// distRun runs RunDistributed on every rank of a fresh runtime whose
// ranks first create the objects a assigns them, and reports per rank
// plus rank 0's op window (barrier to barrier).
func distRun(a *core.Assignment, cfg core.Config, opts ...amt.Option) ([]distRank, time.Time, time.Time) {
	n := a.NumRanks()
	rt := amt.New(n, opts...)
	h := tempered.RegisterHandlers(rt, 1)
	ranks := make([]distRank, n)
	var t0, t1 time.Time
	rt.Run(func(rc *amt.Context) {
		r := int(rc.Rank())
		loads := make(map[amt.ObjectID]float64)
		for _, t := range a.TasksOf(rc.Rank()) {
			loads[rc.CreateObject(t.Load)] = t.Load
		}
		rc.Barrier()
		if r == 0 {
			t0 = time.Now()
		}
		res, err := tempered.RunDistributed(rc, h, cfg, loads)
		rc.Barrier()
		if r == 0 {
			t1 = time.Now()
		}
		me := &ranks[r]
		me.res, me.err = res, err
		me.objs = rc.LocalObjects()
		for _, id := range me.objs {
			st, _ := rc.ObjectState(id)
			me.loads += st.(float64)
		}
	})
	return ranks, t0, t1
}

// checkDist checks a distributed op: no rank failed, every rank reports
// the same protocol-determined result, every object still exists
// exactly once with its load, and the reported final imbalance is the
// one recomputed from the objects' final ranks.
func checkDist(a *core.Assignment, ranks []distRank) error {
	var c errCheck
	ref := ranks[0].res.StripTiming()
	seen := make(map[amt.ObjectID]bool, a.NumTasks())
	loads := make([]float64, len(ranks))
	total := 0.0
	for r := range ranks {
		if ranks[r].err != nil {
			c.fail("rank %d: %v", r, ranks[r].err)
		}
		if got := ranks[r].res.StripTiming(); got.FinalImbalance != ref.FinalImbalance ||
			got.InitialImbalance != ref.InitialImbalance || !reflect.DeepEqual(got.History, ref.History) ||
			got.GossipMessages != ref.GossipMessages || got.TransferMessages != ref.TransferMessages {
			c.fail("rank %d disagrees with rank 0 (final I %g vs %g)", r, got.FinalImbalance, ref.FinalImbalance)
		}
		for _, id := range ranks[r].objs {
			if seen[id] {
				c.fail("object %d on two ranks", id)
			}
			seen[id] = true
		}
		loads[r] = ranks[r].loads
		total += loads[r]
	}
	if len(seen) != a.NumTasks() {
		c.fail("%d objects after the op, want %d", len(seen), a.NumTasks())
	}
	c.near("total load", total, a.TotalLoad())
	ratio, _ := loadSummary(loads)
	c.near("max/avg", ratio, 1+ref.FinalImbalance)
	if ref.FinalImbalance > ref.InitialImbalance {
		c.fail("final imbalance %g above initial %g", ref.FinalImbalance, ref.InitialImbalance)
	}
	return c.err()
}

func (w *distClustered) replay(l *layerTotals) {
	a, err := workload.Generate(distSpec(w.seed, 0))
	if err != nil {
		return
	}
	tasks := make([][]core.Task, a.NumRanks())
	for r := range tasks {
		tasks[r] = a.TasksOf(core.Rank(r))
	}
	replayCore(distConfig(w.seed, 0), tasks, l)
	replayCodec(w.frames, nil, distRanks, l)
	replayModel(staticPhases(tasks, 8), l)
}

// ---------------------------------------------------------------------
// serve-wire

// serveWire runs one serve.Run per op on a fresh two-node Unix-socket
// cluster hosted in this process.
type serveWire struct {
	seed   int64
	frames [][]byte
}

func serveConfig(seed int64, op int) serve.Config {
	trig, err := serve.ParseTrigger("forecast")
	if err != nil {
		panic(err) // a constant spec; only a bug makes it fail
	}
	return serve.Config{
		Scenario: serve.Spec{
			Kind: serve.KindBurst, Ranks: serveRanks, Phases: servePhases, Items: serveItems,
			Seed: deriveSeed(seed, int64(op), saltInput),
		},
		Trigger: trig,
	}
}

// serveRank is what one rank reports after the op.
type serveRank struct {
	res      serve.Result
	err      error
	objs     int
	lastLoad float64 // load of the rank's objects in the last phase
}

// serveRun runs the service on every rank of runtimes that together
// host serveRanks ranks, and reports per rank plus rank 0's op window.
func serveRun(rts []*amt.Runtime, cfg serve.Config, sc *serve.Scenario) ([]serveRank, time.Time, time.Time, error) {
	ranks := make([]serveRank, serveRanks)
	var t0, t1 time.Time
	last := sc.Spec.Phases - 1
	body := func(h *tempered.Handlers) func(rc *amt.Context) {
		return func(rc *amt.Context) {
			rc.Barrier()
			if rc.Rank() == 0 {
				t0 = time.Now()
			}
			res, err := serve.Run(rc, h, cfg)
			rc.Barrier()
			if rc.Rank() == 0 {
				t1 = time.Now()
			}
			me := &ranks[rc.Rank()]
			me.res, me.err = res, err
			for _, id := range rc.LocalObjects() {
				me.objs++
				st, _ := rc.ObjectState(id)
				if it := int(st.(float64)); sc.Alive(it, last) {
					me.lastLoad += sc.Load(it, last)
				}
			}
		}
	}
	var wg sync.WaitGroup
	panics := make([]any, len(rts))
	for i, rt := range rts {
		b := body(tempered.RegisterHandlers(rt, 1))
		wg.Add(1)
		go func(i int, rt *amt.Runtime) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			rt.Run(b)
		}(i, rt)
	}
	wg.Wait()
	for i, p := range panics {
		if p != nil {
			return ranks, t0, t1, fmt.Errorf("node %d: %v", i, p)
		}
	}
	return ranks, t0, t1, nil
}

func (w *serveWire) op(i int, ot *opTrace) opOutcome {
	var out opOutcome
	start := time.Now()
	cfg := serveConfig(w.seed, i)
	gen := ot.span("serve.NewScenario")
	sc, err := serve.NewScenario(cfg.Scenario)
	ot.add("workload.gen_s", ot.end(gen))
	if err != nil {
		return opOutcome{err: err}
	}
	cl := ot.span("wire.NewCluster")
	cluster, err := wire.NewCluster("unix", serveRanks, serveNodes, uint64(cfg.Scenario.Seed))
	ot.end(cl)
	if err != nil {
		return opOutcome{err: err}
	}
	defer cluster.Close()
	var tr *tracer
	var cc *commCounters
	run := ot.span("serve.Run")
	if ot != nil {
		tr = newTracer(ot.log, ot.id, run.ID)
		cc = newCommCounters(serveRanks)
	}
	rts := make([]*amt.Runtime, len(cluster.Transports))
	for n, t := range cluster.Transports {
		if ot != nil {
			rts[n] = amt.New(serveRanks, amt.WithTracer(tr), amt.WithTransport(decorate(t, cc)))
		} else {
			rts[n] = amt.New(serveRanks, amt.WithTransport(t))
		}
	}
	ranks, t0, t1, err := serveRun(rts, cfg, sc)
	ot.end(run)
	if err != nil {
		return opOutcome{err: err}
	}
	out.setupS = t0.Sub(start).Seconds()
	out.opS = t1.Sub(t0).Seconds()

	var c errCheck
	var ws comm.WireStats
	for n, t := range cluster.Transports {
		if err := t.Err(); err != nil {
			c.fail("node %d transport: %v", n, err)
		}
		s := t.WireStats()
		ws.FramesOut += s.FramesOut
		ws.BytesOut += s.BytesOut
		ws.Redials += s.Redials
		ws.QueueHighWater = max(ws.QueueHighWater, s.QueueHighWater)
	}
	if err := checkServe(sc, ranks); err != nil {
		c.fail("%v", err)
	}
	if i == 0 && c.err() == nil {
		if err := checkServeInMemory(cfg, sc, ranks); err != nil {
			c.fail("%v", err)
		}
	}
	out.err = c.err()

	res := ranks[0].res
	for _, row := range res.Rows {
		out.loadRatio += row.Max / row.Avg
	}
	out.loadRatio /= float64(len(res.Rows))
	out.totalCost = res.TotalCost
	for r := range ranks {
		out.migrations += float64(ranks[r].res.LocalMigrations)
	}

	if ot != nil {
		l := ot.layers
		l.addEvents(tr, cc)
		w.frames = append(w.frames, cc.samples...)
		l.add("wire.frames_out", float64(ws.FramesOut))
		l.add("wire.bytes_out", float64(ws.BytesOut))
		l.add("wire.queue_highwater", float64(ws.QueueHighWater))
		l.add("wire.redials", float64(ws.Redials))
		// serve.Result carries no History; the balancer's tracer events
		// give the same counts.
		ec := &tr.c
		l.add("core.gossip_msgs", float64(ec.informSends.Load()))
		l.add("core.gossip_entries", float64(ec.informEntries.Load()))
		l.add("core.transfers", float64(ec.proposals.Load()))
		l.add("core.rejected", float64(ec.rejected.Load()))
		l.add("core.no_candidate", float64(ec.noCandidate.Load()))
		l.add(partAttempts, float64(ec.proposals.Load()+ec.rejected.Load()))
		l.add("serve.fires", float64(res.Fires))
		for _, row := range res.Rows {
			if row.Fired && row.FinalImb < row.InitialImb {
				l.add(partUsefulFires, 1)
			}
		}
		l.add(partMAE, res.ForecastMAE)
		l.add(partMAEOps, 1)
	}
	return out
}

// checkServe checks a service run: no rank failed, every rank reports
// the same collectively agreed result, every created object still
// exists, the last phase's total load is the one the ranks reported,
// and the cost accounting adds up.
func checkServe(sc *serve.Scenario, ranks []serveRank) error {
	var c errCheck
	ref := ranks[0].res
	objs, items := 0, 0
	loads := make([]float64, len(ranks))
	for r := range ranks {
		got := ranks[r].res
		if ranks[r].err != nil {
			c.fail("rank %d: %v", r, ranks[r].err)
		}
		got.LocalMigrations = ref.LocalMigrations
		if !reflect.DeepEqual(got, ref) {
			c.fail("rank %d disagrees with rank 0 (total cost %g vs %g, fp %x vs %x)",
				r, got.TotalCost, ref.TotalCost, got.AssignFP, ref.AssignFP)
		}
		objs += ranks[r].objs
		items += len(sc.Arrivals(r))
		loads[r] = ranks[r].lastLoad
	}
	if objs != items {
		c.fail("%d objects after the run, want %d", objs, items)
	}
	if len(ref.Rows) != sc.Spec.Phases {
		return fmt.Errorf("%d phase rows, want %d", len(ref.Rows), sc.Spec.Phases)
	}
	waste := 0.0
	for _, row := range ref.Rows {
		waste += row.Max - row.Avg
	}
	c.near("total waste", ref.TotalWaste, waste)
	c.near("total cost", ref.TotalCost, ref.TotalWaste+ref.LBPaid)
	lastRow := ref.Rows[len(ref.Rows)-1]
	total, max := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	c.near("last phase total load", total, lastRow.Avg*float64(len(ranks)))
	if !lastRow.Fired {
		// The objects have not moved since the last phase was observed.
		c.near("last phase max load", max, lastRow.Max)
	}
	return c.err()
}

// checkServeInMemory reruns the op's service on the in-memory transport
// and requires the same result as the socket run.
func checkServeInMemory(cfg serve.Config, sc *serve.Scenario, wired []serveRank) error {
	mem, _, _, err := serveRun([]*amt.Runtime{amt.New(serveRanks)}, cfg, sc)
	if err != nil {
		return fmt.Errorf("in-memory rerun: %w", err)
	}
	if err := checkServe(sc, mem); err != nil {
		return fmt.Errorf("in-memory rerun: %w", err)
	}
	a, b := mem[0].res, wired[0].res
	migA, migB := 0, 0
	for r := range mem {
		migA += mem[r].res.LocalMigrations
		migB += wired[r].res.LocalMigrations
	}
	a.LocalMigrations, b.LocalMigrations = migA, migB
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("socket run differs from in-memory run: total cost %g vs %g, fires %d vs %d, fp %x vs %x, migrations %d vs %d",
			b.TotalCost, a.TotalCost, b.Fires, a.Fires, b.AssignFP, a.AssignFP, migB, migA)
	}
	return nil
}

func (w *serveWire) replay(l *layerTotals) {
	cfg := serveConfig(w.seed, 0)
	sc, err := serve.NewScenario(cfg.Scenario)
	if err != nil {
		return
	}
	// The balancer's input as the ranks first hold it: every item at
	// its home with its phase-0 load.
	tasks := make([][]core.Task, serveRanks)
	phases := make([][]map[amt.ObjectID]float64, servePhases)
	for p := range phases {
		phases[p] = make([]map[amt.ObjectID]float64, serveRanks)
		for r := range phases[p] {
			phases[p][r] = map[amt.ObjectID]float64{}
		}
	}
	for i := 0; i < sc.NumItems(); i++ {
		home := sc.Item(i).Home
		tasks[home] = append(tasks[home], core.Task{ID: core.TaskID(len(tasks[home])), Load: sc.Load(i, 0)})
		for p := range phases {
			if sc.Alive(i, p) {
				phases[p][home][amt.ObjectID(i)] = sc.Load(i, p)
			}
		}
	}
	lb := core.Tempered()
	lb.Rounds, lb.Trials, lb.Iterations = 1, 2, 4
	lb.Seed = cfg.Scenario.Seed
	replayCore(lb, tasks, l)
	replayCodec(w.frames, nil, serveRanks, l)
	replayModel(phases, l)
}
