// Machine-readable benchmark emission: `make bench-json` (or BENCH_JSON=1
// go test -run TestWriteBenchJSON) reruns a fixed set of leaf benchmark
// configurations through testing.Benchmark and writes BENCH_lb.json, the
// perf trajectory future PRs diff against. Rows are measured by
// measureSuite, the same way the `make bench-compare` gate measures them. The set deliberately includes
// an engine run with a tracer attached so observability overhead is part
// of the recorded trajectory.
package temperedlb_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"temperedlb"
	"temperedlb/internal/amt"
	"temperedlb/internal/analysis"
	"temperedlb/internal/core"
	"temperedlb/internal/lbaf"
	"temperedlb/internal/obs"
	"temperedlb/internal/serve"
	"temperedlb/internal/workload"
)

// benchRecord is one BENCH_lb.json row.
type benchRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

type benchFile struct {
	GoVersion  string        `json:"go_version"`
	GoOS       string        `json:"goos"`
	GoArch     string        `json:"goarch"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// benchJSONSuite lists the leaf configurations recorded in
// BENCH_lb.json. Keep names stable across PRs: the file is a trajectory,
// and renaming a row severs its history.
func benchJSONSuite() []struct {
	name string
	fn   func(b *testing.B)
} {
	engineSpec := func() *core.Assignment {
		a, err := workload.Generate(benchVBSpec())
		if err != nil {
			panic(err)
		}
		return a
	}
	engineCfg := func() core.Config {
		cfg := core.Tempered()
		cfg.Trials, cfg.Iterations = 2, 4
		cfg.Rounds, cfg.Fanout = 6, 4
		return cfg
	}
	runEngine := func(b *testing.B, cfg core.Config) {
		a := engineSpec()
		eng, err := core.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"table_vb", func(b *testing.B) {
			spec, cfg := benchVBSpec(), benchLBAFConfig()
			for i := 0; i < b.N; i++ {
				if _, err := lbaf.RunIterationTable("§V-B", spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"table_vd", func(b *testing.B) {
			spec := benchVBSpec()
			cfg := benchLBAFConfig()
			cfg.Criterion = core.CriterionRelaxed
			cfg.CMF = core.CMFModified
			cfg.RecomputeCMF = true
			for i := 0; i < b.N; i++ {
				if _, err := lbaf.RunIterationTable("§V-D", spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"engine_tempered", func(b *testing.B) {
			runEngine(b, engineCfg())
		}},
		{"engine_tempered_traced", func(b *testing.B) {
			cfg := engineCfg()
			cfg.Tracer = obs.NewRecorder()
			runEngine(b, cfg)
		}},
		{"distributed_lb_16ranks", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := temperedlb.NewRuntime(16)
				h := temperedlb.RegisterLBHandlers(rt, 1)
				rt.Run(func(rc *temperedlb.RankContext) {
					loads := map[temperedlb.ObjectID]float64{}
					if rc.Rank() < 2 {
						for j := 0; j < 64; j++ {
							loads[rc.CreateObject(j)] = 0.5 + float64(j%7)/7
						}
					}
					rc.Barrier()
					cfg := temperedlb.Tempered()
					cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 4
					if _, err := temperedlb.RunDistributedLB(rc, h, cfg, loads); err != nil {
						b.Error(err)
					}
				})
			}
		}},
		{"distributed_lb_16ranks_observed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := temperedlb.NewTraceRecorder()
				rt := temperedlb.NewRuntime(16, temperedlb.WithTracer(rec), temperedlb.WithMetrics())
				h := temperedlb.RegisterLBHandlers(rt, 1)
				rt.Run(func(rc *temperedlb.RankContext) {
					loads := map[temperedlb.ObjectID]float64{}
					if rc.Rank() < 2 {
						for j := 0; j < 64; j++ {
							loads[rc.CreateObject(j)] = 0.5 + float64(j%7)/7
						}
					}
					rc.Barrier()
					cfg := temperedlb.Tempered()
					cfg.Trials, cfg.Iterations, cfg.Rounds = 2, 3, 4
					if _, err := temperedlb.RunDistributedLB(rc, h, cfg, loads); err != nil {
						b.Error(err)
					}
				})
			}
		}},
		{"distributed_lb_1024ranks_tree", func(b *testing.B) {
			// Paper-scale collective path: the cost here is dominated by
			// the k-ary tree sweeps and termination detection, which is
			// exactly the trajectory the tree refactor must hold.
			for i := 0; i < b.N; i++ {
				rt := temperedlb.NewRuntime(1024)
				h := temperedlb.RegisterLBHandlers(rt, 1)
				rt.Run(func(rc *temperedlb.RankContext) {
					loads := map[temperedlb.ObjectID]float64{}
					if rc.Rank() < 2 {
						for j := 0; j < 64; j++ {
							loads[rc.CreateObject(j)] = 0.5 + float64(j%7)/7
						}
					}
					rc.Barrier()
					cfg := temperedlb.Tempered()
					cfg.Trials, cfg.Iterations, cfg.Rounds = 1, 2, 2
					if _, err := temperedlb.RunDistributedLB(rc, h, cfg, loads); err != nil {
						b.Error(err)
					}
				})
			}
		}},
		{"serve_trigger_eval_256obj", func(b *testing.B) {
			// One op = the per-phase service overhead a rank pays between
			// running tasks and (maybe) invoking the balancer: fold a
			// 256-object phase observation into the Holt level+trend
			// model, sum next-phase predictions in sorted-id order (the
			// rank's collective contribution), and evaluate the forecast
			// trigger. The collectives themselves are covered by the
			// distributed_lb rows; this row is the serve-layer cost only.
			model := amt.NewLoadModel(0.5)
			model.SetTrend(0.3)
			ids := make([]amt.ObjectID, 256)
			for j := range ids {
				ids[j] = amt.MakeObjectID(core.Rank(j%16), int64(j+1))
			}
			stats := amt.PhaseStats{Loads: make(map[amt.ObjectID]float64, len(ids))}
			trig := &serve.Forecast{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stats.Total = 0
				for j, id := range ids {
					l := 1 + float64((j+i)%7)
					stats.Loads[id] = l
					stats.Total += l
				}
				model.Observe(stats)
				pred := 0.0
				for _, id := range model.IDs() {
					pred += model.Predict(id)
				}
				trig.Decide(serve.Summary{
					Phase: i, Max: stats.Total * 1.2, Avg: stats.Total,
					PredMax: pred * 1.2, PredAvg: pred, LBCost: 1e12,
				})
			}
		}},
		{"lbvet_full_module", func(b *testing.B) {
			// One op = the full static-analysis gate `make lint` pays on
			// every CI run: parse and typecheck the whole module (stdlib
			// via the source importer included) and run all nine
			// analyzers. A fresh loader per op keeps the summary and
			// package caches cold, like a real invocation.
			for i := 0; i < b.N; i++ {
				ld, err := analysis.NewLoader(".")
				if err != nil {
					b.Fatal(err)
				}
				pkgs, err := ld.LoadAll()
				if err != nil {
					b.Fatal(err)
				}
				runner := &analysis.Runner{Analyzers: analysis.Analyzers()}
				if diags := runner.Run(pkgs); len(diags) != 0 {
					b.Fatalf("lint findings: %v", diags)
				}
			}
		}},
		{"core_gossip_merge_256ranks", func(b *testing.B) {
			// One op = one engine-style gossip stage on the engine-vb
			// shape (256 ranks, 4 loaded, engineCfg's fanout 4 and 6
			// rounds): every underloaded rank seeds its round-1
			// messages and a FIFO queue delivers them until quiescence.
			// The states are reseeded per op, so every op gossips the
			// same input.
			a := coreBenchAssignment()
			loads, ave := a.RankLoads(), a.AveLoad()
			cfg := engineCfg()
			states := coreBenchStates(len(loads), &cfg)
			// One untimed op grows the queue and knowledge buffers, so
			// B/op counts the steady state rather than a one-time growth
			// amortized over however many ops b.N happens to be.
			queue := coreGossip(states, loads, ave, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				queue = coreGossip(states, loads, ave, queue)
			}
		}},
		{"core_transfer_stage_recompute", func(b *testing.B) {
			// One op = one transfer stage (RunTransferScratch) of the
			// most loaded rank under engineCfg's Tempered(): relaxed
			// criterion, modified CMF rebuilt per decision (Algorithm 2
			// line 7), over the knowledge one gossip stage gave it. The
			// stage raises known loads, so each op first restores the
			// gossiped knowledge with one Reset and Merge.
			a := coreBenchAssignment()
			loads, ave := a.RankLoads(), a.AveLoad()
			cfg := engineCfg()
			states := coreBenchStates(len(loads), &cfg)
			coreGossip(states, loads, ave, nil)
			self := core.Rank(0)
			for r, l := range loads {
				if l > loads[self] {
					self = core.Rank(r)
				}
			}
			gossiped := append([]core.RankLoad(nil), states[self].Knowledge().Entries()...)
			tasks := a.AppendTasksOf(nil, self)
			know := core.NewKnowledge(len(loads))
			rng := core.SeededRNG(cfg.Seed)
			var scr core.TransferScratch
			// One untimed op sizes the scratch (see the gossip row).
			know.Merge(gossiped)
			core.RunTransferScratch(self, tasks, loads[self], ave, know, &cfg, rng, nil, &scr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				know.Reset()
				know.Merge(gossiped)
				rng.Seed(cfg.Seed)
				core.RunTransferScratch(self, tasks, loads[self], ave, know, &cfg, rng, nil, &scr)
			}
		}},
		{"orderings_fewest_migrations_10k", func(b *testing.B) {
			tasks := make([]core.Task, 10_000)
			total := 0.0
			for i := range tasks {
				tasks[i] = core.Task{ID: core.TaskID(i), Load: float64((i*2654435761)%1000) / 100}
				total += tasks[i].Load
			}
			for i := 0; i < b.N; i++ {
				core.OrderTasks(tasks, total/400, total, core.OrderFewestMigrations)
			}
		}},
	}
}

// coreBenchAssignment is the engine-vb shape of the core-kernel rows:
// the §V-B clustered case at 256 ranks, 4 loaded, 750 tasks.
func coreBenchAssignment() *core.Assignment {
	s := workload.VBCase(1)
	s.NumRanks, s.LoadedRanks, s.NumTasks = 256, 4, 750
	a, err := workload.Generate(s)
	if err != nil {
		panic(err)
	}
	return a
}

// coreBenchStates returns one gossip state per rank.
func coreBenchStates(n int, cfg *core.Config) []*core.InformState {
	states := make([]*core.InformState, n)
	for r := range states {
		states[r] = core.NewInformState(core.Rank(r), n, cfg, core.SeededRNG(cfg.Seed, int64(r)))
	}
	return states
}

// coreGossip runs one gossip stage the way the engine does — Begin on
// every rank, then FIFO delivery until quiescence — after reseeding
// every state, and returns the queue buffer for reuse.
func coreGossip(states []*core.InformState, loads []float64, ave float64, queue []core.Send) []core.Send {
	queue = queue[:0]
	for r, st := range states {
		st.Reseed(int64(r))
		queue = append(queue, st.Begin(ave, loads[r])...)
	}
	for head := 0; head < len(queue); head++ {
		more, _ := states[queue[head].To].Receive(queue[head].Msg)
		queue = append(queue, more...)
	}
	return queue
}

// benchRuns is how many testing.Benchmark runs measureSuite takes per
// row.
const benchRuns = 3

// measureSuite measures every row of the suite benchRuns times and
// records each row's minimum ns/op, B/op and allocs/op. Load from other
// processes on the host only ever adds time, so the fastest run is the
// best estimate of the code's own cost; a single run moved by about the
// whole gate tolerance from one run to the next on a shared host. The
// runs are taken in benchRuns passes over the whole suite, so one slow
// spell of the host cannot hit all runs of a row.
func measureSuite() []benchRecord {
	suite := benchJSONSuite()
	recs := make([]benchRecord, len(suite))
	for pass := 0; pass < benchRuns; pass++ {
		for i, bm := range suite {
			fn := bm.fn
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				fn(b)
			})
			r := &recs[i]
			if pass == 0 || res.NsPerOp() < r.NsPerOp {
				r.N, r.NsPerOp = res.N, res.NsPerOp()
			}
			if pass == 0 || res.AllocedBytesPerOp() < r.BytesPerOp {
				r.BytesPerOp = res.AllocedBytesPerOp()
			}
			if pass == 0 || res.AllocsPerOp() < r.AllocsPerOp {
				r.AllocsPerOp = res.AllocsPerOp()
			}
			r.Name = bm.name
		}
	}
	return recs
}

// TestWriteBenchJSON regenerates BENCH_lb.json. Skipped unless BENCH_JSON
// is set: the run takes a while and must not slow down the tier-1 suite.
func TestWriteBenchJSON(t *testing.T) {
	if os.Getenv("BENCH_JSON") == "" {
		t.Skip("set BENCH_JSON=1 (or run `make bench-json`) to regenerate BENCH_lb.json")
	}
	out := benchFile{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
	}
	out.Benchmarks = measureSuite()
	for _, rec := range out.Benchmarks {
		t.Logf("%-34s %12d ns/op %10d B/op %8d allocs/op (n=%d)",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, rec.N)
	}
	f, err := os.Create("BENCH_lb.json")
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
