package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"temperedlb/internal/amt"
	"temperedlb/internal/comm"
	"temperedlb/internal/comm/wire"
	"temperedlb/internal/core"
	"temperedlb/internal/serve"
	"temperedlb/internal/workload"
)

// fixedOps runs a workload for a fixed number of ops, so the results
// depend only on the seed.
func fixedOps(t *testing.T, name string, seed int64, traced bool, ops int) report {
	t.Helper()
	rep, err := run(options{workload: name, seed: seed, traced: traced, ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", name, seed, rep.Failed, rep.Attempted, rep.errs)
	}
	return rep
}

func TestReportsEveryDeclaredMetric(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		var g []string
		for _, m := range got {
			g = append(g, m.name+" "+m.unit+" "+m.better)
		}
		var w []string
		for _, m := range want {
			w = append(w, m.Name+" "+m.Unit+" "+m.Better)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n got %v\nwant %v", kind, g, w)
		}
	}
	check("end-to-end", endToEndMetrics, spec.EndToEnd)
	check("per-layer", layerMetrics, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames(), names)
	}

	keys := func(defs []metricDef) []string {
		var k []string
		for _, m := range defs {
			k = append(k, m.name)
		}
		sort.Strings(k)
		return k
	}
	for _, name := range append(workloadNames(), extraWorkloads()...) {
		for _, traced := range []bool{false, true} {
			rep := fixedOps(t, name, 3, traced, 1)
			want := keys(endToEndMetrics)
			if traced {
				want = keys(layerMetrics)
			}
			if got := sortedKeys(rep.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v reports %v, want %v", name, traced, got, want)
			}
		}
	}
}

// TestSeedReproducesDeterministicMetrics: the metrics the protocol
// determines repeat exactly for a seed and change with it.
func TestSeedReproducesDeterministicMetrics(t *testing.T) {
	for _, tc := range []struct {
		workload string
		metrics  []string
	}{
		{"engine-vb", []string{"load_ratio", "migrations", "total_cost"}},
		{"serve-wire", []string{"total_cost", "migrations", "load_ratio"}},
	} {
		a := fixedOps(t, tc.workload, 5, false, 2)
		b := fixedOps(t, tc.workload, 5, false, 2)
		c := fixedOps(t, tc.workload, 6, false, 2)
		for _, m := range tc.metrics {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s %s: seed 5 gave %v then %v", tc.workload, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
			if a.Metrics[m] == c.Metrics[m] {
				t.Errorf("%s %s: seeds 5 and 6 both gave %v", tc.workload, m, a.Metrics[m].Value)
			}
		}
	}
}

// stripEngine zeroes the wall-clock fields of an engine result.
func stripEngine(r *core.Result) core.Result {
	out := *r
	out.History = append([]core.IterationStats(nil), r.History...)
	for i := range out.History {
		out.History[i].ElapsedSeconds = 0
	}
	return out
}

// TestTracingKeepsProtocolOutputs: the tracer and the transport
// decorator must not change what the protocol computes.
func TestTracingKeepsProtocolOutputs(t *testing.T) {
	w, err := newEngineVB(11)
	if err != nil {
		t.Fatal(err)
	}
	a, err := workload.Generate(vbSpec(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	w.fwd.t = newTracer(newSpanLog(), 1, 1)
	plain, err := w.plain.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := w.traced.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripEngine(plain), stripEngine(traced)) {
		t.Errorf("engine result changed under tracing: %v vs %v", plain, traced)
	}
	if w.fwd.t.c.iterNs.Load() == 0 {
		t.Error("traced engine emitted no lb.iteration spans")
	}

	// The balancer on the in-memory runtime, decorated and not.
	small := distSpec(11, 0)
	small.NumRanks, small.LoadedRanks, small.NumTasks = 64, 8, 8*distObjs
	da, err := workload.Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := distConfig(11, 0)
	cfg.Rounds = 1 // multi-round gossip counts depend on scheduling
	dplain, _, _ := distRun(da, cfg)
	tr := newTracer(newSpanLog(), 1, 1)
	cc := newCommCounters(small.NumRanks)
	dtraced, _, _ := distRun(da, cfg, amt.WithTracer(tr),
		amt.WithTransport(decorate(comm.NewNetwork(small.NumRanks), cc)))
	for _, ranks := range [][]distRank{dplain, dtraced} {
		if err := checkDist(da, ranks); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(dplain[0].res.StripTiming(), dtraced[0].res.StripTiming()) {
		t.Errorf("distributed result changed under tracing")
	}
	if sends, _, _, _, _ := cc.totals(); sends == 0 || tr.c.epochs.Load() == 0 {
		t.Errorf("decorator saw %d sends, tracer %d epochs", sends, tr.c.epochs.Load())
	}

	// The service over sockets, decorated and not.
	scfg := serveConfig(11, 0)
	sc, err := serve.NewScenario(scfg.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]serve.Result, 2)
	for i, traced := range []bool{false, true} {
		cl, err := wire.NewCluster("unix", serveRanks, serveNodes, 11)
		if err != nil {
			t.Fatal(err)
		}
		var rts []*amt.Runtime
		for _, tp := range cl.Transports {
			var opts []amt.Option
			if traced {
				opts = append(opts, amt.WithTracer(newTracer(newSpanLog(), 1, 1)),
					amt.WithTransport(decorate(tp, newCommCounters(serveRanks))))
			} else {
				opts = append(opts, amt.WithTransport(tp))
			}
			rts = append(rts, amt.New(serveRanks, opts...))
		}
		ranks, _, _, err := serveRun(rts, scfg, sc)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkServe(sc, ranks); err != nil {
			t.Fatal(err)
		}
		results[i] = ranks[0].res
	}
	p, q := results[0], results[1]
	if p.TotalCost != q.TotalCost || p.Fires != q.Fires || p.AssignFP != q.AssignFP || !reflect.DeepEqual(p.Rows, q.Rows) {
		t.Errorf("service result changed under tracing: cost %g/%g fires %d/%d fp %x/%x",
			p.TotalCost, q.TotalCost, p.Fires, q.Fires, p.AssignFP, q.AssignFP)
	}
}

// TestDecoratorForwardsOptionalInterfaces: the decorated transport
// implements comm.WireStater and comm.RTTHinter exactly when the inner
// one does.
func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	cc := newCommCounters(4)
	mem := decorate(comm.NewNetwork(4), cc)
	if _, ok := mem.(comm.WireStater); ok {
		t.Error("decorated in-memory network claims WireStater")
	}
	if _, ok := mem.(comm.RTTHinter); ok {
		t.Error("decorated in-memory network claims RTTHinter")
	}
	cl, err := wire.NewCluster("unix", 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wired := decorate(cl.Transports[0], cc)
	ws, ok := wired.(comm.WireStater)
	if !ok {
		t.Fatal("decorated socket transport hides WireStater")
	}
	if _, ok := wired.(comm.RTTHinter); !ok {
		t.Error("decorated socket transport hides RTTHinter")
	}
	if ws.WireStats() != cl.Transports[0].WireStats() {
		t.Error("WireStats not forwarded to the inner transport")
	}
}

// TestChecksRejectCorruptedResults corrupts one real result of each
// workload and requires its check to fail.
func TestChecksRejectCorruptedResults(t *testing.T) {
	w, err := newEngineVB(4)
	if err != nil {
		t.Fatal(err)
	}
	engineCase := func(corrupt func(a *core.Assignment, res *core.Result)) error {
		a, err := workload.Generate(vbSpec(4, 0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.plain.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		before, owners := a.RankLoads(), a.AppendOwners(nil)
		res.Apply(a)
		corrupt(a, res)
		return checkEngine(a, res, before, owners)
	}
	if err := engineCase(func(*core.Assignment, *core.Result) {}); err != nil {
		t.Fatalf("intact engine result rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*core.Assignment, *core.Result){
		"final imbalance": func(_ *core.Assignment, r *core.Result) { r.FinalImbalance *= 0.9 },
		"task moved":      func(a *core.Assignment, _ *core.Result) { a.Move(0, core.Rank(a.NumRanks()-1)) },
		"load changed":    func(a *core.Assignment, _ *core.Result) { a.SetLoad(1, a.Load(1)+1) },
	} {
		if engineCase(corrupt) == nil {
			t.Errorf("engine check accepted a corrupted result (%s)", name)
		}
	}

	small := distSpec(4, 0)
	small.NumRanks, small.LoadedRanks, small.NumTasks = 32, 4, 4*distObjs
	da, err := workload.Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	ranks, _, _ := distRun(da, distConfig(4, 0))
	if err := checkDist(da, ranks); err != nil {
		t.Fatalf("intact distributed result rejected: %v", err)
	}
	distCorruptions := map[string]func([]distRank){
		"rank disagrees": func(r []distRank) { r[3].res.FinalImbalance += 1e-3 },
		"object lost":    func(r []distRank) { r[0].objs = r[0].objs[:len(r[0].objs)-1] },
		"load lost":      func(r []distRank) { r[1].loads -= 0.5 },
		"rank error":     func(r []distRank) { r[2].err = errors.New("boom") },
	}
	for name, corrupt := range distCorruptions {
		cp := append([]distRank(nil), ranks...)
		for i := range cp {
			cp[i].objs = append([]amt.ObjectID(nil), cp[i].objs...)
		}
		corrupt(cp)
		if checkDist(da, cp) == nil {
			t.Errorf("distributed check accepted a corrupted result (%s)", name)
		}
	}

	scfg := serveConfig(4, 0)
	sc, err := serve.NewScenario(scfg.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	sranks, _, _, err := serveRun([]*amt.Runtime{amt.New(serveRanks)}, scfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServe(sc, sranks); err != nil {
		t.Fatalf("intact service result rejected: %v", err)
	}
	for name, corrupt := range map[string]func([]serveRank){
		"cost disagrees": func(r []serveRank) { r[5].res.TotalCost++ },
		"fingerprint":    func(r []serveRank) { r[0].res.AssignFP ^= 1 },
		"object lost":    func(r []serveRank) { r[2].objs-- },
		"load lost":      func(r []serveRank) { r[2].lastLoad -= 1 },
		"cost sum":       func(r []serveRank) { r[0].res.TotalCost += 1 },
	} {
		cp := append([]serveRank(nil), sranks...)
		for i := range cp {
			cp[i].res.Rows = append([]serve.Row(nil), cp[i].res.Rows...)
		}
		corrupt(cp)
		if checkServe(sc, cp) == nil {
			t.Errorf("service check accepted a corrupted result (%s)", name)
		}
	}
}

// scriptedRunner replays canned op outcomes.
type scriptedRunner struct{ ops []func() opOutcome }

func (s *scriptedRunner) op(i int, _ *opTrace) opOutcome { return s.ops[i%len(s.ops)]() }
func (s *scriptedRunner) replay(*layerTotals)            {}

// TestFailedOpsAreCounted: an op that reports an error or panics counts
// as failed, and the run is then not correct.
func TestFailedOpsAreCounted(t *testing.T) {
	good := func() opOutcome { return opOutcome{setupS: 1e-3, opS: 1e-2, loadRatio: 1.5} }
	w := &scriptedRunner{ops: []func() opOutcome{
		good,
		func() opOutcome { return opOutcome{opS: 1e-2, err: errors.New("check failed")} },
		good,
		func() opOutcome { panic("boom") },
	}}
	rep, err := runWith(options{ops: 4, duration: time.Second}, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 4 || rep.Failed != 2 || rep.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 4, 2, false", rep.Attempted, rep.Failed, rep.Correct)
	}
	if got := rep.Metrics["ok_ratio"].Value; got != 0.5 {
		t.Errorf("ok_ratio %g, want 0.5", got)
	}
	if !strings.Contains(rep.errs[1].Error(), "panicked") {
		t.Errorf("panic reported as %v", rep.errs[1])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 50e-9, "a": 25e-9, "b": 30e-9, "c": 5e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %g, want %g", k, got[k], v)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 0.5); p != 3 {
		t.Errorf("median %g, want 3", p)
	}
	if p := percentile(xs, 0.9); p < 4.6-1e-12 || p > 4.6+1e-12 {
		t.Errorf("p90 %g, want 4.6", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile %g, want 0", p)
	}
}
