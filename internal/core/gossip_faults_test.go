package core

import (
	"math"
	"testing"
	"time"

	"temperedlb/internal/fault"
	"temperedlb/internal/obs"
)

// TestEngineGossipFaultsRich drives the virtual-time gossip path with
// the full grammar: drops and duplicates land near their configured
// rates, refinement still improves, and the same seed reproduces the
// run exactly.
func TestEngineGossipFaultsRich(t *testing.T) {
	a := clusteredAssignment(64, 4, 400, 1)
	cfg := smallTempered()
	cfg.Faults = fault.Spec{
		Drop: 0.2, Dup: 0.2,
		DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
		SlowRanks: map[int]time.Duration{1: 10 * time.Millisecond},
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	dropped, duplicated, delivered := 0, 0, 0
	for _, st := range res.History {
		dropped += st.GossipDropped
		duplicated += st.GossipDuplicated
		delivered += st.GossipMessages
	}
	if dropped == 0 || duplicated == 0 {
		t.Fatalf("faults injected nothing: dropped %d duplicated %d", dropped, duplicated)
	}
	if rate := float64(dropped) / float64(dropped+delivered-duplicated); rate < 0.1 || rate > 0.35 {
		t.Errorf("observed drop rate %g, configured 0.2", rate)
	}
	if res.FinalImbalance >= res.InitialImbalance {
		t.Errorf("no improvement under rich faults: %g -> %g",
			res.InitialImbalance, res.FinalImbalance)
	}
	eng2, _ := NewEngine(cfg)
	res2, err := eng2.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FinalImbalance != res.FinalImbalance || len(res2.Moves) != len(res.Moves) {
		t.Errorf("rich faulted run not reproducible: %v vs %v", res2, res)
	}
	for i := range res.History {
		if res.History[i].GossipDropped != res2.History[i].GossipDropped ||
			res.History[i].GossipDuplicated != res2.History[i].GossipDuplicated {
			t.Fatalf("fault sequence not reproducible at row %d", i)
		}
	}
}

// TestEngineGossipZeroDelayRichMatchesFIFO pins the FIFO-degeneration
// contract of the virtual-time queue: a spec that forces the faulted
// path without perturbing anything (one slow rank with a zero penalty,
// no drop, no dup, no delay band) must reproduce the fault-free FIFO
// run's decisions exactly — every delivery lands at time zero and the
// enqueue-order tie-break is the FIFO order.
func TestEngineGossipZeroDelayRichMatchesFIFO(t *testing.T) {
	a := clusteredAssignment(48, 3, 300, 9)
	base, _ := NewEngine(smallTempered())
	resBase, err := base.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTempered()
	cfg.Faults.SlowRanks = map[int]time.Duration{0: 0}
	if cfg.Faults.Empty() {
		t.Fatal("spec did not select the virtual-time path")
	}
	rich, _ := NewEngine(cfg)
	resRich, err := rich.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if resRich.FinalImbalance != resBase.FinalImbalance ||
		resRich.BestTrial != resBase.BestTrial ||
		resRich.BestIteration != resBase.BestIteration ||
		len(resRich.Moves) != len(resBase.Moves) {
		t.Errorf("zero-effect rich spec changed the outcome: %v vs %v", resRich, resBase)
	}
	for i := range resBase.History {
		b, r := resBase.History[i], resRich.History[i]
		if b.GossipMessages != r.GossipMessages || b.GossipEntries != r.GossipEntries ||
			b.Transfers != r.Transfers || b.Imbalance != r.Imbalance {
			t.Fatalf("row %d diverged: %+v vs %+v", i, b, r)
		}
	}
}

// TestEngineStreamFrames checks the engine's frame publishing: one init
// frame plus one per iteration, phases and cumulative counters correct,
// and the stream attachment changing no balancing decision.
func TestEngineStreamFrames(t *testing.T) {
	a := clusteredAssignment(32, 2, 200, 5)
	plain, _ := NewEngine(smallTempered())
	resPlain, err := plain.Run(a)
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallTempered()
	cfg.Stream = obs.NewStream(256)
	cfg.StreamTag = "engine-test"
	eng, _ := NewEngine(cfg)
	res, err := eng.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalImbalance != resPlain.FinalImbalance || len(res.Moves) != len(resPlain.Moves) {
		t.Errorf("attaching a stream changed the outcome: %v vs %v", res, resPlain)
	}

	frames := cfg.Stream.Frames()
	want := 1 + cfg.Trials*cfg.Iterations
	if len(frames) != want {
		t.Fatalf("published %d frames, want %d", len(frames), want)
	}
	if frames[0].Phase != "init" || frames[0].Source != "engine-test" {
		t.Errorf("first frame = %+v, want init from engine-test", frames[0])
	}
	last := frames[len(frames)-1]
	if last.Phase != "iter" || last.Ranks != a.NumRanks() || len(last.Loads) != a.NumRanks() {
		t.Errorf("last frame malformed: %+v", last)
	}
	gossip, xfers := 0, 0
	for _, st := range res.History {
		gossip += st.GossipMessages
		xfers += st.Transfers
	}
	if last.GossipMsgs != int64(gossip) || last.TransferMsgs != int64(xfers) {
		t.Errorf("cumulative counters wrong: frame %d/%d, history %d/%d",
			last.GossipMsgs, last.TransferMsgs, gossip, xfers)
	}
	// The frame recomputes the average from its loads vector, the history
	// row from the assignment's running totals — same value up to
	// summation rounding.
	if d := last.Imbalance - res.History[len(res.History)-1].Imbalance; d > 1e-9 || d < -1e-9 {
		t.Errorf("frame imbalance %g, want %g", last.Imbalance,
			res.History[len(res.History)-1].Imbalance)
	}
}

func TestGossipFaultConfigValidate(t *testing.T) {
	bad := []Config{}
	c := smallTempered()
	c.Faults.Dup = 1.0
	bad = append(bad, c)
	c = smallTempered()
	c.Faults.Dup = math.NaN()
	bad = append(bad, c)
	c = smallTempered()
	c.Faults.DelayMin = -time.Millisecond
	bad = append(bad, c)
	c = smallTempered()
	c.Faults.DelayMin = 2 * time.Millisecond
	c.Faults.DelayMax = time.Millisecond
	bad = append(bad, c)
	c = smallTempered()
	c.Faults.SlowRanks = map[int]time.Duration{-1: time.Millisecond}
	bad = append(bad, c)
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
