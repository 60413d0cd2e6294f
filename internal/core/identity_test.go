package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference kernels below are the straightforward forms of the
// knowledge merge, the CMF and the transfer stage: an Add loop, a scan
// for the maximum load, eager normalisation and a full CMF rebuild
// before every line-7 decision. The production kernels must reproduce
// them bit for bit.

// refMerge merges a payload with one Add per entry.
func refMerge(k *Knowledge, payload []RankLoad) int {
	added := 0
	for _, e := range payload {
		if k.Add(e.Rank, e.Load) {
			added++
		}
	}
	return added
}

// refMaxLoad scans the entries for the largest known load.
func refMaxLoad(k *Knowledge) float64 {
	max := 0.0
	for _, e := range k.Entries() {
		if l := k.Load(e.Rank); l > max {
			max = l
		}
	}
	return max
}

// refCMF is the eagerly normalised CMF.
type refCMF struct {
	ranks []Rank
	cum   []float64
}

func refBuildCMF(know *Knowledge, self Rank, ave float64, kind CMFKind) (refCMF, bool) {
	var c refCMF
	ls := ave
	if kind == CMFModified {
		if m := refMaxLoad(know); m > ls {
			ls = m
		}
	}
	if ls <= 0 {
		return c, false
	}
	z := 0.0
	for _, e := range know.Entries() {
		r := e.Rank
		if r == self {
			continue
		}
		p := 1 - know.Load(r)/ls
		if p < 0 {
			p = 0
		}
		z += p
		c.ranks = append(c.ranks, r)
		c.cum = append(c.cum, z)
	}
	if z <= 0 {
		return refCMF{}, false
	}
	for i := range c.cum {
		c.cum[i] /= z
	}
	c.cum[len(c.cum)-1] = 1
	return c, true
}

func (c refCMF) sample(rng *rand.Rand) Rank {
	u := rng.Float64()
	i := sort.Search(len(c.cum), func(j int) bool { return c.cum[j] > u })
	if i >= len(c.ranks) {
		i = len(c.ranks) - 1
	}
	return c.ranks[i]
}

func (c refCMF) prob(i int) float64 {
	if i == 0 {
		return c.cum[0]
	}
	return c.cum[i] - c.cum[i-1]
}

func (c refCMF) blend(weight func(Rank) float64, bias float64) refCMF {
	if bias <= 0 || len(c.ranks) == 0 {
		return c
	}
	ws := make([]float64, len(c.ranks))
	sum := 0.0
	for i, r := range c.ranks {
		w := weight(r)
		if w < 0 {
			w = 0
		}
		ws[i] = w
		sum += w
	}
	if sum == 0 {
		return c
	}
	out := refCMF{ranks: c.ranks, cum: make([]float64, len(c.cum))}
	acc := 0.0
	for i := range c.ranks {
		acc += (1-bias)*c.prob(i) + bias*ws[i]/sum
		out.cum[i] = acc
	}
	out.cum[len(out.cum)-1] = 1
	return out
}

// refTransfer is the transfer stage (Algorithm 2) with a full CMF build
// at every line-5 and line-7 build.
func refTransfer(self Rank, tasks []Task, selfLoad, ave float64, know *Knowledge, cfg *Config, rng *rand.Rand, affinity AffinityFunc) ([]Proposal, TransferStats, float64) {
	var st TransferStats
	var props []Proposal
	if know.Len() == 0 {
		return nil, st, selfLoad
	}
	if cfg.CommBias <= 0 {
		affinity = nil
	}
	maxPasses := cfg.Passes
	if maxPasses <= 0 {
		maxPasses = len(tasks) + 1
	}
	remaining := append([]Task(nil), tasks...)
	for pass := 0; pass < maxPasses && selfLoad > cfg.Threshold*ave && len(remaining) > 0; pass++ {
		kept, accepted, done := refPass(self, remaining, &selfLoad, ave, know, cfg, rng, affinity, &props, &st)
		remaining = kept
		if done || accepted == 0 {
			break
		}
	}
	return props, st, selfLoad
}

// refPass is one traversal of the task list, returning the tasks kept
// for the next pass.
func refPass(self Rank, ordered []Task, selfLoad *float64, ave float64, know *Knowledge, cfg *Config, rng *rand.Rand, affinity AffinityFunc, props *[]Proposal, st *TransferStats) (kept []Task, accepted int, done bool) {
	OrderTasksInPlace(ordered, ave, *selfLoad, cfg.Order)
	var cmf refCMF
	var ok bool
	if !cfg.RecomputeCMF {
		st.CMFBuilds++
		if cmf, ok = refBuildCMF(know, self, ave, cfg.CMF); !ok {
			st.NoCandidate++
			return nil, 0, true
		}
	}
	n := 0
	for ; *selfLoad > cfg.Threshold*ave && n < len(ordered); n++ {
		if cfg.RecomputeCMF {
			st.CMFBuilds++
			if cmf, ok = refBuildCMF(know, self, ave, cfg.CMF); !ok {
				st.NoCandidate++
				return append(kept, ordered[n:]...), accepted, true
			}
		}
		o := ordered[n]
		pick := cmf
		if affinity != nil {
			pick = cmf.blend(func(r Rank) float64 { return affinity(o.ID, r) }, cfg.CommBias)
		}
		px := pick.sample(rng)
		lx := know.Load(px)
		if cfg.Criterion.Evaluate(lx, o.Load, ave, *selfLoad) {
			know.Update(px, lx+o.Load)
			*selfLoad -= o.Load
			*props = append(*props, Proposal{Task: o.ID, To: px})
			st.Accepted++
			accepted++
		} else {
			st.Rejected++
			kept = append(kept, o)
		}
	}
	return append(kept, ordered[n:]...), accepted, false
}

// cloneKnowledge copies entries (in order) and current loads.
func cloneKnowledge(k *Knowledge) *Knowledge {
	c := NewKnowledge(k.NumRanks())
	for _, e := range k.Entries() {
		c.Add(e.Rank, e.Load)
		c.Update(e.Rank, k.Load(e.Rank))
	}
	return c
}

// sameKnowledge reports whether two knowledges hold the same entries in
// the same order with bit-identical loads and maximum.
func sameKnowledge(a, b *Knowledge) error {
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) {
		return fmt.Errorf("len %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Rank != eb[i].Rank || math.Float64bits(ea[i].Load) != math.Float64bits(eb[i].Load) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, ea[i], eb[i])
		}
		r := ea[i].Rank
		if math.Float64bits(a.Load(r)) != math.Float64bits(b.Load(r)) {
			return fmt.Errorf("load of rank %d: %v vs %v", r, a.Load(r), b.Load(r))
		}
	}
	for r := 0; r < a.NumRanks(); r++ {
		if a.Contains(Rank(r)) != b.Contains(Rank(r)) {
			return fmt.Errorf("rank %d known by one side only", r)
		}
	}
	if math.Float64bits(a.MaxLoad()) != math.Float64bits(refMaxLoad(b)) {
		return fmt.Errorf("MaxLoad %v, scan %v", a.MaxLoad(), refMaxLoad(b))
	}
	return nil
}

// randomLoad draws a load in [0, 2·scale): half the time on a coarse
// grid, so ties and exact maxima are common, otherwise continuous, so
// sums round and their order matters.
func randomLoad(rng *rand.Rand, scale float64) float64 {
	if rng.Intn(2) == 0 {
		return float64(rng.Intn(16)) * scale / 8
	}
	return 2 * scale * rng.Float64()
}

// randomPayload draws up to n entries over ranks [0,p), possibly
// repeating a rank.
func randomPayload(rng *rand.Rand, p, n int, ave float64) []RankLoad {
	out := make([]RankLoad, rng.Intn(n+1))
	for i := range out {
		out[i] = RankLoad{Rank: Rank(rng.Intn(p)), Load: randomLoad(rng, ave)}
	}
	return out
}

// TestMergeMatchesAddLoop drives random merges, updates, snapshots and
// resets through Merge and the Add-loop reference side by side.
func TestMergeMatchesAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p := 2 + rng.Intn(60)
		got, want := NewKnowledge(p), NewKnowledge(p)
		var snaps [][]RankLoad
		var frozen [][]RankLoad
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				payload := randomPayload(rng, p, 12, 1)
				if a, b := got.Merge(payload), refMerge(want, payload); a != b {
					t.Fatalf("trial %d step %d: Merge added %d, Add loop %d", trial, step, a, b)
				}
			case op < 8 && got.Len() > 0:
				r := got.Entries()[rng.Intn(got.Len())].Rank
				l := randomLoad(rng, 1)
				got.Update(r, l)
				want.Update(r, l)
			case op < 9:
				s := got.Entries()
				snaps = append(snaps, s)
				frozen = append(frozen, append([]RankLoad(nil), s...))
			default:
				got.Reset()
				want.Reset()
				snaps, frozen = nil, nil
			}
			if err := sameKnowledge(got, want); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for i := range snaps {
				for j := range snaps[i] {
					if snaps[i][j] != frozen[i][j] {
						t.Fatalf("trial %d step %d: snapshot %d changed at %d", trial, step, i, j)
					}
				}
			}
		}
	}
}

// TestCMFMatchesEagerNormalisation compares probabilities and sampled
// ranks of the lazily normalised CMF, plain and blended, against the
// eagerly normalised reference.
func TestCMFMatchesEagerNormalisation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		p := 2 + rng.Intn(40)
		know := NewKnowledge(p)
		know.Merge(randomPayload(rng, p, 30, 1))
		self := Rank(rng.Intn(p))
		kind := CMFKind(rng.Intn(2))
		ave := 0.5 + float64(rng.Intn(4))/4
		got, okGot := BuildCMF(know, self, ave, kind)
		want, okWant := refBuildCMF(know, self, ave, kind)
		if okGot != okWant {
			t.Fatalf("trial %d: ok %v, reference %v", trial, okGot, okWant)
		}
		if !okGot {
			continue
		}
		weights := make([]float64, p)
		for i := range weights {
			weights[i] = float64(rng.Intn(4))
		}
		weight := func(r Rank) float64 { return weights[r] }
		bias := float64(rng.Intn(4)) / 4
		pairs := []struct {
			got  CMF
			want refCMF
		}{{got, want}, {got.Blend(weight, bias), want.blend(weight, bias)}}
		for _, c := range pairs {
			if c.got.Len() != len(c.want.ranks) {
				t.Fatalf("trial %d: %d candidates, reference %d", trial, c.got.Len(), len(c.want.ranks))
			}
			for i := 0; i < c.got.Len(); i++ {
				if c.got.Rank(i) != c.want.ranks[i] || math.Float64bits(c.got.Prob(i)) != math.Float64bits(c.want.prob(i)) {
					t.Fatalf("trial %d: candidate %d: (%d, %v), reference (%d, %v)",
						trial, i, c.got.Rank(i), c.got.Prob(i), c.want.ranks[i], c.want.prob(i))
				}
			}
			seed := rng.Int63()
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for s := 0; s < 50; s++ {
				if a, b := c.got.Sample(ra), c.want.sample(rb); a != b {
					t.Fatalf("trial %d: sample %d drew rank %d, reference %d", trial, s, a, b)
				}
			}
		}
	}
}

// TestCMFRefreshMatchesRebuild raises candidates' known loads as
// accepted transfers do and requires every successful in-place refresh
// to leave exactly the probabilities a full reference build over the
// updated knowledge has.
func TestCMFRefreshMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	refreshed := 0
	for trial := 0; trial < 500; trial++ {
		p := 2 + rng.Intn(40)
		ave := 0.6 + rng.Float64()
		know := NewKnowledge(p)
		know.Merge(randomPayload(rng, p, 30, ave))
		self := Rank(rng.Intn(p))
		kind := CMFKind(rng.Intn(2))
		var c CMF
		if !c.Rebuild(know, self, ave, kind) {
			continue
		}
		for step := 0; step < 10; step++ {
			i := rng.Intn(c.Len())
			r := c.Rank(i)
			know.Update(r, know.Load(r)+randomLoad(rng, ave/4))
			want, ok := refBuildCMF(know, self, ave, kind)
			if !c.refresh(know, i, ave, kind) {
				if !c.Rebuild(know, self, ave, kind) {
					if ok {
						t.Fatalf("trial %d step %d: rebuild failed, reference has mass", trial, step)
					}
					break
				}
			} else {
				refreshed++
			}
			if !ok || c.Len() != len(want.ranks) {
				t.Fatalf("trial %d step %d: %d candidates, reference ok=%v with %d", trial, step, c.Len(), ok, len(want.ranks))
			}
			for j := 0; j < c.Len(); j++ {
				if math.Float64bits(c.Prob(j)) != math.Float64bits(want.prob(j)) {
					t.Fatalf("trial %d step %d: candidate %d: %v, reference %v", trial, step, j, c.Prob(j), want.prob(j))
				}
			}
		}
	}
	if refreshed == 0 {
		t.Fatal("no refresh took the in-place path")
	}
}

// TestTransferMatchesFullRebuild runs the transfer stage, with its
// reused and refreshed CMF, against the full-rebuild reference on
// random knowledge, tasks and configurations.
func TestTransferMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var scr TransferScratch
	for trial := 0; trial < 2000; trial++ {
		p := 2 + rng.Intn(40)
		ave := 0.6 + rng.Float64()
		know := NewKnowledge(p)
		know.Merge(randomPayload(rng, p, 40, ave))
		self := Rank(rng.Intn(p))
		tasks := make([]Task, 1+rng.Intn(30))
		selfLoad := 0.0
		for i := range tasks {
			tasks[i] = Task{ID: TaskID(i), Load: randomLoad(rng, ave/3)}
			selfLoad += tasks[i].Load
		}
		cfg := Grapevine()
		cfg.CMF = CMFKind(rng.Intn(2))
		cfg.Criterion = Criterion(rng.Intn(2))
		cfg.Order = Ordering(rng.Intn(4))
		cfg.RecomputeCMF = rng.Intn(2) == 0
		cfg.Passes = rng.Intn(3)
		var affinity AffinityFunc
		if rng.Intn(4) == 0 {
			cfg.CommBias = 0.5
			vol := rng.Int63()
			affinity = func(task TaskID, to Rank) float64 {
				return float64((vol >> ((int(task) + int(to)) % 60)) & 3)
			}
		}
		kGot, kWant := cloneKnowledge(know), cloneKnowledge(know)
		seed := rng.Int63()
		rGot, rWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		props, st, load := RunTransferScratch(self, tasks, selfLoad, ave, kGot, &cfg, rGot, affinity, &scr)
		wantProps, wantSt, wantLoad := refTransfer(self, tasks, selfLoad, ave, kWant, &cfg, rWant, affinity)
		if st != wantSt {
			t.Fatalf("trial %d (%+v): stats %+v, reference %+v", trial, cfg, st, wantSt)
		}
		if len(props) != len(wantProps) {
			t.Fatalf("trial %d: %d proposals, reference %d", trial, len(props), len(wantProps))
		}
		for i := range props {
			if props[i] != wantProps[i] {
				t.Fatalf("trial %d: proposal %d %+v, reference %+v", trial, i, props[i], wantProps[i])
			}
		}
		if math.Float64bits(load) != math.Float64bits(wantLoad) {
			t.Fatalf("trial %d: self load %v, reference %v", trial, load, wantLoad)
		}
		if err := sameKnowledge(kGot, kWant); err != nil {
			t.Fatalf("trial %d: knowledge: %v", trial, err)
		}
		if rGot.Int63() != rWant.Int63() {
			t.Fatalf("trial %d: random streams diverged", trial)
		}
	}
}

// TestMergeMemoryIsPayloadSized: merging a small payload into knowledge
// over the paper's 4096 ranks must size the entry buffer by what was
// learned, not by the rank space — P entries per rank would be O(P²)
// memory across a job.
func TestMergeMemoryIsPayloadSized(t *testing.T) {
	k := NewKnowledge(4096)
	payload := make([]RankLoad, 10)
	for i := range payload {
		payload[i] = RankLoad{Rank: Rank(400 * i), Load: float64(i)}
	}
	if added := k.Merge(payload); added != len(payload) {
		t.Fatalf("added %d, want %d", added, len(payload))
	}
	if c := cap(k.entries); c > 4*len(payload) {
		t.Fatalf("cap(entries) = %d after a %d-entry merge over 4096 ranks", c, len(payload))
	}
	// Merging known ranks again must not grow the buffer.
	before := cap(k.entries)
	for i := 0; i < 100; i++ {
		k.Merge(payload)
	}
	if cap(k.entries) != before {
		t.Fatalf("re-merging known entries grew cap(entries) %d -> %d", before, cap(k.entries))
	}
}

// identityMatrix is the configuration matrix the pinned engine hash
// covers: both CMF kinds, CMF recompute on and off, all four task
// orderings and both criteria, each under the default multi-pass loop
// and under the variants that take other paths through the transfer
// stage and the gossip merge (a single pass, persistent knowledge,
// recipient vetoes, a capped gossip payload, the comm-biased blend).
func identityMatrix() []Config {
	variants := []struct {
		name string
		edit func(*Config)
	}{
		{"default", func(*Config) {}},
		{"passes1", func(c *Config) { c.Passes = 1 }},
		{"persist", func(c *Config) { c.PersistKnowledge = true }},
		{"nacks", func(c *Config) { c.NegativeAcks = true }},
		{"cap7", func(c *Config) { c.MaxGossipEntries = 7 }},
		{"commbias", func(c *Config) { c.CommBias = 0.4 }},
	}
	var out []Config
	for _, kind := range []CMFKind{CMFOriginal, CMFModified} {
		for _, recompute := range []bool{false, true} {
			for _, order := range []Ordering{OrderArbitrary, OrderLoadIntensive, OrderFewestMigrations, OrderLightest} {
				for _, crit := range []Criterion{CriterionOriginal, CriterionRelaxed} {
					for _, v := range variants {
						cfg := Tempered()
						cfg.Trials, cfg.Iterations = 2, 3
						cfg.Rounds, cfg.Fanout = 4, 3
						cfg.Passes = 0
						cfg.CMF, cfg.RecomputeCMF, cfg.Order, cfg.Criterion = kind, recompute, order, crit
						v.edit(&cfg)
						cfg.StreamTag = fmt.Sprintf("%v/%v/%v/%v/%s", kind, recompute, order, crit, v.name)
						out = append(out, cfg)
					}
				}
			}
		}
	}
	return out
}

// engineMatrixHash runs every configuration of identityMatrix on a
// clustered and a communicating workload and returns the SHA-256 over
// each Result (wall-clock ElapsedSeconds zeroed) serialized as JSON,
// whose shortest round-trip float formatting pins every float64 bit.
func engineMatrixHash(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, cfg := range identityMatrix() {
		a, g := commClusteredWorkload(11)
		if cfg.CommBias == 0 {
			a, g = clusteredAssignment(48, 3, 300, 9), nil
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWithComm(a, g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.History {
			res.History[i].ElapsedSeconds = 0
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", cfg.StreamTag, buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineMatrixPinnedHash pins the engine's decisions across the
// configuration matrix to the hash the straightforward kernels (full
// CMF rebuild per decision, eager normalisation, Add-loop merge, MaxLoad
// scan) produced. Any change to the core kernels must leave every
// proposal, statistic and float bit unchanged.
func TestEngineMatrixPinnedHash(t *testing.T) {
	const want = "1cd40e0383471d78a2fd2c6d1dd4a99e89862d4c58fbf54026cdf1e9d92d345d"
	if got := engineMatrixHash(t); got != want {
		t.Fatalf("engine matrix hash %s, want %s", got, want)
	}
}
