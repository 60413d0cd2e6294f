package core

import "math/rand"

// CMF is the cumulative mass function over a rank's known underloaded
// ranks built by BUILDCMF (Algorithm 2 lines 21–32). Sampling it picks
// the recipient of a prospective transfer, weighting ranks by their load
// deficit relative to the normalization level l_s.
//
// The CMF keeps each candidate's unnormalised mass p_i, the prefix sums
// pre_i = p_0 + … + p_i accumulated left to right, and their total z.
// Normalisation is lazy: the cumulative value F_i = pre_i / z is
// computed only for the entries Sample and Prob probe, with the last
// entry pinned to exactly 1 — the same IEEE operations, on the same
// operands, as dividing every prefix sum eagerly, so the values are
// bit-identical. Keeping the masses unnormalised is what lets the
// transfer stage refresh the CMF after an accepted transfer by
// recomputing one mass and the suffix of prefix sums after it.
type CMF struct {
	ranks []Rank
	mass  []float64 // p_i; empty for a blended CMF, which is never refreshed
	pre   []float64 // unnormalised prefix sums of the masses
	z     float64   // normaliser: pre[len-1] for a built CMF, 1 for a blended one
	ls    float64   // the normalization level l_s the masses were computed at
}

// BuildCMF constructs the CMF over the knowledge entries, excluding the
// building rank itself (a rank never transfers to itself). ok is false
// when no candidate has positive probability — every known rank sits at
// or above the normalization level — in which case sampling is
// impossible and the transfer loop must stop.
//
// For CMFOriginal, l_s = l_ave and any entry at or above the average
// contributes zero mass (the original algorithm assumes strictly
// underloaded entries; clamping keeps the function well-defined when the
// relaxed criterion has pushed a recipient past the average).
// For CMFModified, l_s = max(l_ave, max known load), the paper's §V-C
// fix that keeps every probability non-negative by construction.
func BuildCMF(know *Knowledge, self Rank, ave float64, kind CMFKind) (CMF, bool) {
	var c CMF
	ok := c.Rebuild(know, self, ave, kind)
	return c, ok
}

// normLevel returns the normalization level l_s of the given CMF kind.
func normLevel(know *Knowledge, ave float64, kind CMFKind) float64 {
	ls := ave
	if kind == CMFModified {
		if m := know.MaxLoad(); m > ls {
			ls = m
		}
	}
	return ls
}

// candidateMass is a candidate's unnormalised mass 1 − l/l_s, clamped
// at zero.
func candidateMass(load, ls float64) float64 {
	p := 1 - load/ls
	if p < 0 {
		p = 0
	}
	return p
}

// Rebuild reconstructs the CMF in place over the current knowledge,
// reusing the receiver's backing arrays. It is the allocation-free core
// of BuildCMF, used by the transfer stage for the line-5 build and
// whenever a line-7 rebuild cannot be done incrementally. It reports
// whether any candidate has positive mass; on false the receiver is
// left empty.
func (c *CMF) Rebuild(know *Knowledge, self Rank, ave float64, kind CMFKind) bool {
	c.ranks, c.mass, c.pre = c.ranks[:0], c.mass[:0], c.pre[:0]
	ls := normLevel(know, ave, kind)
	if ls <= 0 {
		return false
	}
	z := 0.0
	for _, e := range know.entries {
		r := e.Rank
		if r == self {
			continue
		}
		p := candidateMass(know.load[r], ls)
		z += p
		c.ranks = append(c.ranks, r)
		c.mass = append(c.mass, p)
		c.pre = append(c.pre, z)
	}
	if z <= 0 {
		c.ranks, c.mass, c.pre = c.ranks[:0], c.mass[:0], c.pre[:0]
		return false
	}
	c.z, c.ls = z, ls
	return true
}

// refresh brings the CMF up to date after the transfer stage raised the
// known load of candidate i (Algorithm 2 line 12), producing exactly the
// CMF a Rebuild over the updated knowledge would. When l_s is unchanged
// every other mass is unchanged, so it recomputes p_i and the prefix sums
// from i to the end, continuing from pre_{i−1} in the same left-to-right
// order a Rebuild sums in. It reports false — leaving the CMF to be
// rebuilt in full — when l_s moved (a modified CMF whose maximum known
// load rose) or no positive mass is left.
func (c *CMF) refresh(know *Knowledge, i int, ave float64, kind CMFKind) bool {
	if normLevel(know, ave, kind) != c.ls {
		return false
	}
	c.mass[i] = candidateMass(know.load[c.ranks[i]], c.ls)
	z := 0.0
	if i > 0 {
		z = c.pre[i-1]
	}
	for j := i; j < len(c.pre); j++ {
		z += c.mass[j]
		c.pre[j] = z
	}
	c.z = z
	return z > 0
}

// Len returns the number of candidate ranks.
func (c CMF) Len() int { return len(c.ranks) }

// Sample draws a recipient rank according to the mass function.
func (c CMF) Sample(rng *rand.Rand) Rank { return c.ranks[c.sampleIndex(rng)] }

// sampleIndex draws the index of a candidate according to the mass
// function.
func (c CMF) sampleIndex(rng *rand.Rand) int {
	u := rng.Float64()
	// Smallest i with F_i > u identifies the bucket whose cumulative
	// range (F_{i-1}, F_i] contains u; buckets with zero mass have an
	// empty range and cannot be selected. The bisection probes the same
	// indices sort.Search would.
	lo, hi := 0, len(c.pre)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if c.cum(h) > u {
			hi = h
		} else {
			lo = h + 1
		}
	}
	if lo >= len(c.ranks) {
		lo = len(c.ranks) - 1
	}
	return lo
}

// cum returns the normalised cumulative value F_i, with the final entry
// pinned to exactly 1.
func (c CMF) cum(i int) float64 {
	if i == len(c.pre)-1 {
		return 1
	}
	return c.pre[i] / c.z
}

// Blend returns a CMF whose mass mixes this one with normalized
// per-rank weights: p'_i = (1−bias)·p_i + bias·w_i/Σw. It implements
// the communication-aware recipient selection of the §VII extension.
// When the weights sum to zero (the task has no partners on any
// candidate) the receiver is returned unchanged.
func (c CMF) Blend(weight func(Rank) float64, bias float64) CMF {
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
	// The blended prefix sums are already normalised, so z = 1 (x/1 is
	// exact); cum pins the last entry to 1.
	out := CMF{ranks: c.ranks, pre: make([]float64, len(c.pre)), z: 1}
	acc := 0.0
	for i := range c.ranks {
		acc += (1-bias)*c.Prob(i) + bias*ws[i]/sum
		out.pre[i] = acc
	}
	return out
}

// Prob returns the probability mass assigned to the i-th candidate, for
// inspection in tests.
func (c CMF) Prob(i int) float64 {
	if i == 0 {
		return c.cum(0)
	}
	return c.cum(i) - c.cum(i-1)
}

// Rank returns the i-th candidate rank.
func (c CMF) Rank(i int) Rank { return c.ranks[i] }
