// Package fault is the one fault model of the repository: the
// flag-level Spec users type after -faults, its validator, and the
// stateless dice that decide each message's fate. The distributed
// transport (internal/comm) and the synchronous engine's simulated
// gossip transport (internal/core) both roll these dice, so a spec means
// the same thing wherever it is installed.
//
// Decisions are pure functions of (Seed, sender, sequence number,
// decision salt): no generator state, so concurrent senders share
// nothing and delivery order cannot perturb later decisions.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Spec is the kind-agnostic description of a fault plan. The layer that
// installs it decides which message kinds the scalar probabilities
// apply to (the amt runtime keeps its control traffic — termination
// tokens, acks, collectives — reliable) and consumes the retry tuning.
//
// The zero value is the empty spec: no faults, no retry tuning.
type Spec struct {
	// Seed drives every fault decision. A fixed spec yields the same
	// drop/duplicate/delay choice for the k-th message a rank sends,
	// independent of scheduling.
	Seed int64

	// Drop and Dup are per-message probabilities in [0,1) of dropping a
	// message, respectively of delivering one extra copy.
	Drop, Dup float64

	// DelayMin and DelayMax bound the random extra delivery latency
	// window. DelayMax==DelayMin pins a constant delay; a jitter-only
	// plan is {DelayMax: jitter}.
	DelayMin, DelayMax time.Duration

	// SlowRanks adds a fixed straggler penalty to every delivery sent by
	// or destined to the listed ranks, on top of the window above.
	SlowRanks map[int]time.Duration

	// RetryBase and RetryCap tune the runtime's retransmission timeout
	// (initial value and exponential-backoff cap). Transports and the
	// engine ignore them; zero means the runtime default.
	RetryBase, RetryCap time.Duration
}

// Empty reports whether the spec injects no faults at all (retry tuning
// alone does not count: with nothing to recover from it is inert).
func (sp Spec) Empty() bool {
	return sp.Drop == 0 && sp.Dup == 0 && sp.DelayMin == 0 && sp.DelayMax == 0 &&
		len(sp.SlowRanks) == 0
}

// Validate checks the spec's ranges. Rank bounds are checked against n
// when n > 0 (pass 0 when the rank count is not known yet).
func (sp Spec) Validate(n int) error {
	// Written as !(in range) so NaN, which fails every comparison, is
	// rejected too.
	switch {
	case !(sp.Drop >= 0 && sp.Drop < 1):
		return fmt.Errorf("fault: drop probability must be in [0,1), got %g", sp.Drop)
	case !(sp.Dup >= 0 && sp.Dup < 1):
		return fmt.Errorf("fault: dup probability must be in [0,1), got %g", sp.Dup)
	case sp.DelayMin < 0 || sp.DelayMax < 0:
		return fmt.Errorf("fault: delays must be >= 0, got [%v,%v]", sp.DelayMin, sp.DelayMax)
	case sp.DelayMax < sp.DelayMin:
		return fmt.Errorf("fault: delay window inverted: [%v,%v]", sp.DelayMin, sp.DelayMax)
	case sp.RetryBase < 0 || sp.RetryCap < 0:
		return fmt.Errorf("fault: retry tuning must be >= 0")
	}
	for r, d := range sp.SlowRanks {
		if r < 0 || (n > 0 && r >= n) {
			return fmt.Errorf("fault: slow rank %d out of range", r)
		}
		if d < 0 {
			return fmt.Errorf("fault: slow rank %d penalty must be >= 0, got %v", r, d)
		}
	}
	return nil
}

// String renders the spec in the -faults flag grammar.
func (sp Spec) String() string {
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if sp.Drop > 0 {
		add(fmt.Sprintf("drop=%g", sp.Drop))
	}
	if sp.Dup > 0 {
		add(fmt.Sprintf("dup=%g", sp.Dup))
	}
	if sp.DelayMin > 0 {
		add(fmt.Sprintf("delaymin=%v", sp.DelayMin))
	}
	if sp.DelayMax > 0 {
		add(fmt.Sprintf("delay=%v", sp.DelayMax))
	}
	if sp.Seed != 0 {
		add(fmt.Sprintf("seed=%d", sp.Seed))
	}
	ranks := make([]int, 0, len(sp.SlowRanks))
	for r := range sp.SlowRanks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		add(fmt.Sprintf("slow=%d:%v", r, sp.SlowRanks[r]))
	}
	if sp.RetryBase > 0 {
		add(fmt.Sprintf("retry=%v", sp.RetryBase))
	}
	if sp.RetryCap > 0 {
		add(fmt.Sprintf("retrycap=%v", sp.RetryCap))
	}
	return strings.Join(parts, ",")
}

// Parse parses the -faults flag grammar: comma-separated key=value
// pairs from
//
//	drop=0.01 dup=0.01 delay=5ms delaymin=1ms seed=42
//	slow=3:2ms (repeatable) retry=2ms retrycap=64ms
//
// An empty string parses to the empty spec. Ranges are validated
// (without rank bounds; callers with a known rank count should
// re-Validate).
func Parse(s string) (Spec, error) {
	var sp Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return sp, fmt.Errorf("fault: spec %q: want key=value", field)
		}
		var err error
		switch key {
		case "drop":
			sp.Drop, err = strconv.ParseFloat(val, 64)
		case "dup":
			sp.Dup, err = strconv.ParseFloat(val, 64)
		case "delay":
			sp.DelayMax, err = time.ParseDuration(val)
		case "delaymin":
			sp.DelayMin, err = time.ParseDuration(val)
		case "seed":
			sp.Seed, err = strconv.ParseInt(val, 10, 64)
		case "slow":
			rankStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return sp, fmt.Errorf("fault: spec slow=%q: want rank:duration", val)
			}
			var r int
			var d time.Duration
			if r, err = strconv.Atoi(rankStr); err == nil {
				if d, err = time.ParseDuration(durStr); err == nil {
					if sp.SlowRanks == nil {
						sp.SlowRanks = make(map[int]time.Duration)
					}
					sp.SlowRanks[r] = d
				}
			}
		case "retry":
			sp.RetryBase, err = time.ParseDuration(val)
		case "retrycap":
			sp.RetryCap, err = time.ParseDuration(val)
		default:
			return sp, fmt.Errorf("fault: spec: unknown key %q", key)
		}
		if err != nil {
			return sp, fmt.Errorf("fault: spec %q: %v", field, err)
		}
	}
	return sp, sp.Validate(0)
}

// Decision is the fate of one message: dropped, or delivered after
// Delay and, when Dup is set, once more after DupDelay.
type Decision struct {
	Drop, Dup       bool
	Delay, DupDelay time.Duration
}

// Decide rolls the dice for the message a sender from emits to rank to
// under sequence number seq. Drop and duplication apply only when lossy
// is set (the installing layer names the kinds that may be lost); the
// delay window and straggler penalties apply to every message. The
// drop, dup, delay and dup-delay questions each draw an independent
// word from the hash.
func (sp *Spec) Decide(from, to int, seq int64, lossy bool) Decision {
	if lossy && sp.Drop > 0 && uniform(sp.Seed, from, seq, saltDrop) < sp.Drop {
		return Decision{Drop: true}
	}
	d := Decision{Delay: sp.delay(from, to, seq, saltDelay)}
	if lossy && sp.Dup > 0 && uniform(sp.Seed, from, seq, saltDup) < sp.Dup {
		d.Dup = true
		d.DupDelay = sp.delay(from, to, seq, saltDupDelay)
	}
	return d
}

// Decision salts.
const (
	saltDrop uint64 = 1 + iota
	saltDup
	saltDelay
	saltDupDelay
)

// word hashes (seed, sender, sequence, salt) into a uniform 64-bit word
// — a stateless splitmix-style finalizer, so concurrent senders need no
// shared RNG state and a retransmission (which gets a fresh transport
// sequence number) gets a fresh decision.
func word(seed int64, from int, seq int64, salt uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(from+1)*0xff51afd7ed558ccd ^
		uint64(seq)*0xc4ceb9fe1a85ec53 ^ salt*0x2545f4914f6cdd1d
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// uniform maps a fault word to [0,1).
func uniform(seed int64, from int, seq int64, salt uint64) float64 {
	return float64(word(seed, from, seq, salt)>>11) / (1 << 53)
}

// delay draws one copy's delivery delay: a uniform draw from the window
// plus the straggler penalties of both endpoints.
func (sp *Spec) delay(from, to int, seq int64, salt uint64) time.Duration {
	d := sp.DelayMin
	if w := sp.DelayMax - sp.DelayMin; w > 0 {
		d += time.Duration(word(sp.Seed, from, seq, salt) % uint64(w))
	}
	if len(sp.SlowRanks) > 0 {
		d += sp.SlowRanks[from] + sp.SlowRanks[to]
	}
	return d
}
