package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// A full spec that round-trips through String, and specs Parse must
// reject. FuzzParse seeds its corpus from both lists.
var (
	fullSpec = "drop=0.01,dup=0.02,delay=5ms,delaymin=1ms,seed=42,slow=3:2ms,retry=2ms,retrycap=64ms"
	badSpecs = []string{
		"drop", "drop=x", "drop=1.5", "dup=-1", "delay=8", "wat=1",
		"slow=3", "slow=a:1ms", "slow=0:-1ms", "delaymin=5ms,delay=1ms",
		"drop=NaN", "dup=NaN", "drop=nan,dup=0.1",
	}
)

func TestParseFaultSpec(t *testing.T) {
	sp, err := Parse(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Seed: 42, Drop: 0.01, Dup: 0.02,
		DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
		SlowRanks: map[int]time.Duration{3: 2 * time.Millisecond},
		RetryBase: 2 * time.Millisecond, RetryCap: 64 * time.Millisecond,
	}
	if !reflect.DeepEqual(sp, want) {
		t.Fatalf("parsed %+v, want %+v", sp, want)
	}
	// The String rendering round-trips.
	back, err := Parse(sp.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != sp.String() {
		t.Fatalf("round trip %q != %q", back.String(), sp.String())
	}

	if sp, err := Parse("  "); err != nil || !sp.Empty() {
		t.Fatalf("blank spec: %+v, %v", sp, err)
	}
	for _, bad := range badSpecs {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestFaultSpecValidateRankBounds(t *testing.T) {
	sp := Spec{SlowRanks: map[int]time.Duration{5: time.Millisecond}}
	if err := sp.Validate(0); err != nil {
		t.Fatalf("unbounded validation rejected rank 5: %v", err)
	}
	if err := sp.Validate(4); err == nil {
		t.Fatal("rank 5 of 4 accepted")
	}
}

func TestFaultSpecValidateRanges(t *testing.T) {
	nan := math.NaN()
	for i, sp := range []Spec{
		{Drop: -0.1}, {Drop: 1}, {Drop: nan}, {Drop: math.Inf(1)},
		{Dup: 1.5}, {Dup: nan}, {Dup: math.Inf(-1)},
		{DelayMin: -time.Millisecond},
		{DelayMin: 2 * time.Millisecond, DelayMax: time.Millisecond},
		{RetryBase: -1},
		{SlowRanks: map[int]time.Duration{-1: time.Millisecond}},
		{SlowRanks: map[int]time.Duration{0: -time.Millisecond}},
	} {
		if err := sp.Validate(0); err == nil {
			t.Errorf("case %d: %+v accepted", i, sp)
		}
	}
}

// TestFaultDecisionsPinned pins the dice bit for bit: a SHA-256 over the raw
// drop, dup, delay and dup-delay draws of three specs, eight senders and
// 2000 sequence numbers each. The hash was recorded from the transport's
// dice before they moved into this package, so every distributed fault
// decision is unchanged by the move.
func TestFaultDecisionsPinned(t *testing.T) {
	const want = "b385c67be32d93ce7389894fa7f7e974a481c17acdc611b2a8649534288bd677"
	specs := []Spec{
		{Seed: 42, Drop: 0.05, Dup: 0.05, DelayMax: 500 * time.Microsecond},
		{Seed: 7, Drop: 0.3, Dup: 0.2, DelayMin: time.Millisecond, DelayMax: 5 * time.Millisecond,
			SlowRanks: map[int]time.Duration{3: 2 * time.Millisecond}},
		{Seed: -9, Drop: 0.5, Dup: 0.5, DelayMin: 2 * time.Millisecond, DelayMax: 2 * time.Millisecond,
			SlowRanks: map[int]time.Duration{0: time.Millisecond, 7: 3 * time.Millisecond}},
	}
	h := sha256.New()
	var buf [18]byte
	for i := range specs {
		sp := &specs[i]
		for from := 0; from < 8; from++ {
			for seq := int64(1); seq <= 2000; seq++ {
				to := int(seq % 8)
				buf[0], buf[1] = 0, 0
				if uniform(sp.Seed, from, seq, saltDrop) < sp.Drop {
					buf[0] = 1
				}
				if uniform(sp.Seed, from, seq, saltDup) < sp.Dup {
					buf[1] = 1
				}
				binary.LittleEndian.PutUint64(buf[2:], uint64(sp.delay(from, to, seq, saltDelay)))
				binary.LittleEndian.PutUint64(buf[10:], uint64(sp.delay(from, to, seq, saltDupDelay)))
				h.Write(buf[:])

				// Decide composes exactly these draws.
				d := sp.Decide(from, to, seq, true)
				switch {
				case d.Drop != (buf[0] == 1):
					t.Fatalf("spec %d from %d seq %d: Decide drop %v", i, from, seq, d.Drop)
				case !d.Drop && (d.Dup != (buf[1] == 1) ||
					d.Delay != sp.delay(from, to, seq, saltDelay) ||
					(d.Dup && d.DupDelay != sp.delay(from, to, seq, saltDupDelay))):
					t.Fatalf("spec %d from %d seq %d: Decide %+v disagrees with the draws", i, from, seq, d)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("decision hash %s, want %s", got, want)
	}
}

// TestFaultDecideNotLossy checks that a message of a kind the installer keeps
// reliable is never dropped or duplicated, but still delayed.
func TestFaultDecideNotLossy(t *testing.T) {
	sp := Spec{Seed: 5, Drop: 0.9, Dup: 0.9, DelayMin: time.Millisecond, DelayMax: 2 * time.Millisecond}
	for seq := int64(1); seq <= 500; seq++ {
		d := sp.Decide(0, 1, seq, false)
		if d.Drop || d.Dup || d.Delay < sp.DelayMin || d.Delay >= sp.DelayMax {
			t.Fatalf("seq %d: %+v", seq, d)
		}
	}
}

// FuzzParse checks that every accepted spec reaches a fixpoint: its
// String parses back to an equal spec that renders the same string.
func FuzzParse(f *testing.F) {
	f.Add(fullSpec)
	f.Add("  ")
	for _, s := range badSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return
		}
		str := sp.String()
		back, err := Parse(str)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q fails: %v", s, str, err)
		}
		if len(sp.SlowRanks) == 0 {
			sp.SlowRanks = nil
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("Parse(%q) = %#v, but Parse(%q) = %#v", s, sp, str, back)
		}
		if again := back.String(); again != str {
			t.Fatalf("String not a fixpoint: %q then %q", str, again)
		}
	})
}
