package core

import "time"

// This file runs the engine's gossip under Config.Faults: the fault
// spec and dice of internal/fault, applied to the one protocol the
// synchronous engine simulates asynchronously.

// gossipEvent is one scheduled delivery in the virtual-time gossip
// transport. seq is the enqueue index: it breaks delivery-time ties, so
// an all-zero-delay spec degenerates to exact FIFO order, and it keys
// the per-message fault decisions.
type gossipEvent struct {
	at  time.Duration
	seq int64
	s   Send
}

// eventLess orders the heap by (delivery time, enqueue index).
func eventLess(a, b gossipEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushEvent and popEvent are a plain binary min-heap over the scratch
// slice; container/heap would force the slice behind an interface and
// allocate per operation.
func pushEvent(h []gossipEvent, ev gossipEvent) []gossipEvent {
	h = append(h, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func popEvent(h []gossipEvent) (gossipEvent, []gossipEvent) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && eventLess(h[l], h[min]) {
			min = l
		}
		if r < len(h) && eventLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top, h
}

// gossipVirtualTime delivers the inform stage through a virtual-time
// event queue under the fault spec: per-message drop, duplication and
// delay decided by the shared stateless dice, keyed by the sender and
// the enqueue index. Cascaded forwards inherit the triggering
// delivery's virtual time as their send time.
func (e *Engine) gossipVirtualTime(work *Assignment, ave float64, st *IterationStats) {
	states := e.sc.states
	dice := e.cfg.Faults
	if dice.Seed == 0 {
		dice.Seed = e.cfg.Seed
	}
	dice.Seed = deriveSeed(dice.Seed, int64(st.Trial), int64(st.Iteration), 0xfa5e)

	h := e.sc.events[:0]
	var seq int64
	enqueue := func(s Send, from Rank, now time.Duration) {
		d := dice.Decide(int(from), int(s.To), seq, true)
		ev := gossipEvent{at: now + d.Delay, seq: seq, s: s}
		seq++
		if d.Drop {
			st.GossipDropped++
			return
		}
		h = pushEvent(h, ev)
		if d.Dup {
			st.GossipDuplicated++
			ev.at = now + d.DupDelay
			h = pushEvent(h, ev)
		}
	}

	for r := range states {
		for _, s := range states[r].Begin(ave, work.RankLoad(Rank(r))) {
			enqueue(s, Rank(r), 0)
		}
	}
	for len(h) > 0 {
		var ev gossipEvent
		ev, h = popEvent(h)
		st.GossipMessages++
		st.GossipEntries += len(ev.s.Msg.Entries)
		more, _ := states[ev.s.To].Receive(ev.s.Msg)
		for _, s := range more {
			enqueue(s, ev.s.To, ev.at)
		}
	}
	e.sc.events = h[:0]
}
