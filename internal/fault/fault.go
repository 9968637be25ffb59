// Package fault is the deterministic fault-injection plane for the NOW
// fabric. It implements net.FaultPlane: the fabric asks it to Judge
// every remote payload at send time, and the plane rules — drop it,
// duplicate it, delay it, or release it from the per-destination FIFO
// so it overtakes earlier traffic.
//
// Everything is driven by a sim-seeded SplitMix64 stream with a FIXED
// draw order per judgement (down-window check, scripted check, drop
// draw, dup draw, then per-copy jitter and reorder draws), so a (Plan,
// seed) pair replays byte-identically: a counterexample seed printed by
// a failing property test reproduces the exact fault schedule. The
// plane's mutable state (RNG position, per-link delivery counters) is
// captured by SnapshotState/RestoreState so net.Cluster snapshots can
// rewind it together with the nodes.
//
// Faults model the LINK, not the endpoints: a verdict never corrupts
// payload bytes (Telegraphos links are CRC-protected; a damaged packet
// is a dropped packet), and remote atomics are never judged — they are
// the synchronous reliable control channel (see net.FaultPlane).
package fault

import (
	"fmt"
	"slices"

	"uldma/internal/net"
	"uldma/internal/sim"
)

// Link names one directed source→destination pair. The fabric stamps
// src = -1 on traffic injected directly (not through a node's engine
// port); plans normally only name real node ids.
type Link struct {
	Src, Dst int
}

// Window is a half-open simulated-time interval [From, Until). A
// message SENT inside a down window is lost (the send instant decides:
// the sender's NIC pushed it into a dead link).
type Window struct {
	From, Until sim.Time
}

// Script targets one exact message: "drop the Nth remote payload sent
// from Src to Dst" (Nth is 1-based, counted per link in send order).
// Scripts reproduce worst cases found by search — e.g. "drop the commit
// word of message 3" — without any randomness.
type Script struct {
	Src, Dst int
	Nth      uint64
}

// LinkFaults is the fault mix applied to one link (or, as Plan.Default,
// to every link without an explicit entry).
type LinkFaults struct {
	// Drop is the probability a message vanishes.
	Drop float64
	// Dup is the probability a message arrives twice.
	Dup float64
	// Reorder is the per-copy probability of release from the
	// per-destination FIFO, with an extra delay uniform in
	// (0, ReorderBy] so later traffic can overtake it.
	Reorder   float64
	ReorderBy sim.Time
	// Jitter adds a uniform extra latency in [0, Jitter] to every copy.
	Jitter sim.Time
	// Down lists outage windows; a message sent inside one is dropped
	// before any random draw.
	Down []Window
}

func (l LinkFaults) zero() bool {
	return l.Drop == 0 && l.Dup == 0 && l.Reorder == 0 &&
		l.Jitter == 0 && len(l.Down) == 0
}

// Plan is a declarative fault specification: a default mix, per-link
// overrides, and targeted drop scripts.
type Plan struct {
	Default LinkFaults
	Links   map[Link]LinkFaults
	Scripts []Script
}

// Zero reports whether the plan can never perturb anything. The
// injector short-circuits Judge for zero plans, making an attached
// zero-fault plane provably byte-identical to no plane at all.
func (p Plan) Zero() bool {
	if !p.Default.zero() {
		return false
	}
	for _, lf := range p.Links {
		if !lf.zero() {
			return false
		}
	}
	return len(p.Scripts) == 0
}

// Injector is the runtime form of a Plan: it owns the seeded RNG and
// the per-link delivery counters. It implements net.FaultPlane. Not
// safe for concurrent use — like everything else in a simulated world,
// it belongs to that world's one goroutine.
type Injector struct {
	plan    Plan
	seed    uint64
	zero    bool
	rng     *sim.Rand
	sent    map[Link]uint64
	scripts map[Link][]uint64 // sorted Nth lists per link
}

// New builds an injector for plan, with every random draw derived from
// seed. The same (plan, seed) always yields the same fault schedule.
func New(plan Plan, seed uint64) *Injector {
	in := &Injector{
		plan: plan,
		seed: seed,
		zero: plan.Zero(),
		rng:  sim.NewRand(seed),
		sent: make(map[Link]uint64),
	}
	if len(plan.Scripts) > 0 {
		in.scripts = make(map[Link][]uint64)
		for _, s := range plan.Scripts {
			lk := Link{s.Src, s.Dst}
			in.scripts[lk] = append(in.scripts[lk], s.Nth)
		}
		for lk := range in.scripts {
			ns := in.scripts[lk]
			slices.Sort(ns)
		}
	}
	return in
}

// Seed returns the seed the injector was built with — print it next to
// any failure so the run can be replayed.
func (in *Injector) Seed() uint64 { return in.seed }

// float returns a uniform draw in [0, 1) from the seeded stream.
func (in *Injector) float() float64 {
	return float64(in.rng.Uint64()>>11) / (1 << 53)
}

// Judge implements net.FaultPlane. Draw order is fixed; see the package
// comment.
func (in *Injector) Judge(src, dst int, at sim.Time) net.Verdict {
	if in.zero {
		return net.Verdict{N: 1}
	}
	lk := Link{src, dst}
	nth := in.sent[lk] + 1
	in.sent[lk] = nth
	lf, ok := in.plan.Links[lk]
	if !ok {
		lf = in.plan.Default
	}
	for _, w := range lf.Down {
		if at >= w.From && at < w.Until {
			return net.Verdict{} // link dead at send time; no draw
		}
	}
	for _, n := range in.scripts[lk] {
		if n == nth {
			return net.Verdict{} // scripted drop; no draw
		}
		if n > nth {
			break
		}
	}
	if lf.Drop > 0 && in.float() < lf.Drop {
		return net.Verdict{}
	}
	v := net.Verdict{N: 1}
	if lf.Dup > 0 && in.float() < lf.Dup {
		v.N = 2
	}
	for i := 0; i < v.N; i++ {
		var a net.Arrival
		if lf.Jitter > 0 {
			a.Delay = sim.Time(in.rng.Uint64() % uint64(lf.Jitter+1))
		}
		if lf.Reorder > 0 && in.float() < lf.Reorder {
			a.Unordered = true
			if lf.ReorderBy > 0 {
				a.Delay += 1 + sim.Time(in.rng.Uint64()%uint64(lf.ReorderBy))
			}
		}
		v.Copies[i] = a
	}
	return v
}

// injectorState is the opaque snapshot payload.
type injectorState struct {
	rng  uint64
	sent map[Link]uint64
}

// SnapshotState implements net.FaultPlane: it captures the RNG position
// and the per-link delivery counters.
func (in *Injector) SnapshotState() any {
	sent := make(map[Link]uint64, len(in.sent))
	for k, v := range in.sent {
		sent[k] = v
	}
	return injectorState{rng: in.rng.State(), sent: sent}
}

// RestoreState implements net.FaultPlane: it rewinds to a state
// captured by SnapshotState on the same injector type.
func (in *Injector) RestoreState(state any) error {
	st, ok := state.(injectorState)
	if !ok {
		return fmt.Errorf("fault: restore: state %T is not an injector snapshot", state)
	}
	in.rng.SetState(st.rng)
	in.sent = make(map[Link]uint64, len(st.sent))
	for k, v := range st.sent {
		in.sent[k] = v
	}
	return nil
}
