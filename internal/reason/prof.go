package reason

import (
	"context"
	"time"

	"powl/internal/obs"
)

// ruleProf is the engine-local per-rule tally used while a materialization
// runs under an obs.RuleCollector (attached to the context by the cluster
// layer). It is indexed by compiled-rule index, so the recording path is
// plain slice arithmetic with no locks or map lookups; the shared
// collector is touched exactly once, at flush. A nil *ruleProf is the
// disabled state: engines check it once per activation, which is the whole
// hot-path cost when observability is off.
type ruleProf struct {
	rc      *obs.RuleCollector
	names   []string
	firings []int64
	matches []int64
	time    []time.Duration
	derived []int64 // conclusions new to the graph (provenance on)
	dup     []int64 // conclusions that already existed (provenance on)
}

// newRuleProf returns a tally for the compiled rules when ctx carries a
// rule collector, nil otherwise.
func newRuleProf(ctx context.Context, crs []cRule) *ruleProf {
	rc := obs.RulesFrom(ctx)
	if rc == nil {
		return nil
	}
	p := newTally(crs)
	p.rc = rc
	return p
}

// newTally returns a zeroed tally with no collector behind it: a fire-loop
// shard's private counters, folded into the run's ruleProf by fold.
func newTally(crs []cRule) *ruleProf {
	p := &ruleProf{
		names:   make([]string, len(crs)),
		firings: make([]int64, len(crs)),
		matches: make([]int64, len(crs)),
		time:    make([]time.Duration, len(crs)),
		derived: make([]int64, len(crs)),
		dup:     make([]int64, len(crs)),
	}
	for i, r := range crs {
		p.names[i] = r.name
	}
	return p
}

// add merges one activation's counts into rule idx's tally.
func (p *ruleProf) add(idx int, firings, matches int64, d time.Duration) {
	p.firings[idx] += firings
	p.matches[idx] += matches
	p.time[idx] += d
}

// addDerived merges one materialization's derived/duplicate split (tallied
// by the provenance path) into rule idx's tally. Nil-safe, unlike add: the
// provenance flush calls it once per rule, not per firing.
func (p *ruleProf) addDerived(idx int, derived, dup int64) {
	if p == nil {
		return
	}
	p.derived[idx] += derived
	p.dup[idx] += dup
}

// fold adds shard's tallies into p and zeroes them. The fire loop gives each
// shard a collector-less ruleProf of its own (the slices are not
// goroutine-safe) and folds them in on the caller's goroutine after the
// shards return.
func (p *ruleProf) fold(shard *ruleProf) {
	for i := range p.names {
		p.add(i, shard.firings[i], shard.matches[i], shard.time[i])
		p.dup[i] += shard.dup[i]
		shard.firings[i], shard.matches[i], shard.time[i], shard.dup[i] = 0, 0, 0, 0
	}
}

// flush pushes the tally into the shared collector — every compiled rule,
// including those that never fired: a rule absent from the profile is
// indistinguishable from a rule that was never compiled, and "this rule is
// dead on this dataset" is a signal the report must be able to surface.
// Call via defer so cancelled materializations still report the work they
// did.
func (p *ruleProf) flush() {
	if p == nil {
		return
	}
	for i, name := range p.names {
		p.rc.Record(name, p.firings[i], p.matches[i], p.time[i])
		if p.derived[i] != 0 || p.dup[i] != 0 {
			p.rc.RecordDerived(name, p.derived[i], p.dup[i])
		}
	}
}
