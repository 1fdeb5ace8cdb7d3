// Worker recovery for the shared-filesystem cluster is internal/cluster's,
// with the failure detector in the master. A node process fails by
// stopping: its peers block at the done-marker barrier. Supervise, run by
// the master, gives laggards RoundDeadline after a round's first marker,
// then writes a dead-file naming the lowest live node as adopter. That node
// finds the dead-file chain leading to it while it waits at the barrier,
// posts the dead peer's marker with a sentinel 1, and adopts the partition
// at the next round's top through cluster.Replay (base partition,
// checkpoints, inbox), as an in-process worker does; from then on it posts
// the dead peer's markers and drains its inbox. A restarted node whose
// dead-file was never written rejoins by replaying its own files the same
// way and re-entering the loop after its last completed round.
package fscluster

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// SuperviseConfig configures the master-side failure detector.
type SuperviseConfig struct {
	Dir string
	K   int
	// RoundDeadline is how long a node may trail the round's first marker
	// (or, at the end, the first closure file) before being declared dead;
	// 0 means 2s. Must comfortably exceed the slowest node's round time: a
	// node declared dead steps aside at its next round, and its work so far
	// is redone by the adopter.
	RoundDeadline time.Duration
	// Timeout bounds the whole supervision; 0 means 5 minutes.
	Timeout time.Duration
}

// SuperviseResult reports what the detector did.
type SuperviseResult struct {
	// Dead maps each node declared dead to the adopter chosen for it.
	Dead map[int]int
}

// Supervise watches a running cluster's work directory until every live node
// has written its closure file, declaring nodes dead when they miss the round
// deadline. Run it concurrently with the nodes (cmd/owlcluster -run does).
//
//powl:ignore wallclock the supervisor's round deadlines are real-time liveness checks by design.
func Supervise(ctx context.Context, cfg SuperviseConfig) (*SuperviseResult, error) {
	cfg.RoundDeadline = cmp.Or(cfg.RoundDeadline, 2*time.Second)
	// Markers are polled every tenth of the deadline, at most every 20ms.
	poll := min(20*time.Millisecond, cfg.RoundDeadline/10)
	l := Layout{Dir: cfg.Dir}
	res := &SuperviseResult{Dead: map[int]int{}}
	// Pre-existing dead-files (e.g. supervisor restart) are honoured.
	for i := 0; i < cfg.K; i++ {
		if adopter, dead := readDeadFile(l, i); dead {
			res.Dead[i] = adopter
		}
	}
	// declareMissing declares dead every live node whose file is absent.
	declareMissing := func(file func(int) string) error {
		for i := 0; i < cfg.K; i++ {
			if _, dead := res.Dead[i]; !dead && !exists(file(i)) {
				if err := declareDead(l, i, cfg.K, res.Dead); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// firstSeen[r] is when the supervisor first observed any round-r marker;
	// index len(firstSeen) is the frontier round nobody has posted yet.
	// firstClosure is the same clock for the closure-writing phase.
	var firstSeen []time.Time
	var firstClosure time.Time
	deadline := time.Now().Add(cmp.Or(cfg.Timeout, 5*time.Minute))
	for {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("fscluster: supervisor timed out")
		}
		// Done when every live node has its closure on disk.
		closures := 0
		for i := 0; i < cfg.K; i++ {
			if _, dead := res.Dead[i]; !dead && exists(l.ClosureFile(i)) {
				closures++
			}
		}
		if closures == cfg.K-len(res.Dead) {
			return res, nil
		}
		// End-of-run laggard: died after its last marker, before its
		// closure. Nobody is left to adopt; MergeClosures rebuilds it.
		if closures > 0 && firstClosure.IsZero() {
			firstClosure = time.Now()
		}
		if closures > 0 && time.Since(firstClosure) > cfg.RoundDeadline {
			if err := declareMissing(l.ClosureFile); err != nil {
				return res, err
			}
		}
		// Advance the marker frontier, then declare the newest round's
		// laggards once they are past the deadline.
		for anyMarker(l, len(firstSeen), cfg.K) {
			firstSeen = append(firstSeen, time.Now())
		}
		if r := len(firstSeen) - 1; r >= 0 && time.Since(firstSeen[r]) > cfg.RoundDeadline {
			if err := declareMissing(func(i int) string { return l.MarkerFile(r, i) }); err != nil {
				return res, err
			}
		}
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// anyMarker reports whether any node has posted its round-r marker.
func anyMarker(l Layout, round, k int) bool {
	for i := 0; i < k; i++ {
		if exists(l.MarkerFile(round, i)) {
			return true
		}
	}
	return false
}

// declareDead writes victim's dead-file naming the lowest live node as
// adopter and records the decision.
func declareDead(l Layout, victim, k int, dead map[int]int) error {
	for i := 0; i < k; i++ {
		if _, isDead := dead[i]; i == victim || isDead {
			continue
		}
		if err := writeAtomic(l.DeadFile(victim), strconv.Itoa(i)); err != nil {
			return err
		}
		dead[victim] = i
		return nil
	}
	return fmt.Errorf("fscluster: node %d dead with no live adopter", victim)
}

// readDeadFile reports whether node id has been declared dead and, if so,
// which node adopted it.
func readDeadFile(l Layout, id int) (adopter int, dead bool) {
	a, err := readInt(l.DeadFile(id))
	return a, err == nil
}

// owner follows dead-files from node i to the live node serving its
// partition — an adopter that died hands its adoptions on — or -1 when the
// chain does not end within k hops.
func (l Layout) owner(i, k int) int {
	for range k {
		a, dead := readDeadFile(l, i)
		if !dead {
			return i
		}
		i = a
	}
	return -1
}

// readInt reads a file holding one decimal integer: a marker, a dead-file,
// an epoch or the cluster size.
func readInt(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
