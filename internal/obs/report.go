package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WorkerProfile is one worker's phase decomposition summed from a journal.
type WorkerProfile struct {
	Worker int
	Reason time.Duration
	Send   time.Duration
	Recv   time.Duration
	Sync   time.Duration
	Rounds int
}

// IO is the worker's combined transport time (Figure 2's "IO").
func (w WorkerProfile) IO() time.Duration { return w.Send + w.Recv }

// Busy is the worker's productive time: everything but barrier waiting.
func (w WorkerProfile) Busy() time.Duration { return w.Reason + w.Send + w.Recv }

// Summarize folds a journal into per-worker phase profiles (sorted by
// worker id), cumulative per-rule profiles across workers, and the
// transport/retry events, ready for reporting.
func Summarize(events []Event) (workers []WorkerProfile, rules map[string]RuleStats, transports, retries []Event) {
	byWorker := map[int]*WorkerProfile{}
	rules = map[string]RuleStats{}
	for _, e := range events {
		switch e.Type {
		case EvPhase:
			if e.Worker == MasterWorker {
				continue
			}
			w := byWorker[e.Worker]
			if w == nil {
				w = &WorkerProfile{Worker: e.Worker}
				byWorker[e.Worker] = w
			}
			d := e.Duration()
			switch e.Phase {
			case PhaseReason:
				w.Reason += d
				w.Rounds++ // one reason phase per round
			case PhaseSend:
				w.Send += d
			case PhaseRecv:
				w.Recv += d
			case PhaseSync:
				w.Sync += d
			}
		case EvRuleProfile:
			s := rules[e.Name]
			s.Firings += e.N
			s.Matches += e.N2
			s.Derived += e.N3
			s.Duplicate += e.N4
			s.Time += e.Duration()
			rules[e.Name] = s
		case EvTransport:
			transports = append(transports, e)
		case EvRetry:
			retries = append(retries, e)
		}
	}
	for _, w := range byWorker {
		workers = append(workers, *w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].Worker < workers[j].Worker })
	return workers, rules, transports, retries
}

// WriteReport renders the post-run text report: the top-k rules by
// cumulative time, the per-worker phase table with the busy-time imbalance
// factor (max/mean — 1.0 is a perfectly balanced run), the fire loop's
// rule activations per delta triple, and the transport totals. This is
// what `owlcluster -report` and `experiments -journal` print after a run.
func WriteReport(w io.Writer, events []Event, topK int) {
	workers, rules, transports, retries := Summarize(events)

	if len(rules) > 0 {
		// Split the profile into rules that did work and rules that never
		// fired: a dead rule would otherwise sort to the invisible tail of
		// the table, and "this rule never fires on this dataset" is exactly
		// the signal a rule-partitioning strategy needs surfaced.
		fired := map[string]RuleStats{}
		var dead []string
		hasProv := false
		for name, s := range rules {
			if s.Firings == 0 && s.Matches == 0 && s.Time == 0 {
				dead = append(dead, name)
				continue
			}
			fired[name] = s
			if s.Derived != 0 || s.Duplicate != 0 {
				hasProv = true
			}
		}
		fmt.Fprintf(w, "Top rules by cumulative time (all workers):\n")
		if hasProv {
			fmt.Fprintf(w, "  %-28s %12s %12s %12s %10s %10s\n", "rule", "time", "firings", "matches", "derived", "dup")
		} else {
			fmt.Fprintf(w, "  %-28s %12s %12s %12s\n", "rule", "time", "firings", "matches")
		}
		for _, p := range TopRules(fired, topK) {
			if hasProv {
				fmt.Fprintf(w, "  %-28s %12v %12d %12d %10d %10d\n",
					p.Name, p.Time.Round(time.Microsecond), p.Firings, p.Matches, p.Derived, p.Duplicate)
			} else {
				fmt.Fprintf(w, "  %-28s %12v %12d %12d\n",
					p.Name, p.Time.Round(time.Microsecond), p.Firings, p.Matches)
			}
		}
		if len(fired) > topK && topK > 0 {
			fmt.Fprintf(w, "  ... and %d more rules\n", len(fired)-topK)
		}
		if len(dead) > 0 {
			sort.Strings(dead)
			fmt.Fprintf(w, "  never fired (%d): %s\n", len(dead), strings.Join(dead, ", "))
		}
	}

	if len(workers) > 0 {
		fmt.Fprintf(w, "\nPer-worker phases:\n")
		fmt.Fprintf(w, "  %-8s %8s %12s %12s %12s %12s\n", "worker", "rounds", "reason", "io", "sync", "busy")
		var maxBusy, sumBusy time.Duration
		for _, wp := range workers {
			busy := wp.Busy()
			sumBusy += busy
			if busy > maxBusy {
				maxBusy = busy
			}
			fmt.Fprintf(w, "  %-8d %8d %12v %12v %12v %12v\n",
				wp.Worker, wp.Rounds,
				wp.Reason.Round(time.Microsecond), wp.IO().Round(time.Microsecond),
				wp.Sync.Round(time.Microsecond), busy.Round(time.Microsecond))
		}
		if sumBusy > 0 {
			mean := sumBusy / time.Duration(len(workers))
			fmt.Fprintf(w, "  imbalance (max/mean busy): %.2f\n", float64(maxBusy)/float64(mean))
		}
	}

	writeFireLoop(w, events)

	if len(transports) > 0 {
		var msgs, triples, bytes int64
		for _, e := range transports {
			msgs += e.N
			triples += e.N2
			bytes += e.Bytes
		}
		fmt.Fprintf(w, "\nTransport: %d messages, %d triples, %s across %d peer pairs\n",
			msgs, triples, FormatBytes(bytes), len(transports))
		for _, e := range transports {
			fmt.Fprintf(w, "  %-8s %6d msgs %10d triples %10s\n", e.Name, e.N, e.N2, FormatBytes(e.Bytes))
		}
	}
	for _, e := range retries {
		fmt.Fprintf(w, "  retries(%s): %d, backoff slept %v\n", e.Name, e.N, e.Duration().Round(time.Microsecond))
	}

	for _, e := range events {
		switch e.Type {
		case EvFault:
			fmt.Fprintf(w, "\nfault: worker %d round %d: %s\n", e.Worker, e.Round, e.Name)
		case EvAdopt:
			fmt.Fprintf(w, "adopt: worker %d adopted worker %d at round %d\n", e.Worker, e.N, e.Round)
		case EvRunEnd:
			fmt.Fprintf(w, "\nrun: %d rounds, elapsed %v\n", e.N, e.Duration().Round(time.Microsecond))
		}
	}
}

// writeFireLoop renders the piece events per worker: sweeps, delta triples
// fired and rule activations per delta triple — how many rule bodies the
// dispatch seeded with each triple.
func writeFireLoop(w io.Writer, events []Event) {
	type fire struct{ sweeps, delta, acts int64 }
	byWorker := map[int]*fire{}
	for _, e := range events {
		if e.Type != EvPiece {
			continue
		}
		f := byWorker[e.Worker]
		if f == nil {
			f = &fire{}
			byWorker[e.Worker] = f
		}
		f.sweeps++
		f.delta += e.N
		f.acts += e.N4
	}
	if len(byWorker) == 0 {
		return
	}
	workers := make([]int, 0, len(byWorker))
	for wk := range byWorker {
		workers = append(workers, wk)
	}
	sort.Ints(workers)
	fmt.Fprintf(w, "\nFire loop:\n")
	fmt.Fprintf(w, "  %-8s %8s %12s %12s %14s\n", "worker", "sweeps", "delta", "activations", "per delta")
	for _, wk := range workers {
		f := byWorker[wk]
		per := 0.0
		if f.delta > 0 {
			per = float64(f.acts) / float64(f.delta)
		}
		fmt.Fprintf(w, "  %-8d %8d %12d %12d %14.2f\n", wk, f.sweeps, f.delta, f.acts, per)
	}
}
