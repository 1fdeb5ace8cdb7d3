// Package faultinject provides deterministic fault injection for the
// parallel reasoner's communication layer. An Injector decides, per
// operation, whether to fail it, delay it, or crash the whole node, driven
// by a seeded random source plus exact nth-call triggers — so a failing
// schedule found by a seed sweep can be replayed bit-for-bit.
//
// The injected Fault error reports itself as transient
// (`Transient() bool`), which is exactly the class transport.Retry
// re-attempts: a run wired as faultinject → Retry → real transport
// exercises the full recovery path. Both the test suites and the `-fault`
// flag of cmd/owlcluster / cmd/owlnode consume this package.
package faultinject

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config describes a fault schedule.
type Config struct {
	// Seed seeds the probability draws; the same seed and call sequence
	// reproduce the same faults.
	Seed int64
	// SendProb / RecvProb are per-call probabilities of injecting a
	// transient fault into Send / Recv.
	SendProb, RecvProb float64
	// SendNth / RecvNth fail exactly the nth (1-based) Send / Recv call,
	// independent of the probability draws; 0 disables.
	SendNth, RecvNth int
	// MaxFaults caps the total number of injected faults (0 = unlimited).
	// Tests set it so a bounded-retry run is guaranteed to outlast the
	// schedule.
	MaxFaults int
	// Delay is added to an operation with probability DelayProb, modelling
	// slow links and shared-FS stalls.
	Delay     time.Duration
	DelayProb float64
	// CrashRound, if > 0, makes Crash(round) report true from that round
	// on — a fail-stop node death for the fscluster recovery path.
	CrashRound int
	// DropRound, if > 0, makes DropConn fire once when a send of that round
	// (1-based, same convention as CrashRound: drop=2 severs during the
	// second round) matches the DropFrom->DropTo pair. The cluster layer
	// relays the drop to the transport's LinkDropper, severing a live
	// connection mid-run so the reconnect path is exercised.
	DropRound int
	// DropFrom / DropTo select the ordered pair whose link DropRound severs.
	DropFrom, DropTo int
}

// Fault is an injected transient error.
type Fault struct {
	Op   string // "send" or "recv"
	Call int    // 1-based call number that was failed
}

// Error implements error.
func (f *Fault) Error() string { return fmt.Sprintf("faultinject: %s call %d failed", f.Op, f.Call) }

// Transient marks injected faults as retryable for transport.DefaultClassify.
func (f *Fault) Transient() bool { return true }

// Injector applies a Config. All methods are safe for concurrent use.
type Injector struct {
	cfg Config

	mu           sync.Mutex
	rng          *rand.Rand
	sends, recvs int
	faults       int
	dropped      bool
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Send decides the fate of the next send: it may sleep an injected delay,
// then returns either nil or a *Fault.
func (in *Injector) Send() error { return in.op("send") }

// Recv decides the fate of the next receive.
func (in *Injector) Recv() error { return in.op("recv") }

// Crash reports whether a node should fail-stop in the given (0-based)
// round: true from round CrashRound-1 on, so crash=1 dies before doing any
// work and crash=2 dies after completing one round.
func (in *Injector) Crash(round int) bool {
	return in != nil && in.cfg.CrashRound > 0 && round >= in.cfg.CrashRound-1
}

// DropConn reports whether the from->to link should be severed before the
// given (0-based) round's send — true exactly once, when the schedule's
// DropRound has been reached and the pair matches. The caller is expected
// to relay a true answer to the transport's DropLink.
func (in *Injector) DropConn(round, from, to int) bool {
	if in == nil || in.cfg.DropRound <= 0 {
		return false
	}
	if round < in.cfg.DropRound-1 || from != in.cfg.DropFrom || to != in.cfg.DropTo {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.dropped {
		return false
	}
	in.dropped = true
	in.faults++
	return true
}

// DropConnFired reports whether the scheduled connection drop has fired.
func (in *Injector) DropConnFired() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dropped
}

// Faults reports how many faults have been injected so far.
func (in *Injector) Faults() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults
}

func (in *Injector) op(op string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	var call int
	var nth int
	var prob float64
	switch op {
	case "send":
		in.sends++
		call, nth, prob = in.sends, in.cfg.SendNth, in.cfg.SendProb
	default:
		in.recvs++
		call, nth, prob = in.recvs, in.cfg.RecvNth, in.cfg.RecvProb
	}
	delay := time.Duration(0)
	if in.cfg.Delay > 0 && in.rng.Float64() < in.cfg.DelayProb {
		delay = in.cfg.Delay
	}
	fail := call == nth
	if !fail && prob > 0 && in.rng.Float64() < prob {
		fail = in.cfg.MaxFaults == 0 || in.faults < in.cfg.MaxFaults
	}
	if fail {
		in.faults++
	}
	in.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return &Fault{Op: op, Call: call}
	}
	return nil
}

// ParseSpec parses the comma-separated key=value syntax of the -fault flag:
//
//	seed=7,send=0.1,recv=0.05,sendnth=3,recvnth=0,max=10,delay=5ms,delayp=0.3,crash=2,drop=2,dropfrom=0,dropto=1
//
// Unknown keys are an error; an empty spec is the zero Config.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("faultinject: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "send":
			cfg.SendProb, err = strconv.ParseFloat(v, 64)
		case "recv":
			cfg.RecvProb, err = strconv.ParseFloat(v, 64)
		case "sendnth":
			cfg.SendNth, err = strconv.Atoi(v)
		case "recvnth":
			cfg.RecvNth, err = strconv.Atoi(v)
		case "max":
			cfg.MaxFaults, err = strconv.Atoi(v)
		case "delay":
			cfg.Delay, err = time.ParseDuration(v)
		case "delayp":
			cfg.DelayProb, err = strconv.ParseFloat(v, 64)
		case "crash":
			cfg.CrashRound, err = strconv.Atoi(v)
		case "drop":
			cfg.DropRound, err = strconv.Atoi(v)
		case "dropfrom":
			cfg.DropFrom, err = strconv.Atoi(v)
		case "dropto":
			cfg.DropTo, err = strconv.Atoi(v)
		default:
			return cfg, fmt.Errorf("faultinject: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("faultinject: %s: %w", k, err)
		}
	}
	return cfg, nil
}
