package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"powl/internal/obs"
	"powl/internal/rdf"
)

// transientErr satisfies the Transient() interface DefaultClassify probes,
// so the flaky transport below is retried without importing faultinject
// (which would cycle back into this package).
type transientErr struct{ msg string }

func (e *transientErr) Error() string   { return e.msg }
func (e *transientErr) Transient() bool { return true }

// flakyMem wraps Mem, failing the first failSends Sends and failRecvs Recvs
// with a transient error.
type flakyMem struct {
	*Mem
	failSends, failRecvs int
}

func (f *flakyMem) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	if f.failSends > 0 {
		f.failSends--
		return &transientErr{"flaky send"}
	}
	return f.Mem.Send(ctx, round, from, to, ts)
}

func (f *flakyMem) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	if f.failRecvs > 0 {
		f.failRecvs--
		return nil, &transientErr{"flaky recv"}
	}
	return f.Mem.Recv(ctx, round, to)
}

// TestRetryStatsAccounting: Attempts counts every inner invocation (first
// tries included), Retries counts only the re-invocations, and BackoffSleep
// accumulates the time spent waiting between them.
func TestRetryStatsAccounting(t *testing.T) {
	_, ts := newDictWithTriples(3)
	inner := &flakyMem{Mem: NewMem(), failSends: 2, failRecvs: 1}
	r := NewRetry(inner, RetryConfig{MaxAttempts: 8, BaseDelay: time.Microsecond, Seed: 1})
	defer r.Close()

	ctx := context.Background()
	if err := r.Send(ctx, 0, 0, 1, ts); err != nil {
		t.Fatal(err)
	}
	got, err := r.Recv(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("recv returned %d triples, want %d", len(got), len(ts))
	}

	// Send: 2 failures + 1 success = 3 attempts. Recv: 1 failure + 1
	// success = 2 attempts.
	st := r.Stats()
	if st.Attempts != 5 {
		t.Errorf("attempts = %d, want 5", st.Attempts)
	}
	if st.Retries != 3 {
		t.Errorf("retries = %d, want 3", st.Retries)
	}
	if st.BackoffSleep <= 0 {
		t.Errorf("backoff sleep = %v, want > 0", st.BackoffSleep)
	}
}

// TestRetryObsWiring: the Obs recorder sees every retry decision and sleep,
// and FlushProfiles turns them into journal retry events per operation.
func TestRetryObsWiring(t *testing.T) {
	_, ts := newDictWithTriples(2)
	sink := &obs.MemSink{}
	run := obs.NewRun(sink, obs.NewRegistry())

	inner := &flakyMem{Mem: NewMem(), failSends: 1, failRecvs: 2}
	r := NewRetry(inner, RetryConfig{MaxAttempts: 8, BaseDelay: time.Microsecond, Seed: 1})
	r.Obs = run.Transport()
	defer r.Close()

	ctx := context.Background()
	if err := r.Send(ctx, 0, 0, 0, ts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Recv(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}

	run.FlushProfiles(run.Now())
	retried := map[string]int64{}
	var slept int64
	for _, e := range sink.Events() {
		if e.Type == obs.EvRetry {
			retried[e.Name] = e.N
			slept = e.Dur
		}
	}
	if retried["send"] != 1 {
		t.Errorf("journaled send retries = %d, want 1", retried["send"])
	}
	if retried["recv"] != 2 {
		t.Errorf("journaled recv retries = %d, want 2", retried["recv"])
	}
	if slept <= 0 {
		t.Errorf("journaled backoff sleep = %d, want > 0", slept)
	}
	if got := run.Registry.Counter("transport.retries.recv").Value(); got != 2 {
		t.Errorf("registry recv retry counter = %d, want 2", got)
	}
}

// TestRetryFatalNotCounted: a fatal (non-transient) error must surface
// immediately with no retries charged.
func TestRetryFatalNotCounted(t *testing.T) {
	r := NewRetry(&fatalMem{Mem: NewMem()}, RetryConfig{BaseDelay: time.Microsecond})
	defer r.Close()
	_, ts := newDictWithTriples(1)
	err := r.Send(context.Background(), 0, 0, 1, ts)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("expected ErrMalformed, got %v", err)
	}
	st := r.Stats()
	if st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want exactly one attempt and zero retries", st)
	}
}

type fatalMem struct{ *Mem }

func (f *fatalMem) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	return ErrMalformed
}
