package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"powl/internal/faultinject"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/transport"
)

// transportMatrix yields a fresh instance of every transport kind for k
// workers, for fault-matrix tests (the seed suite only exercised Mem here).
func transportMatrix(t *testing.T, k int, dict *rdf.Dict) map[string]transport.Transport {
	t.Helper()
	file, err := transport.NewFile(t.TempDir(), dict)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := transport.NewTCP(k, dict)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]transport.Transport{
		"mem":  transport.NewMem(),
		"file": file,
		"tcp":  tcp,
	}
}

// TestSendFailureAbortsRun: an unretried transient failure must surface its
// error and not deadlock the barrier, in both modes — the seed's fail-stop
// contract still holds when no Retry wrapper is installed.
func TestSendFailureAbortsRun(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Simulated} {
		f := newChainFixture(t, 12, 3)
		tr := &faultinject.Transport{
			Inner: transport.NewMem(),
			Inj:   faultinject.New(faultinject.Config{SendNth: 1}),
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(Config{
				Engine:    reason.Forward{},
				Transport: tr,
				Router:    ownerRouter{f.owner},
				Mode:      mode,
			}, f.assignments(3))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "faultinject: send call 1") {
				t.Fatalf("mode=%v: expected injected failure, got %v", mode, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("mode=%v: run deadlocked after transport failure", mode)
		}
	}
}

// TestRecvFailureAbortsRun: same for the receive path.
func TestRecvFailureAbortsRun(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Simulated} {
		f := newChainFixture(t, 12, 3)
		tr := &faultinject.Transport{
			Inner: transport.NewMem(),
			Inj:   faultinject.New(faultinject.Config{RecvNth: 2}),
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(Config{
				Engine:    reason.Forward{},
				Transport: tr,
				Router:    ownerRouter{f.owner},
				Mode:      mode,
			}, f.assignments(3))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "faultinject: recv call 2") {
				t.Fatalf("mode=%v: expected injected failure, got %v", mode, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("mode=%v: run deadlocked after transport failure", mode)
		}
	}
}

// TestTransientFaultsRecoverAcrossTransports is the core fault matrix: on
// every transport kind, in both modes, a seeded schedule of transient
// send/recv faults is absorbed by the Retry wrapper and the run completes
// with the exact closure instead of aborting.
func TestTransientFaultsRecoverAcrossTransports(t *testing.T) {
	for _, mode := range []Mode{Concurrent, Simulated} {
		f := newChainFixture(t, 12, 3)
		for name, inner := range transportMatrix(t, 3, f.dict) {
			inj := faultinject.New(faultinject.Config{
				Seed: 7, SendProb: 0.3, RecvProb: 0.3, MaxFaults: 6,
			})
			retry := transport.NewRetry(
				&faultinject.Transport{Inner: inner, Inj: inj},
				transport.RetryConfig{MaxAttempts: 8, BaseDelay: time.Microsecond, Seed: 7},
			)
			res, err := Run(Config{
				Engine:    reason.Forward{},
				Transport: retry,
				Router:    ownerRouter{f.owner},
				Mode:      mode,
			}, f.assignments(3))
			if err != nil {
				t.Fatalf("mode=%v %s: run failed despite retry: %v", mode, name, err)
			}
			if !res.Graph.Equal(f.closed) {
				t.Fatalf("mode=%v %s: closure mismatch after faulty run", mode, name)
			}
			if inj.Faults() > 0 && retry.Stats().Retries == 0 {
				t.Fatalf("mode=%v %s: %d faults injected but no retries recorded",
					mode, name, inj.Faults())
			}
			retry.Close()
		}
	}
}

// TestNthCallFaultRecovers: a deterministic nth-call fault (not probability)
// is also absorbed, on every transport.
func TestNthCallFaultRecovers(t *testing.T) {
	f := newChainFixture(t, 10, 3)
	for name, inner := range transportMatrix(t, 3, f.dict) {
		inj := faultinject.New(faultinject.Config{SendNth: 2, RecvNth: 3})
		retry := transport.NewRetry(
			&faultinject.Transport{Inner: inner, Inj: inj},
			transport.RetryConfig{BaseDelay: time.Microsecond},
		)
		res, err := Run(Config{
			Engine:    reason.Forward{},
			Transport: retry,
			Router:    ownerRouter{f.owner},
			Mode:      Concurrent,
		}, f.assignments(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Graph.Equal(f.closed) {
			t.Fatalf("%s: closure mismatch", name)
		}
		retry.Close()
	}
}

// malformedOnce fails the first Recv with a payload-corruption error, which
// Classify must treat as fatal: retrying corrupt bytes cannot help.
type malformedOnce struct {
	transport.Transport
	tripped bool
}

func (m *malformedOnce) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	if !m.tripped {
		m.tripped = true
		return nil, fmt.Errorf("%w: bad frame", transport.ErrMalformed)
	}
	return m.Transport.Recv(ctx, round, to)
}

func TestMalformedPayloadIsNotRetried(t *testing.T) {
	f := newChainFixture(t, 8, 2)
	retry := transport.NewRetry(
		&malformedOnce{Transport: transport.NewMem()},
		transport.RetryConfig{BaseDelay: time.Microsecond},
	)
	_, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: retry,
		Router:    ownerRouter{f.owner},
		Mode:      Simulated,
	}, f.assignments(2))
	if !errors.Is(err, transport.ErrMalformed) {
		t.Fatalf("expected malformed-payload abort, got %v", err)
	}
	if retry.Stats().Retries != 0 {
		t.Fatalf("fatal error was retried %d times", retry.Stats().Retries)
	}
}

// stuckTransport simulates a dead worker: every Send from stuckFrom blocks
// until the context fires.
type stuckTransport struct {
	transport.Transport
	stuckFrom int
}

func (s *stuckTransport) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	if from == s.stuckFrom {
		<-ctx.Done()
		return ctx.Err()
	}
	return s.Transport.Send(ctx, round, from, to, ts)
}

// TestRoundDeadlineUnsticksBarrier: with one worker hung, the others are
// stuck at the barrier forever in the seed design; RoundTimeout must wake
// everyone with DeadlineExceeded instead.
func TestRoundDeadlineUnsticksBarrier(t *testing.T) {
	f := newChainFixture(t, 12, 3)
	done := make(chan error, 1)
	go func() {
		_, err := Run(Config{
			Engine:       reason.Forward{},
			Transport:    &stuckTransport{Transport: transport.NewMem(), stuckFrom: 1},
			Router:       ownerRouter{f.owner},
			Mode:         Concurrent,
			RoundTimeout: 100 * time.Millisecond,
		}, f.assignments(3))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expected DeadlineExceeded, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("round deadline never fired; barrier stuck")
	}
}

// TestRunContextCancellation: cancelling the run context aborts a run whose
// workers are blocked mid-round.
func TestRunContextCancellation(t *testing.T) {
	f := newChainFixture(t, 12, 3)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, Config{
			Engine:    reason.Forward{},
			Transport: &stuckTransport{Transport: transport.NewMem(), stuckFrom: 1},
			Router:    ownerRouter{f.owner},
			Mode:      Concurrent,
		}, f.assignments(3))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expected Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not end the run")
	}
}

// slowRouter delays destinations computation to shake out races between
// workers under the race detector.
type slowRouter struct {
	inner Router
}

func (r slowRouter) Destinations(t rdf.Triple, from int) []int {
	time.Sleep(time.Microsecond)
	return r.inner.Destinations(t, from)
}

func TestConcurrentWorkersUnderContention(t *testing.T) {
	f := newChainFixture(t, 24, 6)
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: transport.NewMem(),
		Router:    slowRouter{ownerRouter{f.owner}},
		Mode:      Concurrent,
	}, f.assignments(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatal("closure mismatch under contention")
	}
}

// TestKillWorkerRecoversAcrossTransports is the recovery matrix: on every
// transport kind a worker is fail-stopped at round N with recovery armed;
// the survivors must finish with the closure of the serial fixpoint, and
// the journal must show the matching death and adoption.
func TestKillWorkerRecoversAcrossTransports(t *testing.T) {
	for _, crashRound := range []int{1, 2, 3} {
		f := newChainFixture(t, 12, 3)
		for name, tr := range transportMatrix(t, 3, f.dict) {
			sink := &obs.MemSink{}
			o := obs.NewRun(sink, nil)
			res, err := Run(Config{
				Engine:    reason.Forward{},
				Transport: tr,
				Router:    ownerRouter{f.owner},
				Mode:      Concurrent,
				Obs:       o,
				Recovery:  &RecoveryConfig{},
				Inject: []*faultinject.Injector{
					nil,
					faultinject.New(faultinject.Config{CrashRound: crashRound}),
					nil,
				},
			}, f.assignments(3))
			if err != nil {
				t.Fatalf("crash=%d %s: run failed: %v", crashRound, name, err)
			}
			if !res.Graph.Equal(f.closed) {
				t.Fatalf("crash=%d %s: closure mismatch after recovery: got %d want %d",
					crashRound, name, res.Graph.Len(), f.closed.Len())
			}
			if adopter, ok := res.Recovered[1]; !ok {
				t.Fatalf("crash=%d %s: worker 1 not in Recovered %v", crashRound, name, res.Recovered)
			} else if adopter != 0 {
				t.Fatalf("crash=%d %s: expected lowest live worker 0 as adopter, got %d",
					crashRound, name, adopter)
			}
			assertDeathAndAdopt(t, sink.Events(), 1, 0)
			tr.Close()
		}
	}
}

// assertDeathAndAdopt checks the journal records the membership change:
// a death event for the victim naming the adopter, and an adoption event
// by the adopter naming the victim.
func assertDeathAndAdopt(t *testing.T, events []obs.Event, victim, adopter int) {
	t.Helper()
	var death, adopt bool
	for _, e := range events {
		switch e.Type {
		case obs.EvDeath:
			if e.Worker == victim && e.N == int64(adopter) {
				death = true
			}
		case obs.EvAdopt:
			if e.Worker == adopter && e.N == int64(victim) {
				adopt = true
			}
		}
	}
	if !death {
		t.Fatalf("journal missing death event for worker %d (adopter %d)", victim, adopter)
	}
	if !adopt {
		t.Fatalf("journal missing adopt event by worker %d of %d", adopter, victim)
	}
}

// TestKillWorkerRecoversSimulated: the same recovery semantics hold in
// Simulated mode, whose crash takes the Concurrent path: reported through
// Membership.Died, the barrier shrinks, and the adopter absorbs the victim
// at its next round top.
func TestKillWorkerRecoversSimulated(t *testing.T) {
	f := newChainFixture(t, 12, 3)
	sink := &obs.MemSink{}
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: transport.NewMem(),
		Router:    ownerRouter{f.owner},
		Mode:      Simulated,
		Obs:       obs.NewRun(sink, nil),
		Recovery:  &RecoveryConfig{},
		Inject: []*faultinject.Injector{
			nil,
			faultinject.New(faultinject.Config{CrashRound: 2}),
			nil,
		},
	}, f.assignments(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatalf("closure mismatch: got %d want %d", res.Graph.Len(), f.closed.Len())
	}
	if res.Recovered[1] != 0 {
		t.Fatalf("expected worker 0 to adopt 1, got %v", res.Recovered)
	}
	assertDeathAndAdopt(t, sink.Events(), 1, 0)
}

// TestKillTwoWorkersRecovers: a second death — including the case where the
// second victim is the first victim's adopter candidate — cascades onto the
// next live worker without losing either partition.
func TestKillTwoWorkersRecovers(t *testing.T) {
	f := newChainFixture(t, 16, 4)
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: transport.NewMem(),
		Router:    ownerRouter{f.owner},
		Mode:      Concurrent,
		Obs:       nil,
		Recovery:  &RecoveryConfig{},
		Inject: []*faultinject.Injector{
			nil,
			faultinject.New(faultinject.Config{CrashRound: 1}),
			faultinject.New(faultinject.Config{CrashRound: 2}),
			nil,
		},
	}, f.assignments(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatalf("closure mismatch after two deaths: got %d want %d",
			res.Graph.Len(), f.closed.Len())
	}
	if res.Recovered[1] != 0 || res.Recovered[2] != 0 {
		t.Fatalf("expected worker 0 to adopt both victims, got %v", res.Recovered)
	}
}

// TestAllWorkersDeadIsUnrecoverable: when the last worker dies the run must
// error out rather than hang or return a partial closure.
func TestAllWorkersDeadIsUnrecoverable(t *testing.T) {
	f := newChainFixture(t, 8, 2)
	done := make(chan error, 1)
	go func() {
		_, err := Run(Config{
			Engine:    reason.Forward{},
			Transport: transport.NewMem(),
			Router:    ownerRouter{f.owner},
			Mode:      Concurrent,
			Recovery:  &RecoveryConfig{},
			Inject: []*faultinject.Injector{
				faultinject.New(faultinject.Config{CrashRound: 1}),
				faultinject.New(faultinject.Config{CrashRound: 1}),
			},
		}, f.assignments(2))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "all workers dead") {
			t.Fatalf("expected unrecoverable-run error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("all-dead run hung instead of erroring")
	}
}

// TestChaosRunTCP is the acceptance scenario: a 4-worker Concurrent run over
// the real TCP mesh with one worker killed mid-run and one connection
// severed. The run must finish with the serial-fixpoint closure and the
// journal must show the death, the adoption, and the link reconnection.
func TestChaosRunTCP(t *testing.T) {
	f := newChainFixture(t, 16, 4)
	tcp, err := transport.NewTCP(4, f.dict)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	sink := &obs.MemSink{}
	o := obs.NewRun(sink, nil)
	tcp.Obs = o.Transport()
	dropInj := faultinject.New(faultinject.Config{DropRound: 2, DropFrom: 0, DropTo: 1})
	res, err := Run(Config{
		Engine:    reason.Forward{},
		Transport: &faultinject.Transport{Inner: tcp, Inj: dropInj},
		Router:    ownerRouter{f.owner},
		Mode:      Concurrent,
		Obs:       o,
		Recovery:  &RecoveryConfig{},
		Inject: []*faultinject.Injector{
			nil, nil,
			faultinject.New(faultinject.Config{CrashRound: 2}),
			nil,
		},
	}, f.assignments(4))
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if !res.Graph.Equal(f.closed) {
		t.Fatalf("closure mismatch after chaos: got %d want %d (diff %v)",
			res.Graph.Len(), f.closed.Len(), f.closed.Diff(res.Graph))
	}
	if res.Recovered[2] != 0 {
		t.Fatalf("expected worker 0 to adopt 2, got %v", res.Recovered)
	}
	assertDeathAndAdopt(t, sink.Events(), 2, 0)
	if !dropInj.DropConnFired() {
		t.Fatal("scheduled connection drop never fired (0->1 never sent at drop round?)")
	}
	if tcp.Redials() == 0 {
		t.Fatal("dropped link never re-dialed")
	}
	var redialEvent bool
	for _, e := range sink.Events() {
		if e.Type == obs.EvRedial && e.Name == "0->1" && e.N > 0 {
			redialEvent = true
		}
	}
	if !redialEvent {
		t.Fatalf("journal missing redial event for 0->1")
	}
}
