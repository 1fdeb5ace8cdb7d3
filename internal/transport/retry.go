package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"powl/internal/obs"
	"powl/internal/rdf"
)

// DefaultClassify reports whether an error is transient — worth retrying —
// as opposed to fatal. The distinction drives Retry: a transient Send/Recv
// failure is retried with backoff; a fatal one aborts the run immediately.
// The split:
//
//   - malformed payloads (ErrMalformed) are fatal: the bytes are corrupt and
//     will be corrupt on every retry;
//   - context cancellation and deadline expiry are fatal: the caller asked
//     to stop;
//   - errors exposing `Transient() bool` (e.g. injected faults from
//     internal/faultinject) answer for themselves;
//   - TCP-level failures — connection resets, broken pipes, refused or timed
//     out connections, truncated frames — are transient;
//   - file-system EAGAIN/EINTR (shared-FS under load) are transient;
//   - net.Error timeouts are transient;
//   - everything else is fatal.
func DefaultClassify(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrMalformed) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) {
		return tr.Transient()
	}
	for _, e := range []error{
		syscall.ECONNRESET, syscall.EPIPE, syscall.ECONNREFUSED,
		syscall.ECONNABORTED, syscall.ETIMEDOUT,
		syscall.EAGAIN, syscall.EINTR,
		io.ErrUnexpectedEOF, io.ErrClosedPipe,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return false
}

// RetryConfig tunes a Retry wrapper. The zero value is usable: 4 attempts,
// 1ms base delay doubling to a 100ms cap, deterministic jitter.
type RetryConfig struct {
	// MaxAttempts is the total number of tries per operation (1 = no
	// retries). 0 means 4.
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry; it doubles
	// per attempt. 0 means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter backoff. 0 means 100ms.
	MaxDelay time.Duration
	// Seed seeds the jitter source so retry schedules are reproducible.
	Seed int64
}

// Retry wraps a Transport with bounded retry + exponential backoff + jitter
// for transient Send/Recv failures. Fatal errors (per DefaultClassify) and
// exhausted budgets surface to the caller unchanged, wrapped with attempt
// context.
type Retry struct {
	inner Transport
	cfg   RetryConfig

	// Obs, when non-nil, receives every retry decision and backoff sleep
	// (in addition to the wrapper's own Stats counters).
	Obs *obs.TransportRecorder

	mu       sync.Mutex
	rng      *rand.Rand
	retries  int
	attempts int64
	slept    time.Duration
}

// RetryStats is the wrapper's cumulative cost accounting.
type RetryStats struct {
	// Attempts counts every inner-operation invocation, first tries
	// included; Attempts - (Sends+Recvs that succeeded first try) is paid
	// redundantly.
	Attempts int64
	// Retries counts re-invocations after a transient failure.
	Retries int64
	// BackoffSleep is the total time spent sleeping between attempts.
	BackoffSleep time.Duration
}

// NewRetry wraps inner. See RetryConfig for defaults.
func NewRetry(inner Transport, cfg RetryConfig) *Retry {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 100 * time.Millisecond
	}
	return &Retry{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Name implements Transport.
func (r *Retry) Name() string { return r.inner.Name() + "+retry" }

// Stats returns the wrapper's cumulative attempt/retry/backoff accounting.
func (r *Retry) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RetryStats{Attempts: r.attempts, Retries: int64(r.retries), BackoffSleep: r.slept}
}

// Send implements Transport. Re-sending a batch is safe because delivery is
// deduplicated downstream: receivers absorb triples through Graph.Add, so a
// batch that was delivered and then re-sent only costs bandwidth.
func (r *Retry) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	return r.do(ctx, "send", func() error {
		return r.inner.Send(ctx, round, from, to, ts)
	})
}

// Recv implements Transport.
func (r *Retry) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	var out []rdf.Triple
	err := r.do(ctx, "recv", func() error {
		var e error
		out, e = r.inner.Recv(ctx, round, to)
		return e
	})
	return out, err
}

// Close implements Transport.
func (r *Retry) Close() error { return r.inner.Close() }

// SendLineage implements LineageCarrier through the same retry loop as
// Send. Without a LineageCarrier inside, the records go nowhere, as they
// would over the inner transport alone.
func (r *Retry) SendLineage(ctx context.Context, round, from, to int, lins []rdf.Lineage) error {
	lc, ok := r.inner.(LineageCarrier)
	if !ok {
		return nil
	}
	return r.do(ctx, "send", func() error {
		return lc.SendLineage(ctx, round, from, to, lins)
	})
}

// RecvLineage implements LineageCarrier through the same retry loop as Recv.
func (r *Retry) RecvLineage(ctx context.Context, round, to int) ([]rdf.Lineage, error) {
	lc, ok := r.inner.(LineageCarrier)
	if !ok {
		return nil, nil
	}
	var out []rdf.Lineage
	err := r.do(ctx, "recv", func() error {
		var e error
		out, e = lc.RecvLineage(ctx, round, to)
		return e
	})
	return out, err
}

// DropLink forwards to the inner transport when it is a LinkDropper, so
// fault injection reaches through the wrapper.
func (r *Retry) DropLink(from, to int) bool {
	if d, ok := r.inner.(LinkDropper); ok {
		return d.DropLink(from, to)
	}
	return false
}

func (r *Retry) do(ctx context.Context, op string, f func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		r.mu.Lock()
		r.attempts++
		r.mu.Unlock()
		err = f()
		if err == nil {
			return nil
		}
		if !DefaultClassify(err) {
			return err
		}
		if attempt >= r.cfg.MaxAttempts {
			return fmt.Errorf("transport: %s failed after %d attempts: %w", op, attempt, err)
		}
		r.Obs.Retried(op)
		if werr := r.wait(ctx, attempt); werr != nil {
			return fmt.Errorf("transport: %s retry aborted: %w (last error: %v)", op, werr, err)
		}
	}
}

// wait sleeps the backoff for the given attempt (1-based), honoring ctx.
func (r *Retry) wait(ctx context.Context, attempt int) error {
	d := r.cfg.BaseDelay << (attempt - 1)
	if d > r.cfg.MaxDelay || d <= 0 {
		d = r.cfg.MaxDelay
	}
	// Jitter in [50%, 150%] from the seeded source, so concurrent retriers
	// decorrelate yet a given seed replays the same schedule.
	r.mu.Lock()
	r.retries++
	d = time.Duration(float64(d) * (0.5 + r.rng.Float64()))
	r.mu.Unlock()

	if err := sleepCtx(ctx, d); err != nil {
		return err
	}
	r.mu.Lock()
	r.slept += d
	r.mu.Unlock()
	r.Obs.Slept(d)
	return nil
}
