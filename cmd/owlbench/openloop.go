package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Open loop: request i is due at start + i*interval whatever happened to the
// requests before it, as independent users would send it. The conns
// goroutines stand for that many connections; each takes the next request
// in schedule order, waits for its due time if it is early, and issues it.
// A request's latency runs from its due time, not from when a connection got
// round to it, so a stall is charged to every request that queued behind it.
// late is how long after its due time the request was actually sent: the
// generator's own wake-up error while the system keeps up, the backlog when
// it does not.

// openLoopResult holds one entry per scheduled request.
type openLoopResult struct {
	latency []time.Duration // due time to completion
	late    []time.Duration // due time to send
	done    []bool          // false: not attempted before ctx ended
}

// runOpenLoop issues n requests at the given interval over conns
// connections. do runs request i and returns once its reply (or failure) is
// in hand. Requests not started when ctx ends are left with done=false.
func runOpenLoop(ctx context.Context, n int, interval time.Duration, conns int, do func(i int, sl *sleeper)) (openLoopResult, error) {
	res := openLoopResult{
		latency: make([]time.Duration, n),
		late:    make([]time.Duration, n),
		done:    make([]bool, n),
	}
	sleepers, err := newSleepers(conns)
	if err != nil {
		return res, err
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, sl := range sleepers {
		wg.Add(1)
		go func(sl *sleeper) {
			defer wg.Done()
			defer sl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if !sl.until(ctx, due) {
					return
				}
				res.late[i] = time.Since(due)
				do(i, sl)
				res.latency[i] = time.Since(due)
				res.done[i] = true
			}
		}(sl)
	}
	wg.Wait()
	return res, nil
}

// newSleepers makes one sleeper per connection goroutine.
func newSleepers(n int) ([]*sleeper, error) {
	out := make([]*sleeper, 0, n)
	for i := 0; i < n; i++ {
		sl, err := newSleeper()
		if err != nil {
			for _, s := range out {
				s.close()
			}
			return nil, err
		}
		out = append(out, sl)
	}
	return out, nil
}

// runClosedLoop has each of conns clients issue its next request as soon as
// the previous one completes, until d has passed or next runs out of
// requests. It returns the number completed and the time it took: a slower
// system is offered less load, which is what makes this the throughput
// measurement and the open loop the latency measurement.
func runClosedLoop(ctx context.Context, d time.Duration, conns int, next func() (do func(sl *sleeper), ok bool)) (int, time.Duration, error) {
	sleepers, err := newSleepers(conns)
	if err != nil {
		return 0, 0, err
	}
	var completed atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, sl := range sleepers {
		wg.Add(1)
		go func(sl *sleeper) {
			defer wg.Done()
			defer sl.close()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				do, ok := next()
				if !ok {
					return
				}
				do(sl)
				completed.Add(1)
			}
		}(sl)
	}
	wg.Wait()
	return int(completed.Load()), time.Since(start), nil
}
