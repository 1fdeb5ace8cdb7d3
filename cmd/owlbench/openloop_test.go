package main

import (
	"context"
	"testing"
	"time"
)

// One connection, a request every 10 ms, and a client that stalls for 100 ms
// on request 5: the requests due during the stall were sent late, and the
// open loop must charge them the wait even though each was served at once.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const interval = 10 * time.Millisecond
	res, err := runOpenLoop(context.Background(), 30, interval, 1, func(i int, _ *sleeper) {
		if i == 5 {
			time.Sleep(100 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, done := range res.done {
		if !done {
			t.Fatalf("request %d not attempted", i)
		}
	}
	if res.latency[5] < 100*time.Millisecond {
		t.Errorf("stalled request took %v, want >= 100ms", res.latency[5])
	}
	// Request 6 was due 10 ms into the stall, request 10 50 ms into it.
	for _, c := range []struct {
		i    int
		want time.Duration
	}{{6, 85 * time.Millisecond}, {10, 45 * time.Millisecond}} {
		if res.latency[c.i] < c.want {
			t.Errorf("request %d queued behind the stall was charged %v, want >= %v", c.i, res.latency[c.i], c.want)
		}
		if own := res.latency[c.i] - res.late[c.i]; own > 5*time.Millisecond {
			t.Errorf("request %d took %v once sent; the charge must be queueing, not service", c.i, own)
		}
	}
	// Before the stall and well after it the schedule holds.
	for _, i := range []int{2, 29} {
		if res.latency[i] > 8*time.Millisecond {
			t.Errorf("request %d, not behind the stall, was charged %v", i, res.latency[i])
		}
	}
}

func TestSleeperIsFinerThanTimerSlop(t *testing.T) {
	sl, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer sl.close()
	var worst time.Duration
	for i := 0; i < 50; i++ {
		at := time.Now().Add(300 * time.Microsecond)
		if !sl.until(context.Background(), at) {
			t.Fatal("until reported a cancelled context")
		}
		late := time.Since(at)
		if late < 0 {
			t.Fatalf("woke %v early", -late)
		}
		if late > worst {
			worst = late
		}
	}
	t.Logf("worst oversleep %v", worst)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sl.until(ctx, time.Now().Add(time.Hour)) {
		t.Error("until ignored a cancelled context")
	}
}
