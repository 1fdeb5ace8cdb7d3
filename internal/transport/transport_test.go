package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"powl/internal/rdf"
)

// newDictWithTriples interns n distinct triples for tests.
func newDictWithTriples(n int) (*rdf.Dict, []rdf.Triple) {
	dict := rdf.NewDict()
	ts := make([]rdf.Triple, n)
	p := dict.InternIRI("http://t/p")
	for i := range ts {
		ts[i] = rdf.Triple{
			S: dict.InternIRI(fmt.Sprintf("http://t/s%d", i)),
			P: p,
			O: dict.InternLiteral(fmt.Sprintf(`"v%d"`, i)),
		}
	}
	return dict, ts
}

// transports returns one instance of each transport kind for k workers.
func transports(t *testing.T, k int, dict *rdf.Dict) []Transport {
	t.Helper()
	file, err := NewFile(t.TempDir(), dict)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := NewTCP(k, dict)
	if err != nil {
		t.Fatal(err)
	}
	return []Transport{NewMem(), file, tcp}
}

func tripleSet(ts []rdf.Triple) map[rdf.Triple]int {
	m := map[rdf.Triple]int{}
	for _, t := range ts {
		m[t]++
	}
	return m
}

func TestSendRecvRoundTrip(t *testing.T) {
	dict, ts := newDictWithTriples(10)
	for _, tr := range transports(t, 3, dict) {
		// Worker 0 and 2 both send to worker 1 in round 0.
		if err := tr.Send(context.Background(), 0, 0, 1, ts[:4]); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if err := tr.Send(context.Background(), 0, 2, 1, ts[4:7]); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		got, err := tr.Recv(context.Background(), 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		want := tripleSet(ts[:7])
		gotSet := tripleSet(got)
		for k := range want {
			if gotSet[k] == 0 {
				t.Errorf("%s: triple missing after round trip", tr.Name())
			}
		}
		if len(got) != 7 {
			t.Errorf("%s: received %d triples, want 7", tr.Name(), len(got))
		}
		// Worker 0 received nothing.
		if got, _ := tr.Recv(context.Background(), 0, 0); len(got) != 0 {
			t.Errorf("%s: worker 0 received %d unexpected triples", tr.Name(), len(got))
		}
		if err := tr.Close(); err != nil {
			t.Errorf("%s: close: %v", tr.Name(), err)
		}
	}
}

func TestRoundsAreIsolated(t *testing.T) {
	dict, ts := newDictWithTriples(6)
	for _, tr := range transports(t, 2, dict) {
		tr.Send(context.Background(), 0, 0, 1, ts[:2])
		tr.Send(context.Background(), 1, 0, 1, ts[2:5])
		r0, _ := tr.Recv(context.Background(), 0, 1)
		r1, _ := tr.Recv(context.Background(), 1, 1)
		if len(r0) != 2 || len(r1) != 3 {
			t.Errorf("%s: rounds mixed: %d/%d", tr.Name(), len(r0), len(r1))
		}
		tr.Close()
	}
}

func TestRecvDrains(t *testing.T) {
	_, ts := newDictWithTriples(3)
	for _, tr := range []Transport{NewMem()} {
		tr.Send(context.Background(), 0, 0, 1, ts)
		first, _ := tr.Recv(context.Background(), 0, 1)
		second, _ := tr.Recv(context.Background(), 0, 1)
		if len(first) != 3 || len(second) != 0 {
			t.Errorf("%s: Recv did not drain (%d then %d)", tr.Name(), len(first), len(second))
		}
		tr.Close()
	}
}

func TestEmptySendIsNoop(t *testing.T) {
	dict, _ := newDictWithTriples(1)
	for _, tr := range transports(t, 2, dict) {
		if err := tr.Send(context.Background(), 0, 0, 1, nil); err != nil {
			t.Errorf("%s: empty send errored: %v", tr.Name(), err)
		}
		if got, _ := tr.Recv(context.Background(), 0, 1); len(got) != 0 {
			t.Errorf("%s: empty send delivered %d triples", tr.Name(), len(got))
		}
		tr.Close()
	}
}

func TestConcurrentSenders(t *testing.T) {
	dict, ts := newDictWithTriples(64)
	for _, tr := range transports(t, 8, dict) {
		var wg sync.WaitGroup
		for from := 0; from < 8; from++ {
			if from == 3 {
				continue
			}
			wg.Add(1)
			go func(from int) {
				defer wg.Done()
				// Each sender ships its own slice of 8 triples to worker 3.
				if err := tr.Send(context.Background(), 0, from, 3, ts[from*8:from*8+8]); err != nil {
					t.Errorf("%s: %v", tr.Name(), err)
				}
			}(from)
		}
		wg.Wait()
		got, err := tr.Recv(context.Background(), 0, 3)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if len(got) != 56 {
			t.Errorf("%s: received %d triples, want 56", tr.Name(), len(got))
		}
		tr.Close()
	}
}

func TestMemCloseReportsUndelivered(t *testing.T) {
	dict, ts := newDictWithTriples(2)
	_ = dict
	m := NewMem()
	m.Send(context.Background(), 0, 0, 1, ts)
	if err := m.Close(); err == nil {
		t.Fatal("Close with undelivered triples did not error")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close should be clean: %v", err)
	}
}

func TestFileTransportPersistsAsNTriples(t *testing.T) {
	dict, ts := newDictWithTriples(4)
	dir := t.TempDir()
	f, err := NewFile(dir, dict)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(context.Background(), 2, 1, 0, ts); err != nil {
		t.Fatal(err)
	}
	got, err := f.Recv(context.Background(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d triples", len(got))
	}
	// Receiving for a round where nothing was sent must not error.
	if got, err := f.Recv(context.Background(), 7, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty round: %v %v", got, err)
	}
	f.Close()
}

// TestLineageCarriers: Mem, File and Retry over Mem deliver lineage records
// to the addressed worker only, next to the triples they describe, and File
// keeps them apart from its triple messages.
func TestLineageCarriers(t *testing.T) {
	dict, ts := newDictWithTriples(3)
	lins := []rdf.Lineage{{T: ts[2], Rule: "r", Round: 1, Prem: ts[:2]}}
	file, err := NewFile(t.TempDir(), dict)
	if err != nil {
		t.Fatal(err)
	}
	for _, lc := range []interface {
		Transport
		LineageCarrier
	}{NewMem(), file, NewRetry(NewMem(), RetryConfig{})} {
		ctx := context.Background()
		if err := lc.Send(ctx, 1, 0, 1, ts[2:]); err != nil {
			t.Fatal(err)
		}
		if err := lc.SendLineage(ctx, 1, 0, 1, lins); err != nil {
			t.Fatalf("%s: %v", lc.Name(), err)
		}
		got, err := lc.RecvLineage(ctx, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", lc.Name(), err)
		}
		if len(got) != 1 || got[0].T != ts[2] || got[0].Rule != "r" || len(got[0].Prem) != 2 {
			t.Fatalf("%s: lineage round trip = %+v", lc.Name(), got)
		}
		if other, err := lc.RecvLineage(ctx, 1, 0); err != nil || len(other) != 0 {
			t.Fatalf("%s: worker 0 lineage = %v, %v", lc.Name(), other, err)
		}
		if tr, err := lc.Recv(ctx, 1, 1); err != nil || len(tr) != 1 {
			t.Fatalf("%s: triples next to lineage = %v, %v", lc.Name(), tr, err)
		}
		lc.Close()
	}
}

func TestTCPSelfSend(t *testing.T) {
	dict, ts := newDictWithTriples(3)
	tr, err := NewTCP(2, dict)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(context.Background(), 0, 1, 1, ts); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Recv(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("self-send delivered %d", len(got))
	}
}

func TestTransportNames(t *testing.T) {
	dict, _ := newDictWithTriples(1)
	trs := transports(t, 2, dict)
	names := map[string]bool{}
	for _, tr := range trs {
		names[tr.Name()] = true
		tr.Close()
	}
	for _, want := range []string{"mem", "file", "tcp"} {
		if !names[want] {
			t.Errorf("missing transport %q", want)
		}
	}
}

func TestLargePayload(t *testing.T) {
	dict, _ := newDictWithTriples(1)
	big := make([]rdf.Triple, 20000)
	p := dict.InternIRI("http://t/p")
	for i := range big {
		big[i] = rdf.Triple{
			S: dict.InternIRI(fmt.Sprintf("http://t/big/s%d", i)),
			P: p,
			O: dict.InternIRI(fmt.Sprintf("http://t/big/o%d", i)),
		}
	}
	for _, tr := range transports(t, 2, dict) {
		if err := tr.Send(context.Background(), 0, 0, 1, big); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		got, err := tr.Recv(context.Background(), 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if len(got) != len(big) {
			t.Errorf("%s: %d of %d triples arrived", tr.Name(), len(got), len(big))
		}
		tr.Close()
	}
}
