package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powl/internal/rdf"
	"powl/internal/vocab"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestServeDeleteVisibility deletes one student's type assertion and checks
// the DRed writer retracts its derived Person membership too — while a
// snapshot pinned before the delete keeps answering its original epoch.
func TestServeDeleteVisibility(t *testing.T) {
	kb := testKB(5)
	s := newTestServer(t, kb, Config{})
	defer s.Shutdown(context.Background())
	d := kb.Dict
	typ := d.InternIRI(vocab.RDFType)
	student := d.InternIRI("http://t/Student")
	person := d.InternIRI("http://t/Person")
	victim := d.InternIRI("http://t/s0")

	pinned := s.Snapshot()
	if !pinned.Has(rdf.Triple{S: victim, P: typ, O: person}) {
		t.Fatal("closure missing derived person triple")
	}

	if err := s.Delete(context.Background(), []rdf.Triple{{S: victim, P: typ, O: student}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	waitFor(t, "delete to publish", func() bool {
		resp, err := s.Query(context.Background(), personQuery)
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		return len(resp.Result.Rows) == 4
	})
	sn := s.Snapshot()
	if sn.Has(rdf.Triple{S: victim, P: typ, O: student}) ||
		sn.Has(rdf.Triple{S: victim, P: typ, O: person}) {
		t.Fatal("deleted assertion or its inference still visible")
	}

	// The pre-delete snapshot is pinned to its epoch: the deletion must not
	// reach into it.
	if !pinned.Has(rdf.Triple{S: victim, P: typ, O: student}) ||
		!pinned.Has(rdf.Triple{S: victim, P: typ, O: person}) {
		t.Fatal("pinned pre-delete snapshot lost triples")
	}

	st := s.Stats()
	if st.DeleteBatches != 1 || st.DeletedTriples != 1 || st.RetractedTriples < 2 {
		t.Fatalf("stats = %+v, want 1 delete batch, 1 deleted, >=2 retracted", st)
	}
}

// TestServeWriterPanicRecovery poisons one batch so the writer panics after
// its raw mutations: the previously published snapshot must stay untouched,
// the queue must keep draining (later batches apply), and Shutdown must
// still satisfy the drain contract.
func TestServeWriterPanicRecovery(t *testing.T) {
	kb := testKB(3)
	s := newTestServer(t, kb, Config{})
	d := kb.Dict
	typ := d.InternIRI(vocab.RDFType)
	student := d.InternIRI("http://t/Student")
	poison := d.InternIRI("http://t/poison")
	clean := d.InternIRI("http://t/clean")
	epoch0 := s.Snapshot().Watermark()

	s.writerHook = func(b writeBatch) {
		for _, tr := range b.ts {
			if tr.S == poison {
				panic("injected writer poison")
			}
		}
	}
	if err := s.Insert(context.Background(), []rdf.Triple{{S: poison, P: typ, O: student}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	waitFor(t, "writer panic", func() bool { return s.Stats().WriterPanics == 1 })

	// The panic struck after the raw insert but before publication: the
	// served epoch is exactly what it was.
	if sn := s.Snapshot(); sn.Watermark() != epoch0 {
		t.Fatalf("published epoch moved across a panicked batch: %d -> %d", epoch0, sn.Watermark())
	}
	if s.Snapshot().Has(rdf.Triple{S: poison, P: typ, O: student}) {
		t.Fatal("half-applied batch visible in the published snapshot")
	}

	// The queue is not wedged: a later clean batch applies and publishes.
	if err := s.Insert(context.Background(), []rdf.Triple{{S: clean, P: typ, O: student}}); err != nil {
		t.Fatalf("insert after panic: %v", err)
	}
	waitFor(t, "clean batch to publish", func() bool {
		return s.Snapshot().Has(rdf.Triple{S: clean, P: typ, O: student})
	})

	// Deletes survive a panicked predecessor the same way.
	if err := s.Delete(context.Background(), []rdf.Triple{{S: clean, P: typ, O: student}}); err != nil {
		t.Fatalf("delete after panic: %v", err)
	}
	waitFor(t, "delete after panic to publish", func() bool {
		return !s.Snapshot().Has(rdf.Triple{S: clean, P: typ, O: student})
	})

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()
	if st.WriterPanics != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want WriterPanics=1 Dropped=0", st)
	}
}

// TestServeCompaction drives enough deletions through a prov-enabled KB to
// trip the compaction threshold and checks the swapped-in graph serves the
// same answers — including Explain, which reads through the snapshot.
func TestServeCompaction(t *testing.T) {
	dict := rdf.NewDict()
	base := rdf.NewGraph()
	typ := dict.InternIRI(vocab.RDFType)
	sub := dict.InternIRI(vocab.RDFSSubClassOf)
	student := dict.InternIRI("http://t/Student")
	person := dict.InternIRI("http://t/Person")
	base.Add(rdf.Triple{S: student, P: sub, O: person})
	const n = 40
	for i := 0; i < n; i++ {
		base.Add(rdf.Triple{S: dict.InternIRI(fmt.Sprintf("http://t/s%d", i)), P: typ, O: student})
	}
	kb := Build(dict, base, BuildConfig{Prov: true})
	s := newTestServer(t, kb, Config{CompactRatio: 0.1, CompactMinDead: 1})
	defer s.Shutdown(context.Background())

	var batch []rdf.Triple
	for i := 0; i < n/2; i++ {
		batch = append(batch, rdf.Triple{S: dict.InternIRI(fmt.Sprintf("http://t/s%d", i)), P: typ, O: student})
	}
	if err := s.Delete(context.Background(), batch); err != nil {
		t.Fatalf("delete: %v", err)
	}
	waitFor(t, "compaction", func() bool { return s.Stats().Compactions >= 1 })

	resp, err := s.Query(context.Background(), personQuery)
	if err != nil || len(resp.Result.Rows) != n/2 {
		t.Fatalf("post-compaction query: rows=%d err=%v", len(resp.Result.Rows), err)
	}
	if s.Snapshot().Dead() != 0 {
		t.Fatalf("compacted snapshot still has %d tombstones", s.Snapshot().Dead())
	}
	// Lineage survived the offset remap: a surviving derived triple explains.
	stmt := fmt.Sprintf("<http://t/s%d> <%s> <http://t/Person> .", n-1, vocab.RDFType)
	er, err := s.Explain(context.Background(), stmt, 0)
	if err != nil {
		t.Fatalf("explain after compaction: %v", err)
	}
	if er.Doc.Rule == "" || len(er.Doc.Premises) == 0 {
		t.Fatalf("explanation lost its derivation after compaction: %+v", er.Doc)
	}

	// Inserts keep working against the swapped graph, including re-adding a
	// previously deleted individual.
	victim := dict.InternIRI("http://t/s0")
	if err := s.Insert(context.Background(), []rdf.Triple{{S: victim, P: typ, O: student}}); err != nil {
		t.Fatalf("insert after compaction: %v", err)
	}
	waitFor(t, "re-insert to publish", func() bool {
		return s.Snapshot().Has(rdf.Triple{S: victim, P: typ, O: person})
	})
}

// TestHTTPDeleteEndpoint drives /delete end to end and checks the stats
// surface reports it.
func TestHTTPDeleteEndpoint(t *testing.T) {
	kb := testKB(4)
	s := newTestServer(t, kb, Config{})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := "<http://t/s1> <" + vocab.RDFType + "> <http://t/Student> .\n"
	resp, err := srv.Client().Post(srv.URL+"/delete", "application/n-triples", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post /delete: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/delete status = %d", resp.StatusCode)
	}
	d := kb.Dict
	tr := rdf.Triple{
		S: d.InternIRI("http://t/s1"),
		P: d.InternIRI(vocab.RDFType),
		O: d.InternIRI("http://t/Student"),
	}
	waitFor(t, "http delete to publish", func() bool { return !s.Snapshot().Has(tr) })
	if st := s.Stats(); st.DeleteBatches != 1 || st.DeletedTriples != 1 {
		t.Fatalf("stats = %+v, want one delete batch", st)
	}
}
