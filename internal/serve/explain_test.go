package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"powl/internal/rdf"
	"powl/internal/vocab"
)

// testKBProv is testKB with the provenance side-column on: the subclass
// closure derives (si type Person) from (si type Student) under rdfs9-style
// rules, so every individual has a one-level derivation to explain.
func testKBProv(nStudents int) *KB {
	dict := rdf.NewDict()
	base := rdf.NewGraph()
	typ := dict.InternIRI(vocab.RDFType)
	sub := dict.InternIRI(vocab.RDFSSubClassOf)
	student := dict.InternIRI("http://t/Student")
	person := dict.InternIRI("http://t/Person")
	base.Add(rdf.Triple{S: student, P: sub, O: person})
	for i := 0; i < nStudents; i++ {
		s := dict.InternIRI(fmt.Sprintf("http://t/s%d", i))
		base.Add(rdf.Triple{S: s, P: typ, O: student})
	}
	return Build(dict, base, BuildConfig{Prov: true})
}

func TestServeExplainDerivedTriple(t *testing.T) {
	s := newTestServer(t, testKBProv(3), Config{})
	defer s.Shutdown(context.Background())

	resp, err := s.Explain(context.Background(),
		`<http://t/s0> <`+vocab.RDFType+`> <http://t/Person> .`, 0)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	doc := resp.Doc
	if doc == nil || doc.Rule == "" {
		t.Fatalf("expected a derived root, got %+v", doc)
	}
	if len(doc.Premises) == 0 {
		t.Fatal("derived root has no premises")
	}
	// The premise chain must bottom out in asserted triples.
	var leaves int
	var walk func(d *rdf.ExplainDoc)
	walk = func(d *rdf.ExplainDoc) {
		if d.Rule == "" {
			leaves++
		}
		for _, p := range d.Premises {
			walk(p)
		}
	}
	walk(doc)
	if leaves == 0 {
		t.Fatal("no asserted leaves in the explanation")
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Completed != 1 {
		t.Fatalf("explain not accounted: %+v", st)
	}
}

func TestServeExplainMissAndNoProv(t *testing.T) {
	s := newTestServer(t, testKBProv(1), Config{})
	defer s.Shutdown(context.Background())
	if _, err := s.Explain(context.Background(),
		`<http://t/absent> <http://t/p> <http://t/absent> .`, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent triple: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Explain(context.Background(), `not a triple`, 0); err == nil ||
		errors.Is(err, ErrNotFound) {
		t.Fatalf("malformed statement: err = %v, want parse error", err)
	}

	plain := newTestServer(t, testKB(1), Config{})
	defer plain.Shutdown(context.Background())
	if _, err := plain.Explain(context.Background(),
		`<http://t/s0> <`+vocab.RDFType+`> <http://t/Person> .`, 0); !errors.Is(err, ErrNoProvenance) {
		t.Fatalf("no-prov KB: err = %v, want ErrNoProvenance", err)
	}
}

// TestServeExplainCoversInserts: a triple derived by the live writer path
// (incremental engine) must be explainable once its epoch is published.
func TestServeExplainCoversInserts(t *testing.T) {
	s := newTestServer(t, testKBProv(1), Config{})
	defer s.Shutdown(context.Background())
	d := s.Dict()
	typ := d.InternIRI(vocab.RDFType)
	student := d.InternIRI("http://t/Student")
	fresh := d.InternIRI("http://t/late")
	if err := s.Insert(context.Background(), []rdf.Triple{{S: fresh, P: typ, O: student}}); err != nil {
		t.Fatal(err)
	}
	stmt := `<http://t/late> <` + vocab.RDFType + `> <http://t/Person> .`
	deadline := 200
	for ; deadline > 0; deadline-- {
		if _, err := s.Explain(context.Background(), stmt, 0); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if deadline == 0 {
		t.Fatal("inserted individual's derived type never became explainable")
	}
	resp, err := s.Explain(context.Background(), stmt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if doc := resp.Doc; doc.Rule == "" || len(doc.Premises) == 0 {
		t.Fatalf("live-derived triple not explained: %+v", doc)
	}
}

func TestHTTPExplainEndpoint(t *testing.T) {
	s := newTestServer(t, testKBProv(2), Config{})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stmt := `<http://t/s1> <` + vocab.RDFType + `> <http://t/Person> .`
	res, err := srv.Client().Post(srv.URL+"/explain", "text/plain", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	var reply struct {
		Explanation *rdf.ExplainDoc `json:"explanation"`
		Epoch       int             `json:"epoch"`
	}
	if err := json.NewDecoder(res.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Explanation == nil || reply.Explanation.Rule == "" || len(reply.Explanation.Premises) == 0 {
		t.Fatalf("bad explanation payload: %+v", reply.Explanation)
	}

	miss, err := srv.Client().Post(srv.URL+"/explain", "text/plain",
		strings.NewReader(`<http://t/none> <http://t/p> <http://t/none> .`))
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != 404 {
		t.Fatalf("missing triple: status %d, want 404", miss.StatusCode)
	}

	bad, err := srv.Client().Post(srv.URL+"/explain?depth=x", "text/plain", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("bad depth: status %d, want 400", bad.StatusCode)
	}
}

// TestStatsLatencyPercentiles: the query-latency percentiles must populate
// from real traffic without a registry, be ordered, and round-trip through
// the /stats JSON.
func TestStatsLatencyPercentiles(t *testing.T) {
	s := newTestServer(t, testKB(10), Config{})
	defer s.Shutdown(context.Background())
	for i := 0; i < 20; i++ {
		if _, err := s.Query(context.Background(), personQuery); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.QueryP50Ms <= 0 || st.QueryP95Ms <= 0 || st.QueryP99Ms <= 0 {
		t.Fatalf("percentiles not populated: %+v", st)
	}
	if st.QueryP50Ms > st.QueryP95Ms || st.QueryP95Ms > st.QueryP99Ms {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v",
			st.QueryP50Ms, st.QueryP95Ms, st.QueryP99Ms)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"query_p50_ms", "query_p95_ms", "query_p99_ms"} {
		v, ok := m[k].(float64)
		if !ok || v <= 0 {
			t.Fatalf("/stats %s = %v, want positive number", k, m[k])
		}
	}
}
