package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"powl/internal/datagen"
	"powl/internal/ntriples"
	"powl/internal/query"
	"powl/internal/rdf"
	"powl/internal/reason"
	"powl/internal/serve"
	"powl/internal/serve/loadgen"
	"powl/internal/vocab"
)

const ub = "http://benchmark.powl/lubm#"

// Shares of the read mix (serve.lubm.read), cumulative.
const (
	mixLookup = 0.80
	mixJoin   = 0.95
	mixScan   = 0.98 // the rest are inserts
)

// Sizes of the query pools the mixes draw from. The lookup pool is far
// larger than anything the server could keep hot per subject, so a request
// is a real index walk, not a repeat of the previous one.
const (
	lookupPool = 4096
	joinPool   = 512
)

// scanClasses are class extents of a few thousand rows each that no write of
// either workload touches, so their row counts hold for the whole run.
var scanClasses = []string{"Chair", "FullProfessor", "GraduateCourse", "Lecturer"}

// openShare is the part of the measuring time the open loop gets; the closed
// loop gets the rest.
const openShare = 0.75

// visiblePoll is how often a writer looks at the published snapshot while it
// waits for its write to show: the resolution of write_visible.
const visiblePoll = 50 * time.Microsecond

// visibleTimeout is how long a write may take to show in a published
// snapshot before it counts as failed.
const visibleTimeout = 10 * time.Second

type opClass uint8

const (
	opLookup opClass = iota // "all statements about X"
	opJoin                  // department-scoped two-pattern join
	opScan                  // class extent
	opInsert
	opDelete
	numClasses
)

var classNames = [numClasses]string{"lookup", "join", "scan", "insert", "delete"}

// queryItem is one read with the row count the KB must answer it with.
type queryItem struct {
	class opClass
	text  string
	want  int
}

// writeOp is one insert or delete request and the triple whose presence
// (insert) or absence (delete) in a published snapshot shows it took effect.
type writeOp struct {
	del   bool
	body  string
	probe rdf.Triple
	batch int // write batch inserted or deleted
	edge  int // base edge deleted or restored with it, -1 for none
}

// op is one request of a stream: a read (index into the query pool) or a
// write.
type op struct {
	class opClass
	query int
	write *writeOp
}

// stream is one connection group with its own schedule.
type stream struct {
	name  string
	conns int
	rate  float64 // open loop, requests per second
	ops   []op    // the first nOpen are the open loop's, the rest the closed loop's
	nOpen int
}

// servePlan is everything generated from the seed for a serve workload: the
// dataset, the query pool, and each stream's operation sequence.
type servePlan struct {
	ds      *datagen.Dataset
	queries []queryItem
	streams []stream
	prefill []writeOp // applied during warm-up so churn starts in steady state
	edges   []rdf.Triple
	nUniv   int
}

// fingerprint renders the plan's request sequence as text; two plans are the
// same sequence exactly when their fingerprints are equal.
func (p *servePlan) fingerprint() string {
	var b strings.Builder
	for _, w := range p.prefill {
		fmt.Fprintf(&b, "prefill %v %s\n", w.del, w.body)
	}
	for _, s := range p.streams {
		fmt.Fprintf(&b, "stream %s conns=%d rate=%g open=%d\n", s.name, s.conns, s.rate, s.nOpen)
		for _, o := range s.ops {
			if o.write != nil {
				fmt.Fprintf(&b, "%s %s\n", classNames[o.class], o.write.body)
			} else {
				fmt.Fprintf(&b, "%s %s\n", classNames[o.class], p.queries[o.query].text)
			}
		}
	}
	return b.String()
}

// planServe generates the workload from the seed. Nothing here looks at the
// system under test; expected row counts are filled in later, from the KB.
func planServe(w workload, seed int64, scale, seconds float64) *servePlan {
	ds := generate(w.dataset, seed, scale)
	rng := rand.New(rand.NewSource(seed))
	d, g := ds.Dict, ds.Graph
	typ := d.InternIRI(vocab.RDFType)
	subOrg := d.InternIRI(ub + "subOrganizationOf")
	university := d.InternIRI(ub + "University")
	department := d.InternIRI(ub + "Department")
	organization := d.InternIRI(ub + "Organization")

	subjectsOf := func(p, o rdf.ID) []rdf.ID {
		var ids []rdf.ID
		g.ForEachMatch(rdf.Wildcard, p, o, func(t rdf.Triple) bool {
			ids = append(ids, t.S)
			return true
		})
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	depts := subjectsOf(typ, department)
	univs := subjectsOf(typ, university)

	// Lookup subjects: instance resources. Under churn, organizations are
	// left out, because deleting a base subOrganizationOf edge changes what
	// is known about the organizations below it.
	isOrg := map[rdf.ID]bool{}
	for _, u := range univs {
		isOrg[u] = true
	}
	g.ForEachMatch(rdf.Wildcard, subOrg, rdf.Wildcard, func(t rdf.Triple) bool {
		isOrg[t.S] = true
		return true
	})
	var subjects []rdf.ID
	for id := range g.Subjects() {
		term := d.Term(id)
		if term.Kind != rdf.IRI || !strings.HasPrefix(term.Value, ub+"univ") {
			continue
		}
		if w.churn && isOrg[id] {
			continue
		}
		subjects = append(subjects, id)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })

	p := &servePlan{ds: ds}
	sample := func(ids []rdf.ID, n int) []rdf.ID {
		if n > len(ids) {
			n = len(ids)
		}
		out := make([]rdf.ID, n)
		for i, j := range rng.Perm(len(ids))[:n] {
			out[i] = ids[j]
		}
		return out
	}
	var lookups, joins, scans []int
	for _, id := range sample(subjects, lookupPool) {
		lookups = append(lookups, len(p.queries))
		p.queries = append(p.queries, queryItem{class: opLookup,
			text: fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o . }", d.Term(id).Value)})
	}
	for _, id := range sample(depts, joinPool) {
		joins = append(joins, len(p.queries))
		p.queries = append(p.queries, queryItem{class: opJoin,
			text: fmt.Sprintf("SELECT ?x ?c WHERE { ?x <%smemberOf> <%s> . ?x <%stakesCourse> ?c . }", ub, d.Term(id).Value, ub)})
	}
	for _, c := range scanClasses {
		scans = append(scans, len(p.queries))
		p.queries = append(p.queries, queryItem{class: opScan,
			text: fmt.Sprintf("SELECT ?x WHERE { ?x a <%s%s> . }", ub, c)})
	}
	pick := func(pool []int) int { return pool[rng.Intn(len(pool))] }

	tOpen, tClosed := seconds*openShare, seconds*(1-openShare)
	count := func(rate, t float64) int {
		n := int(rate*t + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	p.nUniv = len(univs)
	insert := func(batch, size int) *writeOp {
		body, dept := writeBatchText(batch, size, p.nUniv)
		return &writeOp{body: body, batch: batch, edge: -1,
			probe: rdf.Triple{S: d.InternIRI(dept), P: typ, O: organization}}
	}

	if !w.churn {
		// One stream, two connections, the whole mix. The closed loop runs
		// faster than the open-loop rate; its reserve is sized for several
		// times that and the loop simply ends early if it is ever used up.
		n := count(readMixRate, tOpen)
		total := n + count(readMixRate*8, tClosed)
		s := stream{name: "mix", conns: 2, rate: readMixRate, nOpen: n}
		batch := 0
		for i := 0; i < total; i++ {
			switch u := rng.Float64(); {
			case u < mixLookup:
				s.ops = append(s.ops, op{class: opLookup, query: pick(lookups)})
			case u < mixJoin:
				s.ops = append(s.ops, op{class: opJoin, query: pick(joins)})
			case u < mixScan:
				s.ops = append(s.ops, op{class: opScan, query: pick(scans)})
			default:
				s.ops = append(s.ops, op{class: opInsert, write: insert(batch, readInsertSize)})
				batch++
			}
		}
		p.streams = []stream{s}
		return p
	}

	// Churn: a lookup stream and a write stream, one connection each.
	nl := count(churnLookupRate, tOpen)
	ls := stream{name: "lookups", conns: 1, rate: churnLookupRate, nOpen: nl}
	for i, total := 0, nl+count(churnLookupRate*12, tClosed); i < total; i++ {
		ls.ops = append(ls.ops, op{class: opLookup, query: pick(lookups)})
	}

	// Base edges to delete and restore: (dept subOrganizationOf univ), each
	// probed through a research group below the department, whose edge to
	// the university exists only by transitivity.
	nw := count(churnWriteRate, tOpen)
	totalWrites := nw + count(churnWriteRate*5, tClosed)
	nEdges := totalWrites/(2*churnEdgeEvery) + 1
	var edgeProbes []rdf.Triple
	for _, dept := range sample(depts, nEdges) {
		var univ, group rdf.ID
		g.ForEachMatch(dept, subOrg, rdf.Wildcard, func(t rdf.Triple) bool { univ = t.O; return false })
		groups := subjectsOf(subOrg, dept)
		if univ == 0 || len(groups) == 0 {
			continue
		}
		group = groups[0]
		p.edges = append(p.edges, rdf.Triple{S: dept, P: subOrg, O: univ})
		edgeProbes = append(edgeProbes, rdf.Triple{S: group, P: subOrg, O: univ})
	}
	for b := 0; b < churnWindow; b++ {
		p.prefill = append(p.prefill, *insert(b, churnInsertSize))
	}
	ws := stream{name: "writes", conns: 1, rate: churnWriteRate, nOpen: nw}
	restore := -1 // edge the next insert puts back
	for j := 0; j < totalWrites; j++ {
		if j%2 == 0 {
			wo := insert(churnWindow+j/2, churnInsertSize)
			if restore >= 0 {
				wo.body += d.FormatTriple(p.edges[restore]) + " .\n"
				wo.probe, wo.edge = edgeProbes[restore], restore
				restore = -1
			}
			ws.ops = append(ws.ops, op{class: opInsert, write: wo})
			continue
		}
		nth := (j - 1) / 2
		wo := insert(nth, churnInsertSize)
		wo.del = true
		if e := nth / churnEdgeEvery; nth%churnEdgeEvery == churnEdgeEvery-1 && e < len(p.edges) {
			wo.body += d.FormatTriple(p.edges[e]) + " .\n"
			wo.probe, wo.edge = edgeProbes[e], e
			restore = e
		}
		ws.ops = append(ws.ops, op{class: opDelete, write: wo})
	}
	p.streams = []stream{ls, ws}
	return p
}

// writeBatchText renders write batch b as exactly size N-Triples lines: a
// new department of an existing university with its courses, two lecturers
// (worksFor entails memberOf) when there is room, and undergraduates
// (memberOf and takesCourse entail Person and Student). It returns the
// department's IRI. The content depends on b alone; which batch is written
// when is the seeded part.
func writeBatchText(b, size, nUniv int) (body, dept string) {
	dept = fmt.Sprintf("%suniv%d/wdept%d", ub, b%nUniv, b)
	var sb strings.Builder
	n := 0
	emit := func(s, p, o string) {
		if n < size {
			fmt.Fprintf(&sb, "<%s> <%s> <%s> .\n", s, p, o)
			n++
		}
	}
	emit(dept, vocab.RDFType, ub+"Department")
	emit(dept, ub+"subOrganizationOf", fmt.Sprintf("%suniv%d", ub, b%nUniv))
	nCourses, nLecturers := 2, 0
	if size >= 64 {
		nCourses, nLecturers = 6, 2
	}
	course := func(i int) string { return fmt.Sprintf("%s/course%d", dept, i%nCourses) }
	for i := 0; i < nCourses; i++ {
		emit(course(i), vocab.RDFType, ub+"Course")
	}
	for i := 0; i < nLecturers; i++ {
		l := fmt.Sprintf("%s/lecturer%d", dept, i)
		emit(l, vocab.RDFType, ub+"Lecturer")
		emit(l, ub+"worksFor", dept)
		emit(l, ub+"teacherOf", course(i))
	}
	for i := 0; n < size; i++ {
		s := fmt.Sprintf("%s/ug%d", dept, i)
		emit(s, vocab.RDFType, ub+"UndergraduateStudent")
		emit(s, ub+"memberOf", dept)
		emit(s, ub+"takesCourse", course(i))
		emit(s, ub+"takesCourse", course(i+1))
	}
	return sb.String(), dept
}

// ---- the system under test, as served -------------------------------------

// rig is a served KB: the server, its loopback HTTP listener, and a client.
type rig struct {
	plan   *servePlan
	w      workload
	srv    *serve.Server
	http   *http.Server
	served chan error
	client loadgen.HTTP

	mu      sync.Mutex
	live    map[int]bool // write batches currently inserted
	missing map[int]bool // base edges currently deleted
}

func serveConfig(w workload) serve.Config {
	if w.churn {
		return serve.Config{CompactMinDead: churnCompactMinDead, CompactRatio: churnCompactRatio}
	}
	return serve.Config{}
}

// setupServe is the serve set-up: generate the plan, build the KB, compute
// every query's expected row count from it, start the server behind a
// loopback listener, and warm the whole path up.
func setupServe(w workload, seed int64, scale, seconds float64) (*rig, error) {
	plan := planServe(w, seed, scale, seconds)
	kb := serve.Build(plan.ds.Dict, plan.ds.Graph, serve.BuildConfig{Prov: w.churn})
	for i := range plan.queries {
		q, err := query.Parse(plan.queries[i].text, kb.Dict)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", plan.queries[i].text, err)
		}
		plan.queries[i].want = len(q.Solve(kb.Graph).Rows)
	}
	srv, err := serve.New(kb, serveConfig(w))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	conns := 0
	for _, s := range plan.streams {
		conns += s.conns
	}
	r := &rig{plan: plan, w: w, srv: srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: loadgen.HTTP{Base: "http://" + ln.Addr().String(),
			Client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}}},
		live: map[int]bool{}, missing: map[int]bool{},
	}
	go r.serveHTTP(ln)

	if err := r.warmUp(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) serveHTTP(ln net.Listener) { r.served <- r.http.Serve(ln) }

// warmUp applies the churn prefill and sends a spread of the query pool
// through the whole served path.
func (r *rig) warmUp() error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	ctx := context.Background()
	for i := range r.plan.prefill {
		if !r.do(ctx, op{class: opInsert, write: &r.plan.prefill[i]}, sl) {
			return fmt.Errorf("prefill insert %d failed", i)
		}
	}
	for i := 0; i < 200 && i < len(r.plan.queries); i++ {
		j := (i * 37) % len(r.plan.queries)
		if !r.do(ctx, op{class: r.plan.queries[j].class, query: j}, sl) {
			return fmt.Errorf("warm-up query %q failed", r.plan.queries[j].text)
		}
	}
	return nil
}

// close stops the listener and drains the server; it returns once both have
// finished.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.http.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if c, ok := r.client.Client.Transport.(*http.Transport); ok {
		c.CloseIdleConnections()
	}
	if serr := r.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// do issues one request and checks its outcome: a read must return the row
// count the KB was computed to give, a write must be accepted and then show
// (or, for a delete, stop showing) in a published snapshot.
func (r *rig) do(ctx context.Context, o op, sl *sleeper) bool {
	if o.write == nil {
		q := r.plan.queries[o.query]
		rows, err := r.client.Query(ctx, q.text)
		return err == nil && rows == q.want
	}
	w := o.write
	var err error
	if w.del {
		err = r.client.Delete(ctx, w.body)
	} else {
		err = r.client.Insert(ctx, w.body)
	}
	if err != nil {
		return false
	}
	deadline := time.Now().Add(visibleTimeout)
	for r.srv.Snapshot().Has(w.probe) == w.del {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		sl.until(ctx, time.Now().Add(visiblePoll))
	}
	r.mu.Lock()
	if w.del {
		delete(r.live, w.batch)
		if w.edge >= 0 {
			r.missing[w.edge] = true
		}
	} else {
		r.live[w.batch] = true
		if w.edge >= 0 {
			delete(r.missing, w.edge)
		}
	}
	r.mu.Unlock()
	return true
}

// phaseResult is what an open loop found: latencies from due times per
// class and generator lateness of the requests that succeeded, and the
// attempted/failed counts.
type phaseResult struct {
	lat       [numClasses][]time.Duration
	late      []time.Duration
	attempted int
	failed    int
}

// openPhase runs every stream's open loop at once.
func (r *rig) openPhase(ctx context.Context) (phaseResult, error) {
	// A system that falls hopelessly behind must not hold the run forever:
	// the schedule gets its own length again to catch up, then the rest of
	// it counts as failed.
	var longest time.Duration
	for _, s := range r.plan.streams {
		if d := time.Duration(float64(s.nOpen) / s.rate * float64(time.Second)); d > longest {
			longest = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 2*longest+visibleTimeout)
	defer cancel()

	results := make([]openLoopResult, len(r.plan.streams))
	errs := make([]error, len(r.plan.streams))
	oks := make([][]bool, len(r.plan.streams))
	var wg sync.WaitGroup
	for si := range r.plan.streams {
		s := &r.plan.streams[si]
		oks[si] = make([]bool, s.nOpen)
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / s.rate)
			results[si], errs[si] = runOpenLoop(ctx, s.nOpen, interval, s.conns, func(i int, sl *sleeper) {
				oks[si][i] = r.do(ctx, s.ops[i], sl)
			})
		}(si)
	}
	wg.Wait()

	var pr phaseResult
	if err := errors.Join(errs...); err != nil {
		return pr, err
	}
	for si, s := range r.plan.streams {
		for i := 0; i < s.nOpen; i++ {
			pr.attempted++
			if !results[si].done[i] || !oks[si][i] {
				pr.failed++
				continue
			}
			c := s.ops[i].class
			pr.lat[c] = append(pr.lat[c], results[si].latency[i])
			pr.late = append(pr.late, results[si].late[i])
		}
	}
	return pr, nil
}

// closedPhase continues every stream from where its open loop ended, each
// connection issuing its next request as soon as the last completed. It
// returns the requests completed and failed and the sustained rate, the sum
// of the streams' rates.
func (r *rig) closedPhase(ctx context.Context, d time.Duration, rep *report) (completed, failed int, rate float64, err error) {
	type result struct {
		n, failed int
		rate      float64
		err       error
	}
	results := make([]result, len(r.plan.streams))
	var wg sync.WaitGroup
	for si := range r.plan.streams {
		s := &r.plan.streams[si]
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var mu sync.Mutex
			at, bad := s.nOpen, 0
			n, elapsed, err := runClosedLoop(ctx, d, s.conns, func() (func(*sleeper), bool) {
				mu.Lock()
				defer mu.Unlock()
				if at >= len(s.ops) {
					return nil, false
				}
				o := s.ops[at]
				at++
				return func(sl *sleeper) {
					if !r.do(ctx, o, sl) {
						mu.Lock()
						bad++
						mu.Unlock()
					}
				}, true
			})
			results[si] = result{n: n, failed: bad, rate: float64(n-bad) / elapsed.Seconds(), err: err}
		}(si)
	}
	wg.Wait()
	for si, res := range results {
		rep.detail("closed_"+r.plan.streams[si].name+"_per_s", res.rate, "1/s")
		completed += res.n
		failed += res.failed
		rate += res.rate
		err = errors.Join(err, res.err)
	}
	return completed, failed, rate, err
}

// checkDrained is the churn workload's final check: after the server has
// drained, the live triples of its last snapshot must be exactly the
// from-scratch closure of the base that survived (generated base, minus the
// edges still deleted, plus the batches still inserted).
func (r *rig) checkDrained() error {
	d := r.plan.ds.Dict
	gone := map[rdf.Triple]bool{}
	for e := range r.missing {
		gone[r.plan.edges[e]] = true
	}
	base := rdf.NewGraphCap(r.plan.ds.Graph.Len())
	for _, t := range r.plan.ds.Graph.Triples() {
		if !gone[t] {
			base.Add(t)
		}
	}
	live := make([]int, 0, len(r.live))
	for b := range r.live {
		live = append(live, b)
	}
	sort.Ints(live)
	for _, b := range live {
		body, _ := writeBatchText(b, churnInsertSize, r.plan.nUniv)
		ts, err := parseTriples(body, d)
		if err != nil {
			return err
		}
		base.AddAll(ts)
	}
	want := serve.Build(d, base, serve.BuildConfig{}).Graph
	got := r.srv.Snapshot().Triples()
	if len(got) != want.Len() {
		return fmt.Errorf("after drain the server holds %d live triples, the closure of the surviving base has %d", len(got), want.Len())
	}
	for _, t := range got {
		if !want.Has(t) {
			return fmt.Errorf("after drain the server holds %s, which the surviving base does not entail", d.FormatTriple(t))
		}
	}
	return nil
}

// parseTriples reads an N-Triples body into interned triples, as the
// server's write handlers do.
func parseTriples(body string, d *rdf.Dict) ([]rdf.Triple, error) {
	var ts []rdf.Triple
	rd := ntriples.NewReader(strings.NewReader(body))
	for {
		st, err := rd.Next()
		if err == io.EOF {
			return ts, nil
		}
		if err != nil {
			return nil, err
		}
		ts = append(ts, rdf.Triple{S: d.Intern(st.S), P: d.Intern(st.P), O: d.Intern(st.O)})
	}
}

// reportLatency adds one class's open-loop summary to the detail metrics and
// returns it.
func reportLatency(rep *report, name string, ds []time.Duration) latencySummary {
	s := summarize(ds)
	rep.detail(name+"_p50_ms", s.p50, "ms")
	rep.detail(name+"_tail_ms", s.tail, "ms")
	rep.detail(name+"_tail_pct", s.tailPct, "%")
	rep.detail(name+"_n", float64(s.n), "count")
	return s
}

// runServe is the untraced run: open loop at the fixed rates, then closed
// loop, then drain and check.
func runServe(r *rig, seconds float64, rep *report) error {
	ctx := context.Background()
	pr, err := r.openPhase(ctx)
	if err != nil {
		return err
	}
	rep.attempted += pr.attempted
	if pr.failed > 0 {
		rep.failN(pr.failed, "open loop: %d of %d requests failed, timed out or answered wrongly", pr.failed, pr.attempted)
	}
	lookups := append(append([]time.Duration(nil), pr.lat[opLookup]...), pr.lat[opJoin]...)
	writes := append(append([]time.Duration(nil), pr.lat[opInsert]...), pr.lat[opDelete]...)
	lk := reportLatency(rep, "lookup", lookups)
	if len(pr.lat[opScan]) > 0 {
		reportLatency(rep, "scan", pr.lat[opScan])
	}
	wv := reportLatency(rep, "write_visible", writes)
	if r.w.churn {
		reportLatency(rep, "insert_visible", pr.lat[opInsert])
		reportLatency(rep, "delete_visible", pr.lat[opDelete])
	}
	late := summarize(pr.late)
	rep.detail("generator_late_p50_ms", late.p50, "ms")
	rep.detail("generator_late_tail_ms", late.tail, "ms")

	n, bad, sustained, err := r.closedPhase(ctx, time.Duration(seconds*(1-openShare)*float64(time.Second)), rep)
	if err != nil {
		return err
	}
	rep.attempted += n
	if bad > 0 {
		rep.failN(bad, "closed loop: %d of %d requests failed", bad, n)
	}
	rep.detail("sustained_ops_per_s", sustained, "1/s")

	st := r.srv.Stats()
	if err := r.close(); err != nil {
		rep.fail("shutdown: %v", err)
	}
	rep.detail("server_shed", float64(st.Shed+st.QueueTimeout), "count")
	rep.detail("compactions", float64(r.srv.Stats().Compactions), "count")
	if r.w.churn {
		rep.attempted++
		if err := r.checkDrained(); err != nil {
			rep.fail("%v", err)
		}
		rep.e2e["op_p50_ms"] = wv.p50
	} else {
		rep.e2e["op_p50_ms"] = lk.p50
	}
	return nil
}

// ---- traced run -----------------------------------------------------------

// replay applies the open loop's request sequence directly to the layer
// functions on a private KB, one request after another with no server, no
// HTTP and no pacing, with a span around each call. Requests of the two
// churn streams are merged in due-time order.
func replay(tr *tracer, w workload, plan *servePlan, rep *report) {
	kb := serve.Build(plan.ds.Dict, plan.ds.Graph, serve.BuildConfig{Prov: w.churn})
	g, d := kb.Graph, kb.Dict
	cfg := serveConfig(w)
	ret := reason.NewRetractor(kb.Rules)
	ctx := context.Background()

	type due struct {
		at float64
		o  op
	}
	var seq []due
	for _, s := range plan.streams {
		for i := 0; i < s.nOpen; i++ {
			seq = append(seq, due{at: float64(i) / s.rate, o: s.ops[i]})
		}
	}
	sort.SliceStable(seq, func(i, j int) bool { return seq[i].at < seq[j].at })

	var parseQ, insertClose, retract, snapshot, compacts, lookupTotal []time.Duration
	var solve [numClasses][]time.Duration
	var rows [numClasses]int
	var ntParse time.Duration
	var statements, overdeleted, restored int

	apply := func(wo *writeOp, parent int) rdf.Snapshot {
		id := tr.begin("ntriples.parse", parent, 0)
		ts, err := parseTriples(wo.body, d)
		ntParse += tr.end(id).dur()
		statements += len(ts)
		if err != nil {
			rep.fail("replay: %v", err)
			return g.Snapshot()
		}
		if wo.del {
			id = tr.begin("reason.retract", parent, 0)
			st := ret.Retract(g, ts)
			retract = append(retract, tr.end(id).dur())
			overdeleted += st.Overdeleted
			restored += st.Reinstated + st.Rederived
			// The server's compaction rule (serve.maybeCompact).
			if dead := g.Dead(); cfg.CompactMinDead > 0 && dead >= cfg.CompactMinDead &&
				float64(dead) >= cfg.CompactRatio*float64(g.Len()) {
				id = tr.begin("rdf.compact", parent, 0)
				g = g.Compact()
				compacts = append(compacts, tr.end(id).dur())
			}
		} else {
			id = tr.begin("reason.insert_close", parent, 0)
			seeds := ts[:0]
			for _, t := range ts {
				if g.Add(t) {
					seeds = append(seeds, t)
				}
			}
			if len(seeds) > 0 {
				reason.Forward{}.MaterializeFrom(g, kb.Rules, seeds)
			}
			insertClose = append(insertClose, tr.end(id).dur())
		}
		id = tr.begin("rdf.snapshot", parent, 0)
		sn := g.Snapshot()
		snapshot = append(snapshot, tr.end(id).dur())
		if sn.Has(wo.probe) == wo.del {
			rep.fail("replay: write did not take effect")
		}
		return sn
	}

	for i := range plan.prefill {
		apply(&plan.prefill[i], -1)
	}
	insertClose, snapshot, ntParse, statements = nil, nil, 0, 0
	sn := g.Snapshot()
	for _, e := range seq {
		rep.attempted++
		root := tr.begin("op."+classNames[e.o.class], -1, 0)
		if e.o.write != nil {
			sn = apply(e.o.write, root)
			tr.end(root)
			continue
		}
		qi := plan.queries[e.o.query]
		id := tr.begin("query.parse", root, 0)
		q, err := query.Parse(qi.text, d)
		pd := tr.end(id).dur()
		if err != nil {
			rep.fail("replay: %v", err)
			tr.end(root)
			continue
		}
		id = tr.begin("query.solve", root, 0)
		res, err := q.SolveContext(ctx, sn)
		sd := tr.end(id).dur()
		tr.end(root)
		if err != nil || len(res.Rows) != qi.want {
			rep.fail("replay: %q returned %d rows, want %d (%v)", qi.text, len(res.Rows), qi.want, err)
			continue
		}
		parseQ = append(parseQ, pd)
		solve[qi.class] = append(solve[qi.class], sd)
		rows[qi.class] += len(res.Rows)
		if qi.class != opScan {
			lookupTotal = append(lookupTotal, pd+sd)
		}
	}

	p50us := func(ds []time.Duration) float64 { return summarize(ds).p50 * 1000 }
	mean := func(total, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	rep.layer["query.parse_us"] = p50us(parseQ)
	rep.layer["query.solve_lookup_us"] = p50us(solve[opLookup])
	rep.layer["query.solve_join_us"] = p50us(solve[opJoin])
	rep.layer["query.solve_scan_us"] = p50us(solve[opScan])
	rep.layer["query.rows_lookup"] = mean(rows[opLookup], len(solve[opLookup]))
	rep.layer["query.rows_join"] = mean(rows[opJoin], len(solve[opJoin]))
	rep.layer["query.rows_scan"] = mean(rows[opScan], len(solve[opScan]))
	rep.layer["ntriples.parse_s"] = secs(ntParse)
	rep.layer["ntriples.statements"] = float64(statements)
	rep.layer["reason.insert_close_us"] = p50us(insertClose)
	rep.layer["reason.retract_us"] = p50us(retract)
	if overdeleted > 0 {
		rep.layer["reason.rederive_ratio"] = float64(restored) / float64(overdeleted)
	}
	rep.layer["rdf.snapshot_ns"] = p50us(snapshot) * 1000
	rep.layer["rdf.compact_count"] = float64(len(compacts))
	var total, worst time.Duration
	for _, c := range compacts {
		total += c
		if c > worst {
			worst = c
		}
	}
	rep.layer["rdf.compact_total_ms"] = ms(total)
	rep.layer["rdf.compact_max_ms"] = ms(worst)
	rep.layer["query.lookup_us"] = p50us(lookupTotal)
}

// traceServe is the traced run: the served open loop gives the end-to-end
// side (tails, scan median, admission counters), the replay gives the layer
// side, and the difference of the two lookup medians is what HTTP, admission
// and encoding add.
func traceServe(r *rig, tr *tracer, rep *report) error {
	pr, err := r.openPhase(context.Background())
	if err != nil {
		return err
	}
	rep.attempted += pr.attempted
	if pr.failed > 0 {
		rep.failN(pr.failed, "open loop: %d of %d requests failed", pr.failed, pr.attempted)
	}
	st := r.srv.Stats()
	if err := r.close(); err != nil {
		rep.fail("shutdown: %v", err)
	}
	lk := summarize(append(append([]time.Duration(nil), pr.lat[opLookup]...), pr.lat[opJoin]...))
	rep.layer["serve.lookup_tail_ms"] = lk.tail
	rep.layer["serve.scan_p50_ms"] = summarize(pr.lat[opScan]).p50
	rep.layer["serve.write_visible_tail_ms"] = summarize(append(append([]time.Duration(nil), pr.lat[opInsert]...), pr.lat[opDelete]...)).tail
	rep.layer["serve.shed"] = float64(st.Shed)
	rep.layer["serve.queue_timeout"] = float64(st.QueueTimeout)

	replay(tr, r.w, r.plan, rep)
	rep.layer["serve.overhead_us"] = lk.p50*1000 - rep.layer["query.lookup_us"]
	return nil
}
