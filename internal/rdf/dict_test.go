package rdf

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDictInternAssignsDenseIDs(t *testing.T) {
	d := NewDict()
	a := d.InternIRI("http://example.org/a")
	b := d.InternIRI("http://example.org/b")
	if a != 1 || b != 2 {
		t.Fatalf("expected IDs 1,2; got %d,%d", a, b)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestDictInternIsIdempotent(t *testing.T) {
	d := NewDict()
	a := d.InternIRI("http://example.org/a")
	if again := d.InternIRI("http://example.org/a"); again != a {
		t.Fatalf("re-intern returned %d, want %d", again, a)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestDictKindsAreDistinct(t *testing.T) {
	d := NewDict()
	iri := d.InternIRI("x")
	lit := d.InternLiteral("x")
	blank := d.InternBlank("x")
	if iri == lit || lit == blank || iri == blank {
		t.Fatalf("same value in different kinds must get distinct IDs: %d %d %d", iri, lit, blank)
	}
}

func TestDictTermRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []Term{
		{Kind: IRI, Value: "http://example.org/x"},
		{Kind: Literal, Value: `"hello"`},
		{Kind: Literal, Value: `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{Kind: Blank, Value: "b0"},
	}
	for _, tm := range terms {
		id := d.Intern(tm)
		if got := d.Term(id); got != tm {
			t.Errorf("Term(Intern(%v)) = %v", tm, got)
		}
	}
}

func TestDictLookupDoesNotIntern(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup(Term{Kind: IRI, Value: "missing"}); ok {
		t.Fatal("Lookup found a term that was never interned")
	}
	if d.Len() != 0 {
		t.Fatalf("Lookup interned a term; Len = %d", d.Len())
	}
	id := d.InternIRI("present")
	got, ok := d.Lookup(Term{Kind: IRI, Value: "present"})
	if !ok || got != id {
		t.Fatalf("Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
}

func TestDictTermPanicsOnWildcard(t *testing.T) {
	d := NewDict()
	defer func() {
		if recover() == nil {
			t.Fatal("Term(Wildcard) did not panic")
		}
	}()
	d.Term(Wildcard)
}

func TestDictTermPanicsOutOfRange(t *testing.T) {
	d := NewDict()
	d.InternIRI("only")
	defer func() {
		if recover() == nil {
			t.Fatal("Term(99) did not panic")
		}
	}()
	d.Term(99)
}

// TestDictConcurrentIntern hammers the dictionary from many goroutines and
// checks the intern/lookup bijection afterwards.
func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				// Heavy overlap across goroutines: only 100 distinct terms.
				ids[g][i] = d.InternIRI(fmt.Sprintf("http://x/%d", i%100))
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
	// All goroutines must have observed identical IDs per term.
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d saw ID %d for term %d, goroutine 0 saw %d", g, ids[g][i], i, ids[0][i])
			}
		}
	}
}

// TestDictInternAllMatchesIntern: InternAll assigns what a loop of Intern
// assigns — over terms already present, duplicates within one call and one
// value under several kinds — and keeps its own copy of every new value.
func TestDictInternAllMatchesIntern(t *testing.T) {
	buf := []byte("http://x/ahttp://x/bb0")
	view := func(lo, hi int) string { return unsafe.String(&buf[lo], hi-lo) }
	ts := []Term{
		{Kind: IRI, Value: view(0, 10)}, {Kind: IRI, Value: "pre"}, {Kind: Blank, Value: view(20, 22)},
		{Kind: IRI, Value: view(10, 20)}, {Kind: IRI, Value: view(0, 10)}, {Kind: Literal, Value: view(20, 22)},
		{Kind: Blank, Value: view(20, 22)},
	}
	ref, d := NewDict(), NewDict()
	ref.InternIRI("pre")
	d.InternIRI("pre")
	var want []ID
	for _, tm := range ts {
		tm.Value = strings.Clone(tm.Value)
		want = append(want, ref.Intern(tm))
	}
	got := d.InternAll(ts, []ID{42})
	if fmt.Sprint(got) != fmt.Sprint(append([]ID{42}, want...)) {
		t.Fatalf("InternAll = %v, a loop of Intern gives %v after the prefix 42", got, want)
	}
	for i := range buf {
		buf[i] = '#'
	}
	for id := ID(1); int(id) <= ref.Len(); id++ {
		if d.Term(id) != ref.Term(id) {
			t.Fatalf("term %d is %v, want %v", id, d.Term(id), ref.Term(id))
		}
	}
	if d.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", d.Len(), ref.Len())
	}
}

// TestDictTermViewUnderInterning reads term views while other goroutines
// intern, one term at a time and in batches: every entry of every view
// equals the term the dictionary ends up with under that ID.
func TestDictTermViewUnderInterning(t *testing.T) {
	d := NewDict()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if g%2 == 0 {
					d.InternIRI(fmt.Sprintf("http://x/%d", i))
					continue
				}
				d.InternAll([]Term{{Kind: Blank, Value: fmt.Sprint(i)}, {Kind: IRI, Value: fmt.Sprintf("http://x/%d", i)}}, nil)
			}
		}(g)
	}
	seen := make([][]Term, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range seen {
			seen[i] = d.TermView()
			n := 0
			for _, tm := range seen[i] {
				n += len(tm.Value) // read every entry while the writers append
			}
			if n < len(seen[i]) {
				t.Errorf("view of %d terms holds %d bytes", len(seen[i]), n)
			}
		}
	}()
	wg.Wait()
	for _, v := range seen {
		for i, tm := range v {
			if got := d.Term(ID(i + 1)); got != tm {
				t.Fatalf("view entry %d is %v, the dictionary has %v", i, tm, got)
			}
		}
	}
}

// TestDictBijectionProperty property-tests that Intern∘Term is the identity
// for arbitrary term values.
func TestDictBijectionProperty(t *testing.T) {
	d := NewDict()
	f := func(value string, kind uint8) bool {
		tm := Term{Kind: TermKind(kind % 3), Value: value}
		id := d.Intern(tm)
		return d.Term(id) == tm && d.Intern(tm) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		in   Term
		want string
	}{
		{Term{Kind: IRI, Value: "http://x/a"}, "<http://x/a>"},
		{Term{Kind: Blank, Value: "b1"}, "_:b1"},
		{Term{Kind: Literal, Value: `"v"`}, `"v"`},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "IRI" || Literal.String() != "Literal" || Blank.String() != "Blank" {
		t.Error("TermKind.String misnames a kind")
	}
	if TermKind(9).String() != "TermKind(9)" {
		t.Errorf("unknown kind printed as %q", TermKind(9).String())
	}
}

func TestFormatTriple(t *testing.T) {
	d := NewDict()
	s := d.InternIRI("http://x/s")
	p := d.InternIRI("http://x/p")
	o := d.InternLiteral(`"v"`)
	got := d.FormatTriple(Triple{s, p, o})
	want := `<http://x/s> <http://x/p> "v"`
	if got != want {
		t.Fatalf("FormatTriple = %q, want %q", got, want)
	}
}

func TestTripleLess(t *testing.T) {
	a := Triple{1, 2, 3}
	if !a.Less(Triple{2, 0, 0}) || !a.Less(Triple{1, 3, 0}) || !a.Less(Triple{1, 2, 4}) {
		t.Error("Less misorders on some position")
	}
	if a.Less(a) {
		t.Error("Less must be irreflexive")
	}
}
