package partition

import (
	"fmt"
	"io"

	"powl/internal/ntriples"
	"powl/internal/rdf"
	"powl/internal/vocab"
)

// The paper points out that the hash and domain-specific policies "can be
// implemented as a streaming algorithm, i.e., the whole data graph need not
// be loaded into the memory for the partitioning" (§III-A). This file is
// that implementation: triples flow from an N-Triples reader straight into
// per-partition sinks; only the assigner's per-key state is held in memory
// (none at all for hashing).

// StreamAssigner maps a resource to its owning partition on the fly.
type StreamAssigner interface {
	Name() string
	// Assign returns the partition in [0, k) owning the resource.
	Assign(term rdf.Term) int
}

// HashAssigner is the stateless streaming form of HashPolicy.
type HashAssigner struct {
	K int
}

// Name implements StreamAssigner.
func (HashAssigner) Name() string { return "hash" }

// Assign implements StreamAssigner.
func (h HashAssigner) Assign(term rdf.Term) int { return hashTerm(term) % h.K }

// DomainAssigner is the streaming form of DomainPolicy: the first time a
// locality key appears it is bound to the currently lightest partition
// (online LPT); keyless terms fall back to hashing. Memory is O(distinct
// keys), not O(graph).
type DomainAssigner struct {
	k       int
	keyFunc func(rdf.Term) string
	keyPart map[string]int
	loads   []int
}

// NewDomainAssigner returns a streaming domain assigner over k partitions.
func NewDomainAssigner(k int, keyFunc func(rdf.Term) string) *DomainAssigner {
	return &DomainAssigner{k: k, keyFunc: keyFunc, keyPart: map[string]int{}, loads: make([]int, k)}
}

// Name implements StreamAssigner.
func (*DomainAssigner) Name() string { return "domain" }

// Assign implements StreamAssigner.
func (d *DomainAssigner) Assign(term rdf.Term) int {
	key := d.keyFunc(term)
	if key == "" {
		return hashTerm(term) % d.k
	}
	if p, ok := d.keyPart[key]; ok {
		d.loads[p]++
		return p
	}
	best := 0
	for i := 1; i < d.k; i++ {
		if d.loads[i] < d.loads[best] {
			best = i
		}
	}
	d.keyPart[key] = best
	d.loads[best]++
	return best
}

// StreamStats summarizes one streaming run.
type StreamStats struct {
	// Total is the number of input triples.
	Total int
	// PerPartition counts the triples written to each sink.
	PerPartition []int
	// Replicated counts triples written to two sinks (subject and object
	// owners differ).
	Replicated int
	// SchemaBroadcast counts schema triples copied to every sink.
	SchemaBroadcast int
}

// StreamPartition reads N-Triples from r and routes every triple to the
// sink(s) of its subject's and object's owners, in one pass and without
// materializing the graph. Schema triples (predicate in the RDF/RDFS/OWL
// namespaces) are broadcast to every partition, mirroring Algorithm 1's
// replicated schema; rdf:type triples are owned by their subject (class
// IRIs are schema elements and never own data).
//
// That schema test is the predicate's namespace alone, not owlhorst's:
// rdf:type owl:Class, owl:TransitiveProperty and the other vocabulary-typed
// triples, which owlhorst splits off as schema and replicates, follow their
// subject's owner here. With that, and with no exchange between the parts,
// a part is not a worker's input: its closure alone misses the derivations
// that join two parts. The parts measure the streaming pass (§III-A).
func StreamPartition(r io.Reader, k int, a StreamAssigner, sinks []io.Writer) (*StreamStats, error) {
	if k < 1 || len(sinks) != k {
		return nil, fmt.Errorf("partition: need k=%d sinks, got %d", k, len(sinks))
	}
	stats := &StreamStats{PerPartition: make([]int, k)}
	rd := ntriples.NewReader(r)
	for {
		st, err := rd.Next()
		if err == io.EOF {
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
		stats.Total++
		line := st.S.String() + " " + st.P.String() + " " + st.O.String() + " .\n"

		if st.P.Kind == rdf.IRI && vocab.IsSchemaIRI(st.P.Value) && st.P.Value != vocab.RDFType {
			stats.SchemaBroadcast++
			for i := range sinks {
				if _, err := io.WriteString(sinks[i], line); err != nil {
					return stats, err
				}
			}
			continue
		}

		po := a.Assign(st.S)
		qo := po
		if !(st.P.Kind == rdf.IRI && st.P.Value == vocab.RDFType) {
			qo = a.Assign(st.O)
		}
		if _, err := io.WriteString(sinks[po], line); err != nil {
			return stats, err
		}
		stats.PerPartition[po]++
		if qo != po {
			if _, err := io.WriteString(sinks[qo], line); err != nil {
				return stats, err
			}
			stats.PerPartition[qo]++
			stats.Replicated++
		}
	}
}
