package main

import (
	"bytes"
	"testing"
)

const testScale = 0.05

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		if w.kind == kindBatch {
			a, err := setupBatch(w, 3, testScale)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := setupBatch(w, 3, testScale)
			c, _ := setupBatch(w, 4, testScale)
			if !bytes.Equal(a.nt, b.nt) || a.oracle != b.oracle {
				t.Errorf("%s: seed 3 gave different inputs twice", w.name)
			}
			if bytes.Equal(a.nt, c.nt) || a.oracle == c.oracle {
				t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.name)
			}
			continue
		}
		a := planServe(w, 3, testScale, 1)
		b := planServe(w, 3, testScale, 1)
		c := planServe(w, 4, testScale, 1)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 3 gave different request sequences twice", w.name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 3 and 4 gave the same request sequence", w.name)
		}
		if !a.ds.Graph.Equal(b.ds.Graph) {
			t.Errorf("%s: seed 3 gave different datasets twice", w.name)
		}
	}
}

// The digest's byte count is computed from term lengths, not by serializing;
// it must be what serializing would give.
func TestDigestCountsSerializedBytes(t *testing.T) {
	ds := generate("lubm", 3, testScale)
	in, err := setupBatch(workloads[0], 3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	d := digestTriples(ds.Dict, ds.Graph.Triples())
	if d.Bytes != int64(len(in.nt)) || d.Triples != in.base {
		t.Errorf("digest says %d triples in %d bytes, serialization has %d in %d", d.Triples, d.Bytes, in.base, len(in.nt))
	}
	rev := ds.Graph.SortedTriples()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if digestTriples(ds.Dict, rev) != d {
		t.Error("digest depends on triple order")
	}
	if digestTriples(ds.Dict, rev[1:]) == d {
		t.Error("digest did not notice a missing triple")
	}
}

func TestWriteBatchHasExactSize(t *testing.T) {
	for _, size := range []int{readInsertSize, churnInsertSize} {
		body, dept := writeBatchText(7, size, 5)
		if n := bytes.Count([]byte(body), []byte("\n")); n != size {
			t.Errorf("batch of %d has %d lines", size, n)
		}
		if dept != ub+"univ2/wdept7" {
			t.Errorf("dept = %s", dept)
		}
	}
}
