package rdf

// DeltaStage is the sharded staging area for concurrently produced delta
// triples: one shard per firing goroutine, each an append buffer with a
// local dedup table. It is how the parallel fire loop keeps the graph's
// single-writer contract intact — goroutines never touch the graph's
// mutable state, they stage into their own shard, and the coordinator
// drains every shard into the log after the fork joins.
//
// Ownership protocol (not locked — the structure has no synchronization of
// its own):
//
//   - between two coordinator sync points, shard i is written by exactly
//     one goroutine;
//   - Triples, Reset, and Len on any shard are coordinator-only, after the
//     firing goroutines have been joined.
//
// Shards dedup only their own triples; the same triple staged by two
// shards is resolved at drain time by the graph insert itself, which adds
// only the first copy.
type DeltaStage struct {
	shards []StageShard
}

// NewDeltaStage returns a stage with n shards (n < 1 is treated as 1).
func NewDeltaStage(n int) *DeltaStage {
	return &DeltaStage{shards: make([]StageShard, max(n, 1))}
}

// Shards returns the shard count.
func (d *DeltaStage) Shards() int { return len(d.shards) }

// Shard returns shard i for the goroutine that owns it.
func (d *DeltaStage) Shard(i int) *StageShard { return &d.shards[i] }

// Len sums the staged triple counts across shards (coordinator-only).
func (d *DeltaStage) Len() int {
	n := 0
	for i := range d.shards {
		n += len(d.shards[i].buf)
	}
	return n
}

// StageShard is one goroutine's staging buffer. Its dedup table is the
// store's: open addressing over offsets into buf, compared through buf, so
// staging allocates nothing per triple and a reused shard nothing at all.
type StageShard struct {
	seen dedup
	buf  []Triple
}

// Add stages t unless this shard already holds it, reporting whether it was
// staged. At a materialization's fixpoint nothing is staged, so the
// steady-state cost is one table probe — no allocation.
func (s *StageShard) Add(t Triple) bool {
	if _, ok := s.seen.find(s.buf, t); ok {
		return false
	}
	s.seen.reserve(s.buf, nil, 1)
	s.seen.place(t, uint32(len(s.buf)))
	s.buf = append(s.buf, t)
	return true
}

// Len returns the staged triple count.
func (s *StageShard) Len() int { return len(s.buf) }

// Triples returns the staged triples in insertion order. The slice is a
// view into the shard's buffer — valid until the next Add or Reset.
func (s *StageShard) Triples() []Triple { return s.buf }

// Reset empties the shard, clearing its table in place and keeping the
// buffer's capacity, so a reused stage stops allocating once it has seen
// its high-water mark.
func (s *StageShard) Reset() {
	clear(s.seen.slots)
	s.seen.count = 0
	s.buf = s.buf[:0]
}
