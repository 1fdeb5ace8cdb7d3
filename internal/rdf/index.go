package rdf

import "sync/atomic"

// This file holds the single-writer / multi-reader structures the graph is
// built on. The contract is the MVCC one the serving layer needs: exactly one
// goroutine mutates (the writer that owns the Graph), while any number of
// goroutines read *pinned* prefixes concurrently, with no locks on either
// side. Three properties make that safe:
//
//  1. Element immutability below the published length. An entry, once
//     published, is never rewritten, so a reader holding a watermark W only
//     ever touches memory the writer finished with before publishing W.
//  2. Atomic publication. Locations and lengths are published through
//     sync/atomic (seq-cst in Go), so a reader that observes length n also
//     observes every element write and every index append that happened
//     before n was stored.
//  3. Grow-by-replacement. A list that outgrows its arena segment is copied
//     into a fresh segment whose location is published before the length
//     that makes the new tail reachable; the superseded segment is never
//     rewritten or reused, so a reader still holding its location sees a
//     valid (shorter) prefix, which its watermark already restricts it to.
//     Superseded segments are garbage until Compact rebuilds the graph.
//
// Nothing here is allocated per key or per triple: posting entries live in
// per-index chunk arenas, posting headers live inline in the slot table, and
// both are pointer-free, so the collector never traces them.
//
// The posting lists additionally keep their entries in insertion order, which
// is log-offset order — so "the list as of watermark W" is a binary-searched
// prefix, not a copy. That is what makes rdf.Snapshot zero-copy.

// spEntry is one bySP/byPO posting: the completing term of the triple plus
// the triple's log offset. The offset is what lets a Snapshot cut the list at
// its watermark; the completing term keeps the two-bound join path free of
// log indirection (the pattern already fixes the other two positions).
type spEntry struct {
	Term ID
	Off  uint32
}

// alog is an append-only array with an atomically published length: the
// triple log — the graph's backbone and the snapshot watermark's meaning —
// and the provenance side-column. The single writer reserves room (grow),
// writes elements past the published length (put) and publishes a new
// length once (publish); readers take view(). The backing array is
// published before the length that makes its new tail reachable.
type alog[T any] struct {
	arr atomic.Pointer[[]T]
	n   atomic.Uint32
}

// grow reserves capacity for n more elements. Writer-only.
func (l *alog[T]) grow(n int) {
	have := int(l.n.Load())
	a := l.arr.Load()
	if a != nil && have+n <= len(*a) {
		return
	}
	c := max(2*have, have+n, 4)
	na := make([]T, c)
	if a != nil {
		copy(na, (*a)[:have])
	}
	l.arr.Store(&na)
}

// reserved returns the whole backing array: the published prefix and the
// room grow reserved past it, which only put writes. Writer-only.
func (l *alog[T]) reserved() []T {
	if a := l.arr.Load(); a != nil {
		return *a
	}
	return nil
}

// put writes x at index i, at or past the published length and inside the
// room grow reserved. Nothing reads it until publish covers i. Writer-only.
//
//powl:ignore atomicpub every write lands at or past the published length; view() slices arr[:n.Load()], so the length store in publish is the commit point
func (l *alog[T]) put(i int, x T) {
	a := l.arr.Load()
	(*a)[i] = x
}

// publish makes the first n elements visible. On the triple log this is the
// commit point of an insert: every posting and record for the new range is
// written before it, so a reader that observes length n sees a fully
// indexed prefix of n triples. Writer-only.
func (l *alog[T]) publish(n int) { l.n.Store(uint32(n)) }

// view returns the published prefix. Safe from any goroutine; the returned
// slice is immutable (capacity-capped, contents never rewritten). The length
// is loaded before the array: the array only ever grows, so any array
// observed after a length n holds at least n elements.
func (l *alog[T]) view() []T {
	n := l.n.Load()
	if n == 0 {
		return nil
	}
	a := l.arr.Load()
	return (*a)[:n:n]
}

// length returns the published element count.
func (l *alog[T]) length() int { return int(l.n.Load()) }

// cloneInto makes dst an independent copy of the published prefix.
func (l *alog[T]) cloneInto(dst *alog[T]) {
	na := append([]T(nil), l.view()...)
	dst.arr.Store(&na)
	dst.n.Store(uint32(len(na)))
}

// islot is one open-addressing slot with its posting header inline. key 0
// means empty — valid keys are always nonzero because every interned ID is
// >= 1 and packed two-ID keys keep the low half nonzero. loc and n are
// published before the key, so a reader that sees the key sees a list of at
// least one entry. Readers load n before loc: segments only ever grow, so a
// location observed after a length n holds at least n entries.
type islot struct {
	key atomic.Uint64
	loc atomic.Uint64 // chunk<<32 | offset of the list's current arena segment
	n   atomic.Uint32 // published entry count
	cap uint32        // entries the segment has room for; writer-only
}

// itable is one published generation of the hash table; rehash builds a new
// itable and swaps the pointer. A reader left on the old generation sees
// headers frozen at the swap: each still names a segment nothing rewrites and
// a length that was published, so it reads a valid prefix, and anything it
// misses lies above every watermark pinned before it loaded the table.
type itable struct {
	slots []islot
	shift uint // Fibonacci-hash shift: index = (key * fibMul) >> shift
}

const fibMul = 0x9E3779B97F4A7C15

func (t *itable) home(key uint64) int { return int((key * fibMul) >> t.shift) }

// Arena geometry, in entries. An index's bump chunks double from chunkMin to
// chunkMax; a segment of ownChunk entries or more gets a chunk to itself, so
// the tail a bump chunk strands when it fills stays under an eighth of it.
const (
	chunkMin = 64
	chunkMax = 1 << 16
	ownChunk = chunkMax / 8
)

// index maps a packed uint64 key to a posting list. One writer inserts; any
// goroutine looks up. Lists are contiguous segments of the chunks; the chunk
// directory is copy-on-write and republished before any location that names
// a new chunk, so readers load it after the location.
//
// An index exists only once built (Graph.BuildIndexes): built is stored
// after the build's last posting is written, so a reader that loads it true
// may read any posting below the watermark it pinned, and one that loads it
// false answers from the log instead and touches nothing here.
type index[T any] struct {
	tab    atomic.Pointer[itable]
	chunks atomic.Pointer[[][]T]
	built  atomic.Bool
	count  int    // distinct keys; writer-only
	cur    int    // the bump chunk; writer-only
	used   uint32 // entries handed out of it; writer-only
}

// reserveFrom readies the table for src's distinct keys on top of its own,
// if src is built. Writer-only.
func (ix *index[T]) reserveFrom(src *index[T]) {
	if src.built.Load() {
		ix.presize(ix.count + src.count)
	}
}

// presize readies the table for about n distinct keys. Writer-only.
func (ix *index[T]) presize(n int) {
	bits := uint(4)
	for (1 << bits) < n*4/3 {
		bits++
	}
	if t := ix.tab.Load(); t == nil || len(t.slots) < 1<<bits {
		ix.rehash(bits)
	}
}

// find returns key's slot, or nil if absent. Safe from any goroutine.
func (ix *index[T]) find(key uint64) *islot {
	t := ix.tab.Load()
	if t == nil {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.key.Load() {
		case key:
			return s
		case 0:
			return nil
		}
	}
}

// get returns the published posting list for key, nil if absent. Safe from
// any goroutine; the returned slice is immutable.
func (ix *index[T]) get(key uint64) []T {
	s := ix.find(key)
	if s == nil {
		return nil
	}
	n := uint64(s.n.Load())
	loc := s.loc.Load()
	off := loc & (1<<32 - 1)
	return (*ix.chunks.Load())[loc>>32][off : off+n : off+n]
}

// length returns the published length of key's posting list.
func (ix *index[T]) length(key uint64) int {
	if s := ix.find(key); s != nil {
		return int(s.n.Load())
	}
	return 0
}

// append1 appends x to key's list, creating the list at capacity 1 if the
// key is new. Writer-only. A full list is extended in place when its segment
// ends at the bump frontier (runs of one subject land here), and otherwise
// moves to a fresh segment of twice the size.
//
//powl:ignore atomicpub every write lands in arena space no published (location, length) pair covers yet: the segment copy fills a segment published by the loc store after it, and the element write sits at index n, published by the length store after it
func (ix *index[T]) append1(key uint64, x T) {
	s := ix.claim(key)
	n, loc := s.n.Load(), s.loc.Load()
	if n == s.cap {
		if n > 0 && int(loc>>32) == ix.cur && uint32(loc)+n == ix.used &&
			int(ix.used) < len((*ix.chunks.Load())[ix.cur]) {
			ix.used++
			s.cap++
		} else {
			grown := max(1, 2*n)
			nloc := ix.alloc(grown)
			if n > 0 {
				dir := *ix.chunks.Load()
				copy(dir[nloc>>32][uint32(nloc):], dir[loc>>32][uint32(loc):uint32(loc)+n])
			}
			loc = nloc
			s.loc.Store(loc)
			s.cap = grown
		}
	}
	(*ix.chunks.Load())[loc>>32][uint32(loc)+n] = x
	s.n.Store(n + 1)
	if n == 0 {
		s.key.Store(key) // publish after the header: readers racing the probe see both
		ix.count++
	}
}

// claim returns key's slot, or the empty slot a new key belongs in, growing
// the table first when one more key would pass 3/4 load. Writer-only.
func (ix *index[T]) claim(key uint64) *islot {
	t := ix.tab.Load()
	if t == nil || (ix.count+1)*4 > len(t.slots)*3 {
		bits := uint(4)
		if t != nil {
			bits = 64 - t.shift + 1
		}
		t = ix.rehash(bits)
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if k := s.key.Load(); k == key || k == 0 {
			return s
		}
	}
}

// alloc reserves n contiguous arena entries and returns their location,
// publishing a longer chunk directory first when the bump chunk cannot hold
// them. Writer-only.
func (ix *index[T]) alloc(n uint32) uint64 {
	var dir [][]T
	if d := ix.chunks.Load(); d != nil {
		dir = *d
	}
	if n < ownChunk && len(dir) > 0 && int(ix.used)+int(n) <= len(dir[ix.cur]) {
		loc := uint64(ix.cur)<<32 | uint64(ix.used)
		ix.used += n
		return loc
	}
	size := int(n)
	if n < ownChunk {
		size = chunkMin
		if len(dir) > 0 {
			size = min(2*len(dir[ix.cur]), chunkMax)
		}
		ix.cur, ix.used = len(dir), n
	}
	nd := make([][]T, len(dir)+1)
	copy(nd, dir)
	nd[len(dir)] = make([]T, size)
	ix.chunks.Store(&nd)
	return uint64(len(dir)) << 32
}

// rehash publishes a fresh table of 1<<bits slots holding every existing
// header and returns it. Writer-only; readers continue on the old generation
// until they reload the pointer. Each slot moves whole, by copy: the old
// table is only read, and nothing can observe the new one before the pointer
// store, so the move needs no per-field atomic stores.
func (ix *index[T]) rehash(bits uint) *itable {
	old := ix.tab.Load()
	nt := &itable{slots: make([]islot, 1<<bits), shift: 64 - bits}
	if old != nil {
		mask := len(nt.slots) - 1
		for si := range old.slots {
			s := &old.slots[si]
			k := s.key.Load()
			if k == 0 {
				continue
			}
			i := nt.home(k)
			for nt.slots[i].key.Load() != 0 {
				i = (i + 1) & mask
			}
			copy(nt.slots[i:i+1], old.slots[si:si+1])
		}
	}
	ix.tab.Store(nt)
	return nt
}

// cloneInto makes dst an independent copy of ix, if ix is built: the slot
// table and every chunk are copied flat, so locations stay valid as they are
// and no key is re-inserted. Writer-only on ix; dst must be unpublished (the
// slots are copied whole, as in rehash).
func (ix *index[T]) cloneInto(dst *index[T]) {
	if !ix.built.Load() {
		return
	}
	defer dst.built.Store(true)
	if t := ix.tab.Load(); t != nil {
		nt := &itable{slots: make([]islot, len(t.slots)), shift: t.shift}
		copy(nt.slots, t.slots)
		dst.tab.Store(nt)
	}
	if d := ix.chunks.Load(); d != nil {
		nd := make([][]T, len(*d))
		for i, c := range *d {
			nd[i] = append([]T(nil), c...)
		}
		dst.chunks.Store(&nd)
	}
	dst.count, dst.cur, dst.used = ix.count, ix.cur, ix.used
}

// dedup is the writer-private membership table: open addressing over log
// offsets, keys compared through the log, so it holds four pointer-free
// bytes per slot at no more than half load. It holds exactly the live
// offsets, every one below the published log length except inside
// Graph.insert, which places a new range's offsets before it publishes them.
type dedup struct {
	slots []uint32 // log offset + 1; 0 = empty
	shift uint
	count int
}

func hashTriple(t Triple) uint64 {
	h := (uint64(t.S)<<32 | uint64(t.P)) * fibMul
	return (h ^ h>>32 ^ uint64(t.O)) * 0xFF51AFD7ED558CCD
}

// find returns the log offset of t.
func (d *dedup) find(log []Triple, t Triple) (uint32, bool) {
	if len(d.slots) == 0 {
		return 0, false
	}
	mask := len(d.slots) - 1
	for i := int(hashTriple(t) >> d.shift); ; i = (i + 1) & mask {
		v := d.slots[i]
		if v == 0 {
			return 0, false
		}
		if log[v-1] == t {
			return v - 1, true
		}
	}
}

// place records off as the offset of t, which must be absent and have room
// reserved.
func (d *dedup) place(t Triple, off uint32) {
	mask := len(d.slots) - 1
	i := int(hashTriple(t) >> d.shift)
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = off + 1
	d.count++
}

// reserve makes room for n more triples, so that many place calls need no
// rebuild.
func (d *dedup) reserve(log []Triple, dead *tombSet, n int) {
	if (d.count+n)*2 > len(d.slots) {
		d.rebuild(log, dead, d.count+n)
	}
}

// rebuild sizes the table for want entries and refills it from the log's
// live offsets. Growth and RepairDedup share it: the published log and
// tombstone set are the truth the table is derived from.
func (d *dedup) rebuild(log []Triple, dead *tombSet, want int) {
	bits := uint(4)
	for 1<<bits < 2*want {
		bits++
	}
	if len(d.slots) == 1<<bits {
		clear(d.slots)
	} else {
		d.slots = make([]uint32, 1<<bits)
	}
	d.shift, d.count = 64-bits, 0
	for i, t := range log {
		if !dead.has(uint32(i)) {
			d.place(t, uint32(i))
		}
	}
}

// remove drops off from the table, closing the probe run behind it
// (backward-shift deletion, so lookups never need tombstone slots).
func (d *dedup) remove(log []Triple, off uint32) {
	if len(d.slots) == 0 {
		return
	}
	mask := len(d.slots) - 1
	i := int(hashTriple(log[off]) >> d.shift)
	for d.slots[i] != off+1 {
		if d.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may move back to the hole at i unless its home
		// lies cyclically in (i, j].
		if h := int(hashTriple(log[d.slots[j]-1]) >> d.shift); (h-i-1)&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = 0
	d.count--
}

// key packing: the five indexes are keyed by one ID or an ID pair. IDs are
// nonzero for interned terms, so both packings are nonzero and never collide
// with the empty-slot sentinel.

func key1(a ID) uint64    { return uint64(a) }
func key2(a, b ID) uint64 { return uint64(a)<<32 | uint64(b) }
