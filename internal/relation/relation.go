package relation

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"annotadb/internal/itemset"
)

// Tuple is one row of an annotated relation (Def. 4.1): a set of data values
// plus a variable-size set of attached annotations. Both parts are canonical
// itemsets. The paper's Figure 4 dataset stores values as IDs because "the
// association rules would be the same regardless" of the true values; the
// dictionary preserves the external spelling.
type Tuple struct {
	Data   itemset.Itemset // data-value items, sorted
	Annots itemset.Itemset // annotation items (raw + derived), sorted
}

// NewTuple canonicalizes and partitions items into a tuple. Items carry
// their own kind tags, so a single mixed slice is sufficient.
func NewTuple(items ...itemset.Item) Tuple { return tupleOf(slices.Clone(items)) }

// tupleOf sorts and deduplicates items in place and splits them into a
// tuple, so building a tuple costs one allocation: the two sets share items'
// backing array, the data set capped so that no append to it reaches the
// annotations. No items gives two nil sets, any item two non-nil ones.
func tupleOf(items []itemset.Item) Tuple {
	if len(items) == 0 {
		return Tuple{}
	}
	slices.Sort(items)
	data, annots := itemset.Itemset(slices.Compact(items)).Split()
	return Tuple{Data: data[:len(data):len(data)], Annots: annots}
}

// Items returns the merged itemset of data values and annotations.
// Data values sort before annotations, so the merge is a concatenation.
func (t Tuple) Items() itemset.Itemset {
	if len(t.Annots) == 0 {
		return t.Data
	}
	if len(t.Data) == 0 {
		return t.Annots
	}
	out := make(itemset.Itemset, 0, len(t.Data)+len(t.Annots))
	out = append(out, t.Data...)
	out = append(out, t.Annots...)
	return out
}

// HasAnnotation reports whether annotation a is attached to the tuple.
func (t Tuple) HasAnnotation(a itemset.Item) bool { return t.Annots.Contains(a) }

// Contains reports whether every item of pattern appears in the tuple.
func (t Tuple) Contains(pattern itemset.Itemset) bool {
	data, annots := pattern.Split()
	return t.Data.ContainsAll(data) && t.Annots.ContainsAll(annots)
}

// Clone returns an independent deep copy.
func (t Tuple) Clone() Tuple {
	return Tuple{Data: t.Data.Clone(), Annots: t.Annots.Clone()}
}

// Annotated reports whether the tuple carries at least one annotation.
func (t Tuple) Annotated() bool { return len(t.Annots) > 0 }

// ErrTupleIndex reports an out-of-range tuple index in an update batch.
var ErrTupleIndex = errors.New("relation: tuple index out of range")

// ErrDuplicateAnnotation reports an attempt to attach an annotation a tuple
// already carries. The paper notes "a data tuple can have a given label at
// most once"; the same invariant is enforced for raw annotations.
var ErrDuplicateAnnotation = errors.New("relation: annotation already present on tuple")

// ErrAnnotationNotPresent reports an attempt to detach an annotation the
// tuple does not carry.
var ErrAnnotationNotPresent = errors.New("relation: annotation not present on tuple")

// AnnotationUpdate is one line of a Figure 14 update batch: attach
// Annotation to the tuple at (zero-based) Index.
type AnnotationUpdate struct {
	Index      int
	Annotation itemset.Item
}

// Relation is an in-memory annotated relation with the auxiliary structures
// required by the incremental maintenance engine:
//
//   - an inverted index: annotation or data value → bitmap of tuple
//     positions;
//   - a frequency table counting tuples per item (not occurrences — an item
//     appears at most once per tuple), kept beside each bitmap;
//   - a monotonically increasing version number, bumped on every mutation,
//     that lets downstream caches detect staleness.
//
// Storage is columnar and copy-on-write: View captures the current
// generation as an immutable *View in O(1), and Read lends one to a reader
// for as long as it runs. Appends write the data and annotation columns in
// place past every view's length and copy the bitmaps of the items they set;
// an annotation attach or detach copies only the annotation chunk and the
// one bitmap it touches (plus, once per generation, the slice headers of the
// annotation spine and the postings spine), and only while a live view may
// read them, so generations share structure and a mutation costs O(delta).
//
// All methods are safe for concurrent use. The reading methods hand out
// internal slices; callers must treat them as read-only.
type Relation struct {
	mu   sync.RWMutex
	dict *Dictionary
	st   store

	// view memoizes the current generation between mutations. A capture
	// seals the store: sealed becomes the current epoch and epoch moves on,
	// so the next mutation copies what it touches instead of writing memory
	// the view can reach. sealed is the epoch of the newest capture that may
	// still be live; a scoped capture (Read) puts it back when it ends.
	view   *View
	epoch  uint64
	sealed uint64

	// Ownership generations: an annotation chunk, a bitmap or a spine may be
	// written in place only when its generation is past sealed; otherwise a
	// live view may read it and it is copied first, and the copy takes the
	// current epoch. The data column needs none: it is only ever written
	// past every view's length.
	annotsGen uint64             // annotation chunk spine
	chunkGen  []uint64           // per annotation chunk
	spineGen  [numSlots]uint64   // per postings spine (kindSlot)
	bitsGen   [numSlots][]uint64 // per bitmap, parallel to the postings spines
}

// New creates an empty relation backed by a fresh dictionary.
func New() *Relation { return NewWithDictionary(NewDictionary()) }

// NewWithDictionary creates an empty relation sharing dict. Sharing lets a
// workload generator and the relation agree on token encoding.
func NewWithDictionary(dict *Dictionary) *Relation {
	if dict == nil {
		dict = NewDictionary()
	}
	return &Relation{dict: dict, epoch: 1}
}

// Dictionary returns the token dictionary backing the relation.
func (r *Relation) Dictionary() *Dictionary { return r.dict }

// Len returns the number of tuples (the |D| denominator of rule support).
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.n
}

// Version returns the mutation counter.
func (r *Relation) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.version
}

// View captures the current generation as an immutable View in O(1). The
// view is memoized: between mutations, repeated calls return the same
// pointer. Capturing seals the live store for good — the next mutation pays
// a copy-on-write of whatever it touches — so views are cheap to take per
// batch but not free to take per tuple. A reader that keeps no view memory
// after it returns should use Read, which unseals when it ends.
func (r *Relation) View() *View {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.view == nil {
		r.view = r.captureLocked()
	}
	return r.view
}

// Read calls fn with an immutable view of the current generation, for a
// reader that keeps no view memory after fn returns. It reuses the memoized
// view when there is one. Otherwise it captures an unmemoized view, sealing
// the store as View does, and when fn returns it puts the seal back in O(1)
// — unless a View was captured meanwhile — so the writes after a scoped
// read copy only what a live view still shares. fn runs with no lock held
// and may write the relation; a view fn captures with View stays sealed. A
// panic in fn leaves the store sealed.
func (r *Relation) Read(fn func(*View)) {
	r.mu.Lock()
	if v := r.view; v != nil {
		r.mu.Unlock()
		fn(v)
		return
	}
	prev := r.sealed
	v := r.captureLocked()
	own := r.sealed
	r.mu.Unlock()
	fn(v)
	r.mu.Lock()
	// Every capture moves sealed to a fresh, higher epoch, and every other
	// scoped read puts back only its own: sealed still at own means no
	// capture since this one, so nothing live reads past prev.
	if r.sealed == own {
		r.sealed = prev
	}
	r.mu.Unlock()
}

// captureLocked captures the current generation and seals the store under it.
func (r *Relation) captureLocked() *View {
	r.sealed = r.epoch
	r.epoch++
	return &View{dict: r.dict, st: r.st}
}

// writableAnnots returns annotation chunk c, copied first (with the chunk
// spine, once per generation) if a captured view may still read it.
func (r *Relation) writableAnnots(c int) *annotChunk {
	if r.annotsGen <= r.sealed {
		r.st.annots = slices.Clone(r.st.annots)
		r.annotsGen = r.epoch
	}
	if r.chunkGen[c] <= r.sealed {
		fresh := *r.st.annots[c]
		r.st.annots[c] = &fresh
		r.chunkGen[c] = r.epoch
	}
	return r.st.annots[c]
}

// writablePostings returns a's index entry ready for a write to bitmap word
// w: the postings spine (once per generation) and the bitmap are copied
// first if a captured view may still read word w, and the bitmap is long
// enough to hold w.
func (r *Relation) writablePostings(a itemset.Item, w int) *Postings {
	k, id := kindSlot(a), a.ID()
	if r.spineGen[k] <= r.sealed {
		r.st.postings[k] = slices.Clone(r.st.postings[k])
		r.spineGen[k] = r.epoch
	}
	if id >= len(r.st.postings[k]) {
		r.st.postings[k] = append(r.st.postings[k], make([]Postings, id+1-len(r.st.postings[k]))...)
		r.bitsGen[k] = append(r.bitsGen[k], make([]uint64, id+1-len(r.bitsGen[k]))...)
	}
	p := &r.st.postings[k][id]
	switch {
	case w >= len(p.bits) && w < cap(p.bits):
		// No view reads past the length it captured, which is at most len,
		// and the words past len were never written: still zero.
		p.bits = p.bits[:w+1]
	case r.bitsGen[k][id] <= r.sealed || w >= cap(p.bits):
		words := max(len(p.bits), w+1)
		fresh := make([]uint64, words, words+words/4+1)
		copy(fresh, p.bits)
		p.bits = fresh
		r.bitsGen[k][id] = r.epoch
	}
	return p
}

// attach attaches a to tuple i, maintaining the index and frequency table.
// The caller has validated the update and checked a is absent.
func (r *Relation) attach(i int, a itemset.Item) {
	r.view = nil
	ch := r.writableAnnots(i >> annotShift)
	ch[i&annotMask] = ch[i&annotMask].Add(a)
	r.setBit(i, a)
}

// setBit records tuple i in item a's bitmap and frequency.
func (r *Relation) setBit(i int, a itemset.Item) {
	p := r.writablePostings(a, i>>6)
	p.bits[i>>6] |= 1 << (uint(i) & 63)
	p.count++
}

// detach removes a from tuple i, maintaining the index and frequency table.
// The caller has validated the update and checked a is present.
func (r *Relation) detach(i int, a itemset.Item) {
	r.view = nil
	ch := r.writableAnnots(i >> annotShift)
	ch[i&annotMask] = ch[i&annotMask].Remove(a)
	p := r.writablePostings(a, i>>6)
	p.bits[i>>6] &^= 1 << (uint(i) & 63)
	p.count--
}

// Tuple returns the tuple at position i. The returned value shares backing
// arrays with the relation and must be treated as read-only.
func (r *Relation) Tuple(i int) (Tuple, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.tupleChecked(i)
}

// Each calls fn for every tuple position in order while holding a read lock.
// fn must not mutate the relation, and must not retain the tuple.
func (r *Relation) Each(fn func(i int, t Tuple) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.st.each(0, fn)
}

// EachFrom behaves like Each but starts at position start. The incremental
// engine uses it to visit only newly appended tuples.
func (r *Relation) EachFrom(start int, fn func(i int, t Tuple) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.st.each(start, fn)
}

// Append adds tuples to the end of the relation, maintaining the index and
// frequency table. It returns the position of the first appended
// tuple. Appending nothing is not a mutation: the version and the memoized
// view stay as they are.
//
// Both columns are written in place at positions past every captured view's
// length, which no view reads; only the bitmaps of the appended tuples'
// items are copied, when a view shares the word a new bit lands in. Each
// bitmap the batch touches is grown at most once per call, to the highest
// position the batch sets in it, so a bulk load does not regrow it in 25 %
// steps.
//
// The relation keeps the tuples' sets as they are, uncopied. A data set is
// read-only from then on: other tuples and other relations may share it, and
// the caller must not write it either.
func (r *Relation) Append(tuples ...Tuple) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.st.n
	if len(tuples) == 0 {
		return start
	}
	r.view = nil
	for _, t := range tuples {
		i := r.st.n
		if i&dataMask == 0 {
			r.st.data = append(r.st.data, new(dataChunk))
		}
		if i&annotMask == 0 {
			r.st.annots = append(r.st.annots, new(annotChunk))
			r.chunkGen = append(r.chunkGen, r.epoch)
		}
		r.st.data[i>>dataShift][i&dataMask] = t.Data
		r.st.annots[i>>annotShift][i&annotMask] = t.Annots
		r.st.n++
	}
	// The index is written backwards: each item's highest position comes
	// first, so writablePostings grows its bitmap once, for all of them.
	for k := len(tuples) - 1; k >= 0; k-- {
		for _, d := range tuples[k].Data {
			r.setBit(start+k, d)
		}
		for _, a := range tuples[k].Annots {
			r.setBit(start+k, a)
		}
	}
	r.st.version++
	return start
}

// AddAnnotation attaches annotation a to the tuple at position i.
// Attaching a duplicate returns ErrDuplicateAnnotation and leaves the
// relation unchanged; an out-of-range index returns ErrTupleIndex.
func (r *Relation) AddAnnotation(i int, a itemset.Item) error {
	if !a.IsAnnotation() {
		return fmt.Errorf("relation: item %v is not an annotation", a)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.st.tupleChecked(i); err != nil {
		return err
	}
	if r.st.postingsOf(a).Contains(i) {
		return fmt.Errorf("%w: %v on tuple %d", ErrDuplicateAnnotation, a, i)
	}
	r.attach(i, a)
	r.st.version++
	return nil
}

// ApplyUpdates applies a Figure 14 annotation batch. It validates the whole
// batch against the current relation before mutating anything, so a batch
// either applies completely or not at all (duplicate-annotation entries are
// reported through the returned skipped list rather than failing the batch,
// because real curation batches legitimately re-send annotations). A batch
// that applies nothing is not a mutation.
//
// It returns the updates that were actually applied and the ones skipped as
// duplicates — of an earlier attachment or of an earlier entry of the same
// batch.
func (r *Relation) ApplyUpdates(batch []AnnotationUpdate) (applied, skipped []AnnotationUpdate, err error) {
	var d Delta
	if err := r.apply(batch, false, &d, false); err != nil {
		return nil, nil, err
	}
	return d.Applied, d.Skipped, nil
}

// TupleDelta is one tuple an annotation batch changed: its annotation set
// before and after the batch. The sets are the relation's own, not copies:
// attach and detach install a fresh set and nothing edits a set in place, so
// Before is exactly the set a view captured before the batch still reads.
// Treat both as read-only. The tuple's data values did not change; a
// BatchIndex built from the Delta reads them from the relation's index.
type TupleDelta struct {
	Index         int
	Before, After itemset.Itemset
}

// Delta is what one annotation batch did: the entries applied and skipped, in
// batch order, as ApplyUpdates and ApplyRemovals return them, and every tuple
// the batch changed, once, in the order the batch first changed it.
type Delta struct {
	Applied, Skipped []AnnotationUpdate
	Tuples           []TupleDelta

	// slots groups the applied entries by tuple: an open-addressed table
	// keyed by tuple index whose entries hold 1 + the tuple's place in
	// Tuples, 0 for an empty slot. It is sized and cleared per batch.
	slots []int32
	// data is the relation's data-value postings spine as the write left
	// it. Data bits below the relation's length never change, so a
	// BatchIndex can probe it at the changed tuples after the lock is gone.
	data []Postings
}

// touch records that the batch is about to change tuple i of st: on i's
// first change it joins Tuples with its set as it stands as its Before.
func (d *Delta) touch(i int, st *store) {
	mask := len(d.slots) - 1
	for h := int(uint64(i)*0x9E3779B97F4A7C15>>32) & mask; ; h = (h + 1) & mask {
		switch k := d.slots[h]; {
		case k == 0:
			d.Tuples = append(d.Tuples, TupleDelta{Index: i, Before: st.annotsOf(i)})
			d.slots[h] = int32(len(d.Tuples))
			return
		case d.Tuples[k-1].Index == i:
			return
		}
	}
}

// ApplyDelta applies an annotation batch — as ApplyUpdates does, or as
// ApplyRemovals does when remove is set — and reports into d what it did.
// d's slices are reused, so a caller that keeps one Delta across batches
// allocates nothing for it once they have grown.
func (r *Relation) ApplyDelta(batch []AnnotationUpdate, remove bool, d *Delta) error {
	return r.apply(batch, remove, d, true)
}

// apply is the one annotation write loop: it validates batch, then attaches
// (detaches, when remove is set) every entry that changes its tuple and skips
// the rest, recording both in d. With tuples set it also reports each changed
// tuple once: its set is read before its first change and after the batch.
func (r *Relation) apply(batch []AnnotationUpdate, remove bool, d *Delta, tuples bool) error {
	d.Applied, d.Skipped, d.Tuples, d.data = d.Applied[:0], d.Skipped[:0], d.Tuples[:0], nil
	if tuples {
		// At most half full: a batch changes at most len(batch) tuples.
		size := 1 << bits.Len(uint(2*len(batch)))
		d.slots = slices.Grow(d.slots[:0], size)[:size]
		clear(d.slots)
	}
	what := "update"
	if remove {
		what = "removal"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.validate(batch, what); err != nil {
		return err
	}
	for _, u := range batch {
		if r.st.postingsOf(u.Annotation).Contains(u.Index) != remove {
			d.Skipped = append(d.Skipped, u)
			continue
		}
		if tuples {
			d.touch(u.Index, &r.st)
		}
		if remove {
			r.detach(u.Index, u.Annotation)
		} else {
			r.attach(u.Index, u.Annotation)
		}
		d.Applied = append(d.Applied, u)
	}
	if len(d.Applied) == 0 {
		return nil
	}
	r.st.version++
	for k := range d.Tuples {
		d.Tuples[k].After = r.st.annotsOf(d.Tuples[k].Index)
	}
	if tuples {
		d.data = r.st.postings[dataSlot]
	}
	return nil
}

// validate checks every entry of a batch against the current relation.
func (r *Relation) validate(batch []AnnotationUpdate, what string) error {
	for _, u := range batch {
		if u.Index < 0 || u.Index >= r.st.n {
			return fmt.Errorf("%w: %d (relation has %d tuples)", ErrTupleIndex, u.Index, r.st.n)
		}
		if !u.Annotation.IsAnnotation() {
			return fmt.Errorf("relation: item %v in %s batch is not an annotation", u.Annotation, what)
		}
	}
	return nil
}

// RemoveAnnotation detaches annotation a from the tuple at position i.
// Removing an absent annotation returns ErrAnnotationNotPresent and leaves
// the relation unchanged; an out-of-range index returns ErrTupleIndex.
func (r *Relation) RemoveAnnotation(i int, a itemset.Item) error {
	if !a.IsAnnotation() {
		return fmt.Errorf("relation: item %v is not an annotation", a)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.st.tupleChecked(i); err != nil {
		return err
	}
	if !r.st.postingsOf(a).Contains(i) {
		return fmt.Errorf("%w: %v on tuple %d", ErrAnnotationNotPresent, a, i)
	}
	r.detach(i, a)
	r.st.version++
	return nil
}

// ApplyRemovals detaches a batch of annotations, mirroring ApplyUpdates:
// the whole batch is validated against the current relation first, entries
// whose annotation is (no longer) present are skipped rather than failing,
// within-batch duplicates apply once, and a batch that removes nothing is
// not a mutation.
func (r *Relation) ApplyRemovals(batch []AnnotationUpdate) (applied, skipped []AnnotationUpdate, err error) {
	var d Delta
	if err := r.apply(batch, true, &d, false); err != nil {
		return nil, nil, err
	}
	return d.Applied, d.Skipped, nil
}

// Frequency returns the number of tuples carrying annotation a — the paper's
// annotation frequency table.
func (r *Relation) Frequency(a itemset.Item) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.frequency(a)
}

// EachFrequency calls fn with every annotation ever attached to the relation
// and the number of tuples carrying it now (possibly zero), in item order,
// reading the frequency table in place under the read lock. fn must not call
// back into the relation.
func (r *Relation) EachFrequency(fn func(a itemset.Item, n int)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.st.eachEntry(annotSpines, func(a itemset.Item, p Postings) { fn(a, p.count) })
}

// Annotations returns every annotation item that appears on at least one
// tuple, sorted.
func (r *Relation) Annotations() itemset.Itemset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.annotations()
}

// CountPattern counts the tuples containing pattern by intersecting its
// items' bitmaps — the incremental engine's "check all data tuples in the
// database having this annotation" step without reading a tuple.
func (r *Relation) CountPattern(pattern itemset.Itemset) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.countPattern(pattern)
}

// Clone returns a deep copy of the relation sharing no mutable state with the
// original. The dictionary is shared: token→item mappings are append-only,
// so sharing is safe and keeps clones comparable.
//
// Clone copies from a scoped view (Read, O(1) under the lock), so no reader
// or writer ever waits behind the O(n) copy, and the original's next writes
// copy nothing on the clone's account.
func (r *Relation) Clone() *Relation {
	c := NewWithDictionary(r.dict)
	r.Read(func(v *View) {
		batch := make([]Tuple, 0, v.Len())
		v.Each(func(_ int, t Tuple) bool {
			batch = append(batch, t.Clone())
			return true
		})
		c.Append(batch...)
		c.st.version = v.Version()
	})
	return c
}

// Stats summarizes the relation for reports and examples.
type Stats struct {
	Tuples            int
	AnnotatedTuples   int
	Annotations       int // total attachments (tuple, annotation) pairs
	DistinctAnnots    int
	DistinctData      int
	MaxAnnotsPerTuple int
}

// Stats computes summary statistics in one pass.
func (r *Relation) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.st.stats()
}

// CheckInvariants verifies the internal consistency of the columns, the
// index, and the frequency table against the tuples, and that every chunk
// and bitmap has an ownership generation. It is called from tests and from
// the incremental engine's verification mode, never on hot paths.
func (r *Relation) CheckInvariants() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.chunkGen) != len(r.st.annots) {
		return fmt.Errorf("relation: %d annotation chunks, %d generations", len(r.st.annots), len(r.chunkGen))
	}
	for k := range r.st.postings {
		if len(r.bitsGen[k]) != len(r.st.postings[k]) {
			return fmt.Errorf("relation: postings spine %d has %d entries, %d generations", k, len(r.st.postings[k]), len(r.bitsGen[k]))
		}
	}
	return r.st.check()
}
