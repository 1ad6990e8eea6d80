// Package snap owns the published snapshot types View, Index and Bits. Mutations
// inside this package are construction-time and sanctioned; the analyzer
// must not flag them.
package snap

// View is a published snapshot: immutable outside this package.
type View struct {
	// Counts maps item to frequency.
	Counts map[string]int
	// Items lists the distinct items.
	Items []string
	seq   uint64
}

// New builds a View. The owner mutates freely before publishing.
func New(items []string) *View {
	v := &View{Counts: map[string]int{}}
	for _, it := range items {
		v.Items = append(v.Items, it)
		v.Counts[it]++
	}
	v.seq = 1
	return v
}

// Sorted returns the items, backed by the snapshot's own array.
func (v *View) Sorted() []string { return v.Items }

// Index is a published snapshot whose posting arrays later generations
// share, in the shape of an append-only position-list index.
type Index struct {
	postings [][]int
}

// Extend derives the next generation, appending in place past the lengths
// idx's own slice headers record: the owner's sanctioned write.
func (idx *Index) Extend(key, pos int) *Index {
	next := &Index{postings: append([][]int(nil), idx.postings...)}
	next.postings[key] = append(next.postings[key], pos)
	return next
}

// Postings returns key's positions, backed by the shared array.
func (idx *Index) Postings(key int) []int { return idx.postings[key] }

// Bits is a published snapshot handed out by value, in the shape of
// relation.Postings: copying the struct copies the slice header, not the
// words, so the copy still shares the snapshot's array.
type Bits struct {
	Words []uint64
	Count int
}

// Bits returns key's bitmap by value, backed by the shared array.
func (idx *Index) Bits(key int) Bits {
	b := Bits{Words: make([]uint64, 1)}
	b.Words[0] |= 1 << uint(key) // the owner builds it before handing it out
	b.Count++
	return b
}
