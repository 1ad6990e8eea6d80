// Package itemset defines the item space and itemset algebra used by every
// mining component in annotadb.
//
// The paper (Def. 4.1) models an annotated relation as tuples that mix data
// values x1..xn with a variable number of annotations a1..ak. Mining treats
// both as "items", but the two classes must remain distinguishable: rules are
// only interesting when the right-hand side is a single annotation
// (Defs. 4.2/4.3), and generalization labels (§4.1) are annotations that were
// derived by the system rather than supplied by users.
//
// An Item is therefore a tagged 29-bit identifier: the annotation bit and the
// derived bit are folded into the value itself so that itemsets stay plain
// sorted []Item slices with no parallel metadata. Because the annotation bit
// is the highest tag bit, sorting an itemset naturally places all data values
// before all annotations, which the Apriori candidate join exploits.
package itemset

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
)

// Item is a dictionary-encoded data value or annotation.
//
// Layout (within a non-negative int32):
//
//	bit 30 — annotation tag
//	bit 29 — derived tag (generalization label; implies annotation in practice)
//	bits 0..28 — identifier assigned by a relation.Dictionary
type Item int32

const (
	// AnnotBit marks an item as an annotation.
	AnnotBit Item = 1 << 30
	// DerivedBit marks an annotation as a generalization label produced by
	// the generalize package rather than a raw user annotation.
	DerivedBit Item = 1 << 29
	// IDMask extracts the 29-bit identifier payload.
	IDMask Item = DerivedBit - 1

	// None is the zero Item. Identifier allocation starts at 1 so that None
	// never collides with a real item; it is used as a "no item" sentinel.
	None Item = 0

	// MaxID is the largest identifier payload an Item can carry.
	MaxID = int(IDMask)
)

// DataItem builds a data-value item from a dictionary identifier.
// It panics if id is out of range; identifiers are allocated internally by
// the dictionary, so an out-of-range id is a programming error.
func DataItem(id int) Item {
	if id <= 0 || id > MaxID {
		panic(fmt.Sprintf("itemset: data id %d out of range (1..%d)", id, MaxID))
	}
	return Item(id)
}

// AnnotationItem builds a raw-annotation item from a dictionary identifier.
func AnnotationItem(id int) Item {
	if id <= 0 || id > MaxID {
		panic(fmt.Sprintf("itemset: annotation id %d out of range (1..%d)", id, MaxID))
	}
	return Item(id) | AnnotBit
}

// DerivedItem builds a derived-annotation (generalization label) item.
func DerivedItem(id int) Item {
	if id <= 0 || id > MaxID {
		panic(fmt.Sprintf("itemset: derived id %d out of range (1..%d)", id, MaxID))
	}
	return Item(id) | AnnotBit | DerivedBit
}

// IsAnnotation reports whether the item is an annotation (raw or derived).
func (it Item) IsAnnotation() bool { return it&AnnotBit != 0 }

// IsDerived reports whether the item is a derived generalization label.
func (it Item) IsDerived() bool { return it&DerivedBit != 0 }

// IsData reports whether the item is a plain data value.
func (it Item) IsData() bool { return it&AnnotBit == 0 && it != None }

// ID returns the identifier payload without tag bits.
func (it Item) ID() int { return int(it & IDMask) }

// Valid reports whether the item carries a non-zero identifier and, if the
// derived bit is set, also carries the annotation bit.
func (it Item) Valid() bool {
	if it&IDMask == 0 {
		return false
	}
	if it&DerivedBit != 0 && it&AnnotBit == 0 {
		return false
	}
	return true
}

// String renders a debug form such as d17, a3, or g5 (generalized/derived).
// Human-readable tokens live in the owning relation.Dictionary; this form is
// only for diagnostics and tests.
func (it Item) String() string {
	switch {
	case it == None:
		return "∅"
	case it.IsDerived():
		return fmt.Sprintf("g%d", it.ID())
	case it.IsAnnotation():
		return fmt.Sprintf("a%d", it.ID())
	default:
		return fmt.Sprintf("d%d", it.ID())
	}
}

// Itemset is an immutable-by-convention sorted set of distinct items.
// The zero value is the empty set and is ready to use.
//
// All functions in this package treat their receivers and arguments as
// read-only and return fresh slices when they need to produce new sets.
type Itemset []Item

// New builds a canonical itemset (sorted, deduplicated) from arbitrary items.
func New(items ...Item) Itemset {
	if len(items) == 0 {
		return nil
	}
	s := slices.Clone(items)
	slices.Sort(s)
	return slices.Compact(s)
}

// FromSorted wraps a slice the caller guarantees is already sorted and
// deduplicated. It is the zero-copy constructor used on hot paths; callers
// must not mutate the slice afterwards. In debug builds (tests), Wellformed
// can verify the contract.
func FromSorted(items []Item) Itemset { return Itemset(items) }

// Wellformed reports whether the set is strictly sorted (canonical form).
func (s Itemset) Wellformed() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Len returns the cardinality of the set.
func (s Itemset) Len() int { return len(s) }

// Empty reports whether the set has no items.
func (s Itemset) Empty() bool { return len(s) == 0 }

// Clone returns an independent copy of the set.
func (s Itemset) Clone() Itemset {
	if s == nil {
		return nil
	}
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Contains reports whether item is a member, by binary search.
func (s Itemset) Contains(item Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= item })
	return i < len(s) && s[i] == item
}

// ContainsAll reports whether every member of sub is a member of s.
// Both sets must be canonical; the check is a linear merge.
func (s Itemset) ContainsAll(sub Itemset) bool {
	if len(sub) > len(s) {
		return false
	}
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// IsSubsetOf reports whether s ⊆ super.
func (s Itemset) IsSubsetOf(super Itemset) bool { return super.ContainsAll(s) }

// Equal reports set equality.
func (s Itemset) Equal(o Itemset) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets first by length, then lexicographically by item.
// It returns -1, 0, or +1 and gives rule output files a stable order.
func (s Itemset) Compare(o Itemset) int {
	if len(s) != len(o) {
		if len(s) < len(o) {
			return -1
		}
		return 1
	}
	for i := range s {
		if s[i] != o[i] {
			if s[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Union returns s ∪ o as a new canonical set.
func (s Itemset) Union(o Itemset) Itemset {
	if len(s) == 0 {
		return o.Clone()
	}
	if len(o) == 0 {
		return s.Clone()
	}
	out := make(Itemset, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Subtract returns s \ o as a new canonical set.
func (s Itemset) Subtract(o Itemset) Itemset {
	var out Itemset
	j := 0
	for _, it := range s {
		for j < len(o) && o[j] < it {
			j++
		}
		if j < len(o) && o[j] == it {
			continue
		}
		out = append(out, it)
	}
	return out
}

// Add returns s ∪ {item} as a new canonical set. If item is already a member
// the receiver is returned unchanged (no copy), which keeps the hot path in
// candidate generation allocation-free for duplicates.
func (s Itemset) Add(item Item) Itemset {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= item })
	if i < len(s) && s[i] == item {
		return s
	}
	out := make(Itemset, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, item)
	out = append(out, s[i:]...)
	return out
}

// Remove returns s \ {item} as a new canonical set. If item is not a member
// the receiver is returned unchanged (no copy).
func (s Itemset) Remove(item Item) Itemset {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= item })
	if i >= len(s) || s[i] != item {
		return s
	}
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// WithoutIndex returns a copy of s with the element at position i removed.
// It is used by candidate pruning, which must drop each position in turn.
func (s Itemset) WithoutIndex(i int) Itemset {
	out := make(Itemset, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// CountAnnotations returns how many members are annotations (raw or derived).
// Because annotations sort after data values, the count is len(s) minus the
// index of the first annotation.
func (s Itemset) CountAnnotations() int {
	i := sort.Search(len(s), func(i int) bool { return s[i]&AnnotBit != 0 })
	return len(s) - i
}

// HasAnnotation reports whether the set contains at least one annotation.
func (s Itemset) HasAnnotation() bool {
	return len(s) > 0 && s[len(s)-1]&AnnotBit != 0
}

// PureData reports whether the set contains no annotations.
func (s Itemset) PureData() bool { return !s.HasAnnotation() }

// PureAnnotations reports whether every member is an annotation.
func (s Itemset) PureAnnotations() bool {
	return len(s) == 0 || s[0]&AnnotBit != 0
}

// Split partitions the set into its data-value prefix and annotation suffix.
// Both returned sets alias the receiver's backing array.
func (s Itemset) Split() (data, annots Itemset) {
	i := sort.Search(len(s), func(i int) bool { return s[i]&AnnotBit != 0 })
	return s[:i], s[i:]
}

// DataPart returns the data-value members, aliasing the receiver.
func (s Itemset) DataPart() Itemset {
	d, _ := s.Split()
	return d
}

// AnnotationPart returns the annotation members, aliasing the receiver.
func (s Itemset) AnnotationPart() Itemset {
	_, a := s.Split()
	return a
}

// Filter returns the members for which keep returns true, as a new set.
func (s Itemset) Filter(keep func(Item) bool) Itemset {
	var out Itemset
	for _, it := range s {
		if keep(it) {
			out = append(out, it)
		}
	}
	return out
}

// String renders the debug form, e.g. {d3 d17 a2}.
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(it.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Key returns a compact string encoding usable as a map key. The encoding is
// the big-endian byte serialization of the items; equal sets produce equal
// keys and distinct canonical sets produce distinct keys.
func (s Itemset) Key() Key {
	if len(s) == 0 {
		return ""
	}
	b := make([]byte, 0, len(s)*4)
	for _, it := range s {
		v := uint32(it)
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return Key(b)
}

// Key is the map-key encoding of a canonical itemset; see Itemset.Key.
type Key string

// Decode reverses Itemset.Key. Malformed keys return an error rather than a
// panic because keys may cross process boundaries via state files.
func (k Key) Decode() (Itemset, error) {
	if len(k)%4 != 0 {
		return nil, fmt.Errorf("itemset: key length %d not a multiple of 4", len(k))
	}
	s := make(Itemset, 0, len(k)/4)
	for i := 0; i < len(k); i += 4 {
		v := uint32(k[i])<<24 | uint32(k[i+1])<<16 | uint32(k[i+2])<<8 | uint32(k[i+3])
		s = append(s, Item(v))
	}
	if !s.Wellformed() {
		return nil, fmt.Errorf("itemset: key decodes to non-canonical set %v", s)
	}
	return s, nil
}

// Len returns the number of items encoded in the key.
func (k Key) Len() int { return len(k) / 4 }

var hashSeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the canonical set, suitable for sharding.
func (s Itemset) Hash() uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	for _, it := range s {
		v := uint32(it)
		h.WriteByte(byte(v >> 24))
		h.WriteByte(byte(v >> 16))
		h.WriteByte(byte(v >> 8))
		h.WriteByte(byte(v))
	}
	return h.Sum64()
}

// PrefixJoin implements the Apriori candidate join: if s and o have length k,
// share their first k-1 items, and s[k-1] < o[k-1], it returns the (k+1)-set
// s ∪ {o[k-1]} and true. Otherwise it returns nil and false.
func (s Itemset) PrefixJoin(o Itemset) (Itemset, bool) {
	k := len(s)
	if k == 0 || len(o) != k {
		return nil, false
	}
	for i := 0; i < k-1; i++ {
		if s[i] != o[i] {
			return nil, false
		}
	}
	if s[k-1] >= o[k-1] {
		return nil, false
	}
	out := make(Itemset, k+1)
	copy(out, s)
	out[k] = o[k-1]
	return out, true
}

// Binomial returns C(n, k) saturating at math.MaxInt64 to guard the
// incremental engine's subset-explosion checks.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const max = int64(1) << 62
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = r * int64(n-k+i)
		if r < 0 || r > max {
			return max
		}
		r /= int64(i)
	}
	return r
}
