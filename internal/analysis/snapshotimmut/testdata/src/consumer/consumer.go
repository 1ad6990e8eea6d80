// Package consumer exercises writes through a published snapshot from
// outside the owning package.
package consumer

import "snap"

// Mutate writes through a published snapshot every way the analyzer flags.
func Mutate(v *snap.View) {
	v.Items[0] = "x"         // want `assignment through published snapshot type snap.View`
	v.Counts["k"] = 1        // want `assignment through published snapshot type snap.View`
	v.Counts["k"]++          // want `increment through published snapshot type snap.View`
	delete(v.Counts, "k")    // want `delete on data shared with published snapshot type snap.View`
	_ = append(v.Items, "y") // want `append on data shared with published snapshot type snap.View`
	v.Sorted()[0] = "z"      // want `assignment through published snapshot type snap.View`
}

// Grow appends into an index's shared posting array: even with the result
// stored elsewhere, the write lands past the length every sibling
// generation was promised, and only the owner tracks who may do that.
func Grow(idx *snap.Index) []int {
	return append(idx.Postings(0), 7) // want `append on data shared with published snapshot type snap.Index`
}

// SetBit writes into a by-value bitmap: the struct is a copy, its words
// are not.
func SetBit(idx *snap.Index) {
	b := idx.Bits(3)
	b.Words[0] |= 1            // want `assignment through published snapshot type snap.Bits`
	idx.Bits(3).Words[0] = 0   // want `assignment through published snapshot type snap.Bits`
	clear(b.Words)             // want `clear on data shared with published snapshot type snap.Bits`
	_ = append(b.Words[:1], 1) // want `append on data shared with published snapshot type snap.Bits`
}

// Read-only access is fine.
func Read(v *snap.View) int { return len(v.Items) }

// CountBits reads a by-value bitmap; nothing shared is written.
func CountBits(idx *snap.Index) int { return idx.Bits(1).Count + len(idx.Bits(1).Words) }

// Rebind replaces a local reference; nothing shared is written.
func Rebind(v *snap.View) {
	v = nil
	_ = v
}

// CopyOut copies snapshot data into private storage; the snapshot is only
// the source, never the destination.
func CopyOut(v *snap.View) []string {
	out := make([]string, len(v.Items))
	copy(out, v.Items)
	return out
}

// Scrub carries the sanctioned exception: the caller deep-copied the view,
// so the mutation touches private data. The suppression must keep working
// or this file stops matching its golden expectations.
func Scrub(v *snap.View) {
	//annotlint:ignore snapshotimmut v is a private deep copy made by the caller, never the published view
	v.Items[0] = ""
}
