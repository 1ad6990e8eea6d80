package relation

import (
	"fmt"
	"sync"
	"testing"

	"annotadb/internal/itemset"
)

// Race-detector coverage for the store's concurrency contract: Relation and
// Dictionary are safe for concurrent use (internal locks), and the values
// read methods hand out (tuples, itemsets, a view's postings) stay valid
// while writers keep mutating, because mutation replaces slices and copies
// shared bitmaps instead of writing into shared backing arrays. Run with
// -race; without assertions
// failing, the detector is the oracle.

func TestDictionaryConcurrentInternAndLookup(t *testing.T) {
	d := NewDictionary()
	seedAnnot, err := d.InternAnnotation("Annot_seed")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 4 {
				case 0:
					if _, err := d.InternData(fmt.Sprintf("d%d_%d", g, i)); err != nil {
						t.Errorf("InternData: %v", err)
						return
					}
				case 1:
					if _, err := d.InternAnnotation(fmt.Sprintf("Annot_%d_%d", g, i)); err != nil {
						t.Errorf("InternAnnotation: %v", err)
						return
					}
				case 2:
					if tok := d.Token(seedAnnot); tok != "Annot_seed" {
						t.Errorf("Token(seed) = %q", tok)
						return
					}
					d.Lookup("Annot_seed")
					d.Len()
				default:
					d.AnnotationItems()
					d.CountOf(KindData)
					d.Clone()
				}
			}
		}(g)
	}
	wg.Wait()
	if _, ok := d.Lookup("Annot_seed"); !ok {
		t.Error("seed annotation lost")
	}
}

func TestRelationConcurrentReadersOneWriter(t *testing.T) {
	rel := New()
	dict := rel.Dictionary()
	annots := make([]itemset.Item, 4)
	for i := range annots {
		annots[i] = MustAnnotation(dict, fmt.Sprintf("Annot_%d", i))
	}
	for i := 0; i < 50; i++ {
		rel.Append(MustTuple(dict, []string{fmt.Sprintf("v%d", i%7), "shared"}, nil))
	}
	base := rel.Len()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 6; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 6 {
				case 0:
					tu, err := rel.Tuple(i % base)
					if err != nil {
						t.Errorf("Tuple: %v", err)
						return
					}
					_ = tu.Items() // touches both item slices
				case 1:
					rel.Each(func(_ int, tu Tuple) bool { return !tu.Annotated() })
				case 2:
					rel.CountPattern(itemset.New(annots[i%len(annots)]))
				case 3:
					rel.View().Postings(annots[i%len(annots)]).Each(func(int) bool { return true })
					rel.Frequency(annots[i%len(annots)])
				case 4:
					rel.Stats()
					rel.Annotations()
				default:
					rel.EachFrequency(func(itemset.Item, int) {})
					rel.Version()
				}
			}
		}(g)
	}

	// One writer: the serving layer's shape — appends plus annotation
	// attach/detach cycles against the initial range.
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			rel.Append(MustTuple(dict, []string{fmt.Sprintf("v%d", i%7)}, nil))
		case 1:
			if _, _, err := rel.ApplyUpdates([]AnnotationUpdate{
				{Index: i % base, Annotation: annots[i%len(annots)]},
			}); err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
		default:
			if _, _, err := rel.ApplyRemovals([]AnnotationUpdate{
				{Index: (i - 1) % base, Annotation: annots[(i-1)%len(annots)]},
			}); err != nil {
				t.Fatalf("ApplyRemovals: %v", err)
			}
		}
	}
	close(stop)
	readers.Wait()

	if err := rel.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent traffic: %v", err)
	}
}

// TestTupleValuesStableAcrossMutation pins the copy-on-write contract that
// the serving layer's lock-free readers rely on: a Tuple value captured
// before an annotation attach keeps its pre-attach contents, because
// attaching replaces the tuple's annotation slice rather than mutating the
// shared array in place.
func TestTupleValuesStableAcrossMutation(t *testing.T) {
	rel := New()
	dict := rel.Dictionary()
	a1 := MustAnnotation(dict, "Annot_1")
	a2 := MustAnnotation(dict, "Annot_2")
	rel.Append(MustTuple(dict, []string{"28", "85"}, []string{"Annot_1"}))

	before, err := rel.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.AddAnnotation(0, a2); err != nil {
		t.Fatal(err)
	}
	if before.Annots.Contains(a2) {
		t.Error("captured tuple saw a later attach: shared backing array was mutated")
	}
	if !before.Annots.Contains(a1) || before.Annots.Len() != 1 {
		t.Errorf("captured tuple corrupted: %v", before.Annots)
	}
	after, err := rel.Tuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Annots.Contains(a2) {
		t.Error("fresh read missing the attach")
	}

	if err := rel.RemoveAnnotation(0, a1); err != nil {
		t.Fatal(err)
	}
	if !after.Annots.Contains(a1) {
		t.Error("captured tuple saw a later detach: shared backing array was mutated")
	}
}
