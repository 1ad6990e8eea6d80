package relation

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"annotadb/internal/itemset"
)

// resolveFixture holds data values 28, 85 and 41, raw annotations Annot_1
// and Annot_5, and the derived label Annot_gen.
func resolveFixture(t testing.TB) *Dictionary {
	t.Helper()
	r := FromTokens([][]string{{"28", "85"}, {"28", "41"}}, [][]string{{"Annot_1", "Annot_5"}})
	if _, err := r.Dictionary().InternDerived("Annot_gen"); err != nil {
		t.Fatal(err)
	}
	return r.Dictionary()
}

func TestResolveTokensAgainstDictionary(t *testing.T) {
	dict := resolveFixture(t)

	want, ok := dict.Lookup("Annot_1")
	if !ok {
		t.Fatal("fixture annotation missing from dictionary")
	}
	got, err := dict.ResolveUpdates([]TokenUpdate{{Tuple: 3, Annotation: "Annot_1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Index != 3 || got[0].Annotation != want {
		t.Errorf("existing annotation resolved to %+v, want index 3 item %v", got[0], want)
	}

	// An interned derived label resolves to itself, not to a raw twin.
	label, _ := dict.Lookup("Annot_gen")
	if it, err := dict.ResolveAnnotation("Annot_gen"); err != nil || it != label || !it.IsDerived() {
		t.Errorf("derived label resolved to %v, %v; want %v", it, err, label)
	}

	// An unseen annotation token interns fresh, exactly as recovery would.
	got, err = dict.ResolveUpdates([]TokenUpdate{{Tuple: 0, Annotation: "Annot_new"}})
	if err != nil {
		t.Fatal(err)
	}
	if it, ok := dict.Lookup("Annot_new"); !ok || it != got[0].Annotation || !it.IsAnnotation() || it.IsDerived() {
		t.Errorf("fresh annotation interned as %v (dict %v, ok %v)", got[0].Annotation, it, ok)
	}

	// A data value posing as an annotation is rejected, never re-interned.
	n := dict.Len()
	_, err = dict.ResolveUpdates([]TokenUpdate{{Tuple: 0, Annotation: "28"}})
	var ke *KindError
	if !errors.As(err, &ke) || ke.Token != "28" || ke.Have != KindData || ke.Want != KindAnnotation {
		t.Errorf("data token as an annotation: err = %v, want a *KindError data→annotation", err)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "update 0: ") {
		t.Errorf("batch error %q does not name the update", err)
	}
	if dict.Len() != n {
		t.Error("a refused token grew the dictionary")
	}

	tuples, err := dict.ResolveTuples([]TokenTuple{{Values: []string{"28", "777"}, Annotations: []string{"Annot_1", "Annot_gen"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("resolved %d tuples, want 1", len(tuples))
	}
	if _, ok := dict.Lookup("777"); !ok {
		t.Error("new data value was not interned")
	}
	if annots := dict.Tokens(tuples[0].Annots); !slices.Equal(annots, []string{"Annot_1", "Annot_gen"}) {
		t.Errorf("tuple annotations = %v, want [Annot_1 Annot_gen]", annots)
	}

	// An annotation, raw or derived, is refused as a value.
	for _, tok := range []string{"Annot_5", "Annot_gen"} {
		if _, err := dict.ResolveTuples([]TokenTuple{{Values: []string{tok}}}); !errors.As(err, &ke) || ke.Want != KindData {
			t.Errorf("annotation %s as a value: err = %v, want a *KindError", tok, err)
		}
	}
	if _, err := dict.ResolveAnnotation(""); err == nil {
		t.Error("empty annotation token resolved")
	}
}

func TestImportKeepsKind(t *testing.T) {
	src := resolveFixture(t)
	dst := NewDictionary()
	for _, tok := range []string{"28", "Annot_1", "Annot_gen"} {
		it, _ := src.Lookup(tok)
		got, err := dst.Import(tok, it)
		if err != nil {
			t.Fatal(err)
		}
		if kindOf(got) != kindOf(it) || dst.Token(got) != tok {
			t.Errorf("import %s: %v in %s, want kind %s", tok, got, kindOf(got), kindOf(it))
		}
	}
	// A token the destination holds under another kind is refused.
	raw, _ := dst.Lookup("Annot_1")
	if _, err := dst.Import("28", raw); err == nil {
		t.Error("imported a data token as an annotation")
	}
}

// FuzzResolveTokens feeds arbitrary token sequences through the write-path
// rule. The input is a ';'-separated list of tuples, each a ','-separated
// list of tokens whose first byte picks the role: 'v' a value, 'a' an
// annotation, 'd' a derived label created (InternDerived) before the tuple
// resolves. The rule must never panic; a resolved tuple must render back to
// the tokens it was resolved from (the round trip token-form WAL records
// rely on); and a token bound to one kind is refused as the other, except
// that an existing derived label used as an annotation resolves to itself.
func FuzzResolveTokens(f *testing.F) {
	f.Add("v28,v85,aAnnot_1;v28,aAnnot_1,aAnnot_5")
	f.Add("dAnnot_gen;v28,aAnnot_gen;vAnnot_gen")
	f.Add("v28;a28")
	f.Add("aAnnot_1;vAnnot_1")
	f.Add("v28,a28")
	f.Add("v,a;d")
	f.Add("aAnnot_1;dAnnot_1;v28;d28")
	f.Fuzz(func(t *testing.T, input string) {
		dict := NewDictionary()
		for _, rec := range strings.Split(input, ";") {
			var values, annots []string
			for _, field := range strings.Split(rec, ",") {
				if field == "" {
					continue
				}
				role, tok := field[0], field[1:]
				switch role {
				case 'v':
					values = append(values, tok)
				case 'a':
					annots = append(annots, tok)
				case 'd':
					before, known := dict.Lookup(tok)
					it, err := dict.InternDerived(tok)
					if wantErr := tok == "" || known && !before.IsDerived(); (err != nil) != wantErr {
						t.Fatalf("InternDerived(%q) = %v, %v; known %v as %v", tok, it, err, known, before)
					}
				}
			}
			checkResolveTuple(t, dict, values, annots)
		}
	})
}

// checkResolveTuple resolves one tuple and checks the outcome against the
// rule, decided from the dictionary as it stood before the call.
func checkResolveTuple(t *testing.T, dict *Dictionary, values, annots []string) {
	t.Helper()
	before := make(map[string]itemset.Item)
	wantErr := false
	for _, tok := range values {
		it, ok := dict.Lookup(tok)
		wantErr = wantErr || tok == "" || ok && it.IsAnnotation() || slices.Contains(annots, tok)
		before[tok] = it
	}
	for _, tok := range annots {
		it, ok := dict.Lookup(tok)
		wantErr = wantErr || tok == "" || ok && !it.IsAnnotation()
		before[tok] = it
	}
	tu, err := dict.ResolveTuple(values, annots)
	if (err != nil) != wantErr {
		t.Fatalf("ResolveTuple(%q, %q) error = %v, want error %v", values, annots, err, wantErr)
	}
	if err != nil {
		return
	}
	for _, tok := range annots {
		if it := before[tok]; it != itemset.None && !tu.Annots.Contains(it) {
			t.Fatalf("annotation %q did not resolve to its interned item %v: %v", tok, it, tu.Annots)
		}
	}
	if got, want := sortedSet(dict.Tokens(tu.Data)), sortedSet(values); !slices.Equal(got, want) {
		t.Fatalf("values round trip %q, want %q", got, want)
	}
	if got, want := sortedSet(dict.Tokens(tu.Annots)), sortedSet(annots); !slices.Equal(got, want) {
		t.Fatalf("annotations round trip %q, want %q", got, want)
	}
}

func sortedSet(toks []string) []string {
	out := slices.Clone(toks)
	slices.Sort(out)
	return slices.Compact(out)
}
