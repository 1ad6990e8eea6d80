package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"annotadb/internal/apriori"
	"annotadb/internal/itemset"
	"annotadb/internal/relation"
	"annotadb/internal/rules"
)

// checkpointMagic opens every checkpoint stream; the trailing byte is the
// format version. Version 2 added CoveredBytes and is not readable by (or
// from) version 1.
var checkpointMagic = []byte("ADBCKPT\x02")

// Checkpoint is a full capture of serving state: the relation (with its
// dictionary, preserving item codes exactly), the engine's rule tiers and
// frequent-pattern catalogs, and an opaque counter block for lifetime
// statistics. Together with a write-ahead log tail it is sufficient to
// restore an engine without re-mining; see the wal package.
type Checkpoint struct {
	// Epoch is the checkpoint generation: it names the log epoch that
	// extends this checkpoint. Recovery replays only the uncovered tail of
	// a log whose epoch is one older (the artifact of a crash between
	// checkpoint install and log truncation) and rejects one that is newer.
	Epoch uint64
	// CoveredBytes is the log size (header included) at the moment the
	// checkpoint's state was captured: every log record before this offset
	// is folded into the checkpoint, every record at or after it is not.
	// Checkpoints are written in the background while the writer keeps
	// appending, so the log can legitimately outgrow this offset before it
	// is truncated.
	CoveredBytes uint64
	// ConfigFingerprint identifies the mining configuration the state was
	// produced under. Recovery refuses a checkpoint whose fingerprint does
	// not match the running configuration: restoring mined state under
	// different thresholds silently breaks the exactness contract.
	ConfigFingerprint string
	// Relation is the annotated relation, dictionary included. Writers hand
	// in a pinned *relation.View (so serialization never blocks the live
	// relation) or a *relation.Relation; ReadCheckpoint always produces a
	// *relation.Relation.
	Relation relation.Source
	// Valid and Candidates are the engine's rule tiers.
	Valid      *rules.Set
	Candidates *rules.Set
	// DataPatterns and AnnotPatterns are the frequent-pattern catalogs.
	DataPatterns  *apriori.Catalog
	AnnotPatterns *apriori.Catalog
	// Counters is an opaque block of lifetime counters (the storage codec
	// does not interpret them; the wal package maps them to engine stats).
	Counters []int64
}

// ErrCheckpointCorrupt reports a checkpoint stream that failed validation:
// bad magic, a CRC mismatch, a malformed section, or trailing garbage after
// the CRC trailer. A corrupt checkpoint is never partially applied.
type ErrCheckpointCorrupt struct {
	Reason string
}

// Error describes the corruption.
func (e *ErrCheckpointCorrupt) Error() string {
	return fmt.Sprintf("storage: corrupt checkpoint: %s", e.Reason)
}

func corrupt(format string, args ...any) error {
	return &ErrCheckpointCorrupt{Reason: fmt.Sprintf(format, args...)}
}

// WriteCheckpoint serializes a checkpoint to w in the binary checkpoint
// format: magic, varint-encoded sections (dictionary, tuples, rule tiers,
// catalogs, counters), and a CRC32 trailer over everything preceding it.
// The encoding preserves dictionary item codes exactly, so rule and catalog
// itemsets remain valid across a round trip.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck.Relation == nil || ck.Valid == nil || ck.Candidates == nil || ck.DataPatterns == nil || ck.AnnotPatterns == nil {
		return fmt.Errorf("storage: write checkpoint: incomplete checkpoint (nil section)")
	}
	var buf bytes.Buffer
	buf.Write(checkpointMagic)
	writeUvarint(&buf, ck.Epoch)
	writeUvarint(&buf, ck.CoveredBytes)
	writeUvarint(&buf, uint64(len(ck.ConfigFingerprint)))
	buf.WriteString(ck.ConfigFingerprint)
	if err := writeDictionary(&buf, ck.Relation.Dictionary()); err != nil {
		return err
	}
	writeTuples(&buf, ck.Relation)
	writeRuleSet(&buf, ck.Valid)
	writeRuleSet(&buf, ck.Candidates)
	writeCatalog(&buf, ck.DataPatterns)
	writeCatalog(&buf, ck.AnnotPatterns)
	writeUvarint(&buf, uint64(len(ck.Counters)))
	for _, c := range ck.Counters {
		writeVarint(&buf, c)
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	buf.Write(trailer[:])
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("storage: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint parses a checkpoint stream written by WriteCheckpoint. The
// whole stream is read and CRC-verified before any structure is built, and
// any bytes after the CRC trailer are rejected as corruption — a checkpoint
// is installed by atomic rename, so a valid file is never longer than its
// trailer.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: read checkpoint: %w", err)
	}
	if len(raw) < len(checkpointMagic)+4 {
		return nil, corrupt("truncated: %d bytes", len(raw))
	}
	if !bytes.Equal(raw[:len(checkpointMagic)], checkpointMagic) {
		return nil, corrupt("bad magic")
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, corrupt("CRC mismatch: computed %08x, stored %08x", got, want)
	}
	d := &decoder{buf: body[len(checkpointMagic):]}
	epoch, err := d.uvarint("epoch")
	if err != nil {
		return nil, err
	}
	covered, err := d.uvarint("covered bytes")
	if err != nil {
		return nil, err
	}
	fpLen, err := d.uvarint("config fingerprint length")
	if err != nil {
		return nil, err
	}
	fp, err := d.bytes(fpLen, "config fingerprint")
	if err != nil {
		return nil, err
	}
	dict, err := readDictionary(d)
	if err != nil {
		return nil, err
	}
	rel, err := readTuples(d, dict)
	if err != nil {
		return nil, err
	}
	valid, err := readRuleSet(d)
	if err != nil {
		return nil, err
	}
	cands, err := readRuleSet(d)
	if err != nil {
		return nil, err
	}
	dataCat, err := readCatalog(d)
	if err != nil {
		return nil, err
	}
	annotCat, err := readCatalog(d)
	if err != nil {
		return nil, err
	}
	nCounters, err := d.uvarint("counter count")
	if err != nil {
		return nil, err
	}
	counters := make([]int64, 0, nCounters)
	for i := uint64(0); i < nCounters; i++ {
		c, err := d.varint("counter")
		if err != nil {
			return nil, err
		}
		counters = append(counters, c)
	}
	if len(d.buf) != 0 {
		return nil, corrupt("%d trailing bytes inside CRC-covered body", len(d.buf))
	}
	return &Checkpoint{
		Epoch:             epoch,
		CoveredBytes:      covered,
		ConfigFingerprint: string(fp),
		Relation:          rel,
		Valid:             valid,
		Candidates:        cands,
		DataPatterns:      dataCat,
		AnnotPatterns:     annotCat,
		Counters:          counters,
	}, nil
}

// WriteCheckpointFile installs the checkpoint at path with InstallFile, so a
// reader sees either the previous checkpoint or the new one, never a torn
// mixture.
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	return InstallFile(path, func(w io.Writer) error { return WriteCheckpoint(w, ck) })
}

// ReadCheckpointFile reads a checkpoint file written by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// --- encoding helpers ----------------------------------------------------

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

func writeItemset(buf *bytes.Buffer, s itemset.Itemset) {
	writeUvarint(buf, uint64(len(s)))
	for _, it := range s {
		writeUvarint(buf, uint64(uint32(it)))
	}
}

// writeDictionary emits tokens grouped by kind in identifier order, so that
// re-interning them in the same order reproduces the exact item codes the
// tuples, rules, and catalogs reference.
func writeDictionary(buf *bytes.Buffer, dict *relation.Dictionary) error {
	emit := func(items itemset.Itemset, kind relation.Kind) error {
		writeUvarint(buf, uint64(len(items)))
		for i, it := range items {
			if it.ID() != i+1 {
				return fmt.Errorf("storage: write checkpoint: %s dictionary not dense at id %d (item %v)", kind, i+1, it)
			}
			tok, ok := dict.TokenOK(it)
			if !ok {
				return fmt.Errorf("storage: write checkpoint: item %v has no token", it)
			}
			writeUvarint(buf, uint64(len(tok)))
			buf.WriteString(tok)
		}
		return nil
	}
	if err := emit(dict.DataItems(), relation.KindData); err != nil {
		return err
	}
	if err := emit(dict.AnnotationItems(), relation.KindAnnotation); err != nil {
		return err
	}
	return emit(dict.DerivedItems(), relation.KindDerived)
}

func writeTuples(buf *bytes.Buffer, src relation.Source) {
	writeUvarint(buf, uint64(src.Len()))
	src.Each(func(i int, t relation.Tuple) bool {
		writeItemset(buf, t.Data)
		writeItemset(buf, t.Annots)
		return true
	})
}

func writeRuleSet(buf *bytes.Buffer, set *rules.Set) {
	sorted := set.Sorted()
	writeUvarint(buf, uint64(len(sorted)))
	for _, r := range sorted {
		writeItemset(buf, r.LHS)
		writeUvarint(buf, uint64(uint32(r.RHS)))
		writeUvarint(buf, uint64(r.PatternCount))
		writeUvarint(buf, uint64(r.LHSCount))
		writeUvarint(buf, uint64(r.N))
	}
}

func writeCatalog(buf *bytes.Buffer, cat *apriori.Catalog) {
	writeUvarint(buf, uint64(cat.Total()))
	entries := cat.Sorted()
	writeUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		writeItemset(buf, e.Set)
		writeUvarint(buf, uint64(e.Count))
	}
}

// decoder consumes the CRC-verified checkpoint body.
type decoder struct {
	buf []byte
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, corrupt("truncated %s", what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, corrupt("truncated %s", what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) bytes(n uint64, what string) ([]byte, error) {
	if uint64(len(d.buf)) < n {
		return nil, corrupt("truncated %s: need %d bytes, have %d", what, n, len(d.buf))
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out, nil
}

func (d *decoder) item(what string) (itemset.Item, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return itemset.None, err
	}
	it := itemset.Item(uint32(v))
	if uint64(uint32(v)) != v || !it.Valid() {
		return itemset.None, corrupt("invalid %s item code %d", what, v)
	}
	return it, nil
}

func (d *decoder) itemset(what string) (itemset.Itemset, error) {
	n, err := d.uvarint(what + " size")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) { // every item takes >= 1 byte
		return nil, corrupt("%s size %d exceeds remaining input", what, n)
	}
	items := make([]itemset.Item, 0, n)
	for i := uint64(0); i < n; i++ {
		it, err := d.item(what)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	s := itemset.FromSorted(items)
	if !s.Wellformed() {
		return nil, corrupt("%s not canonical", what)
	}
	return s, nil
}

func readDictionary(d *decoder) (*relation.Dictionary, error) {
	dict := relation.NewDictionary()
	type interner func(string) (itemset.Item, error)
	for _, kind := range []struct {
		name   string
		intern interner
	}{
		{"data", dict.InternData},
		{"annotation", dict.InternAnnotation},
		{"derived", dict.InternDerived},
	} {
		n, err := d.uvarint(kind.name + " token count")
		if err != nil {
			return nil, err
		}
		if n > uint64(len(d.buf)) { // every token record takes >= 1 byte
			return nil, corrupt("%s token count %d exceeds remaining input", kind.name, n)
		}
		for i := uint64(0); i < n; i++ {
			tl, err := d.uvarint(kind.name + " token length")
			if err != nil {
				return nil, err
			}
			raw, err := d.bytes(tl, kind.name+" token")
			if err != nil {
				return nil, err
			}
			it, err := kind.intern(string(raw))
			if err != nil {
				return nil, corrupt("re-intern %s token %q: %v", kind.name, raw, err)
			}
			if it.ID() != int(i)+1 {
				return nil, corrupt("%s token %q interned as id %d, expected %d", kind.name, raw, it.ID(), i+1)
			}
		}
	}
	return dict, nil
}

func readTuples(d *decoder, dict *relation.Dictionary) (*relation.Relation, error) {
	rel := relation.NewWithDictionary(dict)
	n, err := d.uvarint("tuple count")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) { // every tuple record takes >= 2 bytes
		return nil, corrupt("tuple count %d exceeds remaining input", n)
	}
	batch := make([]relation.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		data, err := d.itemset("tuple data")
		if err != nil {
			return nil, err
		}
		if data.HasAnnotation() {
			return nil, corrupt("tuple %d has annotation in data part", i)
		}
		annots, err := d.itemset("tuple annotations")
		if err != nil {
			return nil, err
		}
		if !annots.PureAnnotations() {
			return nil, corrupt("tuple %d has data value in annotation part", i)
		}
		batch = append(batch, relation.Tuple{Data: data, Annots: annots})
	}
	rel.Append(batch...)
	return rel, nil
}

func readRuleSet(d *decoder) (*rules.Set, error) {
	n, err := d.uvarint("rule count")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) {
		return nil, corrupt("rule count %d exceeds remaining input", n)
	}
	set := rules.NewSet()
	for i := uint64(0); i < n; i++ {
		lhs, err := d.itemset("rule LHS")
		if err != nil {
			return nil, err
		}
		rhs, err := d.item("rule RHS")
		if err != nil {
			return nil, err
		}
		pc, err := d.uvarint("rule pattern count")
		if err != nil {
			return nil, err
		}
		lc, err := d.uvarint("rule LHS count")
		if err != nil {
			return nil, err
		}
		nn, err := d.uvarint("rule N")
		if err != nil {
			return nil, err
		}
		r := rules.Rule{LHS: lhs, RHS: rhs, PatternCount: int(pc), LHSCount: int(lc), N: int(nn)}
		if err := r.Validate(); err != nil {
			return nil, corrupt("invalid rule: %v", err)
		}
		set.Add(r)
	}
	return set, nil
}

func readCatalog(d *decoder) (*apriori.Catalog, error) {
	total, err := d.uvarint("catalog total")
	if err != nil {
		return nil, err
	}
	cat := apriori.NewCatalog(int(total))
	n, err := d.uvarint("catalog entry count")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)) {
		return nil, corrupt("catalog entry count %d exceeds remaining input", n)
	}
	for i := uint64(0); i < n; i++ {
		set, err := d.itemset("catalog pattern")
		if err != nil {
			return nil, err
		}
		count, err := d.uvarint("catalog pattern count")
		if err != nil {
			return nil, err
		}
		cat.Add(set, int(count))
	}
	return cat, nil
}
