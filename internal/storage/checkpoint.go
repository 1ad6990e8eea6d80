package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"annotadb/internal/itemset"
	"annotadb/internal/relation"
)

// checkpointMagic opens every checkpoint stream; the trailing byte is the
// format version. Version 4 holds only what the engine cannot derive: the
// head fields, the dictionary, the tuples and the counters. Versions 3 and 2
// also held the engine's rule tiers and pattern catalogs between the tuples
// and the counters; they are still read, with those sections stepped over,
// and version 2's CoveredBytes (an offset into a byte-addressed log) reads
// as cursor 1 (see CheckpointMeta.CoveredCursor). Version 1 is refused.
var checkpointMagic = []byte("ADBCKPT\x04")

// Checkpoint is the serving state an engine cannot derive: the head fields,
// the relation (with its dictionary, preserving item codes exactly) and an
// opaque counter block for lifetime statistics. The rule tiers and pattern
// catalogs are re-mined from the relation on open. Together with a
// write-ahead log tail it restores an engine; see the wal package.
type Checkpoint struct {
	CheckpointMeta
	// Relation is the annotated relation, dictionary included. Writers hand
	// in a pinned *relation.View (so serialization never blocks the live
	// relation) or a *relation.Relation; ReadCheckpoint always produces a
	// *relation.Relation.
	Relation relation.Source
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
// format: magic, the head fields, varint-encoded sections (dictionary,
// tuples, counters), and a CRC32 trailer over everything preceding it. The
// encoding preserves dictionary item codes exactly.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck.Relation == nil {
		return fmt.Errorf("storage: write checkpoint: incomplete checkpoint (nil relation)")
	}
	var buf bytes.Buffer
	buf.Write(checkpointMagic)
	writeUvarint(&buf, ck.Epoch)
	writeUvarint(&buf, ck.CoveredCursor)
	writeUvarint(&buf, uint64(len(ck.ConfigFingerprint)))
	buf.WriteString(ck.ConfigFingerprint)
	if err := writeDictionary(&buf, ck.Relation.Dictionary()); err != nil {
		return err
	}
	writeTuples(&buf, ck.Relation)
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

// ReadCheckpoint parses a checkpoint stream written by WriteCheckpoint, or
// by an earlier version's writer. The whole stream is read and CRC-verified
// before any structure past the head fields is built, and any bytes after the CRC trailer are
// rejected as corruption — a checkpoint is installed by atomic rename, so a
// valid file is never longer than its trailer.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: read checkpoint: %w", err)
	}
	return decodeCheckpoint(raw)
}

// decodeCheckpoint parses a whole checkpoint stream held in raw.
func decodeCheckpoint(raw []byte) (*Checkpoint, error) {
	if len(raw) < len(checkpointMagic)+4 {
		return nil, corrupt("truncated: %d bytes", len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	meta, version, d, err := decodeHead(body)
	if err != nil {
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, corrupt("CRC mismatch: computed %08x, stored %08x", got, want)
	}
	dict, err := readDictionary(d)
	if err != nil {
		return nil, err
	}
	rel, err := readTuples(d, dict)
	if err != nil {
		return nil, err
	}
	if version < 4 {
		if err := d.skipRuleState(); err != nil {
			return nil, err
		}
	}
	nCounters, err := d.uvarint("counter count")
	if err != nil {
		return nil, err
	}
	if nCounters > uint64(len(d.buf)) { // every counter takes >= 1 byte
		return nil, corrupt("counter count %d exceeds remaining input", nCounters)
	}
	counters := make([]int64, 0, nCounters)
	for range nCounters {
		c, err := d.varint("counter")
		if err != nil {
			return nil, err
		}
		counters = append(counters, c)
	}
	if len(d.buf) != 0 {
		return nil, corrupt("%d trailing bytes inside CRC-covered body", len(d.buf))
	}
	return &Checkpoint{CheckpointMeta: meta, Relation: rel, Counters: counters}, nil
}

// WriteCheckpointFile installs the checkpoint at path with InstallFile, so a
// reader sees either the previous checkpoint or the new one, never a torn
// mixture.
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	return InstallFile(path, func(w io.Writer) error { return WriteCheckpoint(w, ck) })
}

// ReadCheckpointFile reads a checkpoint file written by WriteCheckpointFile.
// The file is read in one buffer sized by its length, not grown as a stream
// is. os.ErrNotExist passes through.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("storage: read checkpoint: %w", err)
	}
	return decodeCheckpoint(raw)
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

// decoder consumes a checkpoint body.
type decoder struct {
	buf []byte
}

// decodeHead checks the magic of a checkpoint stream and parses the fields
// every version opens with. It returns them with the format version and a
// decoder positioned after them.
func decodeHead(raw []byte) (CheckpointMeta, byte, *decoder, error) {
	n := len(checkpointMagic) - 1
	if len(raw) < len(checkpointMagic) || string(raw[:n]) != string(checkpointMagic[:n]) {
		return CheckpointMeta{}, 0, nil, corrupt("bad magic")
	}
	version := raw[n]
	if version < 2 || version > checkpointMagic[n] {
		return CheckpointMeta{}, 0, nil, corrupt("bad magic: unsupported version %d", version)
	}
	d := &decoder{buf: raw[len(checkpointMagic):]}
	var m CheckpointMeta
	var err error
	if m.Epoch, err = d.uvarint("epoch"); err != nil {
		return CheckpointMeta{}, 0, nil, err
	}
	if m.CoveredCursor, err = d.uvarint("covered cursor"); err != nil {
		return CheckpointMeta{}, 0, nil, err
	}
	if version == 2 {
		m.CoveredCursor = 1
	}
	fpLen, err := d.uvarint("config fingerprint length")
	if err != nil {
		return CheckpointMeta{}, 0, nil, err
	}
	fp, err := d.bytes(fpLen, "config fingerprint")
	if err != nil {
		return CheckpointMeta{}, 0, nil, err
	}
	m.ConfigFingerprint = string(fp)
	return m, version, d, nil
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
		if !dict.Holds(data) || !dict.Holds(annots) {
			return nil, corrupt("tuple %d holds an item the dictionary lacks", i)
		}
		batch = append(batch, relation.Tuple{Data: data, Annots: annots})
	}
	rel.Append(batch...)
	return rel, nil
}

// skipRuleState steps over the sections a version 2 or 3 checkpoint holds
// between its tuples and its counters: the valid and candidate rule tiers,
// then the data and annotation pattern catalogs. The engine re-mines them
// on open, so they are checked for shape and dropped.
func (d *decoder) skipRuleState() error {
	for range 2 { // a rule: its LHS, its RHS, and three counts
		if err := d.skipRecords("rule", true, 3); err != nil {
			return err
		}
	}
	for range 2 { // a catalog: its total, then patterns with one count each
		if _, err := d.uvarint("catalog total"); err != nil {
			return err
		}
		if err := d.skipRecords("catalog pattern", false, 1); err != nil {
			return err
		}
	}
	return nil
}

// skipRecords steps over a counted section whose records are an itemset,
// an item when withItem is set, and counts uvarints.
func (d *decoder) skipRecords(what string, withItem bool, counts int) error {
	n, err := d.uvarint(what + " count")
	if err != nil {
		return err
	}
	if n > uint64(len(d.buf)) { // every record takes >= 1 byte
		return corrupt("%s count %d exceeds remaining input", what, n)
	}
	for range n {
		if _, err := d.itemset(what); err != nil {
			return err
		}
		if withItem {
			if _, err := d.item(what + " RHS"); err != nil {
				return err
			}
		}
		for range counts {
			if _, err := d.uvarint(what + " count"); err != nil {
				return err
			}
		}
	}
	return nil
}
