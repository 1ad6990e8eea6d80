package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"annotadb/internal/relation"
)

// Kind identifies the serving mutation a record carries.
type Kind uint8

const (
	// KindAddAnnotations is a Case 3 annotation batch.
	KindAddAnnotations Kind = iota + 1
	// KindRemoveAnnotations is an annotation-removal batch.
	KindRemoveAnnotations
	// KindAddTuples is a tuple batch (the paper's Case 1 or Case 2,
	// re-routed at replay time by whether any tuple carries annotations).
	KindAddTuples
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAddAnnotations:
		return "add-annotations"
	case KindRemoveAnnotations:
		return "remove-annotations"
	case KindAddTuples:
		return "add-tuples"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Encoding selects how a record's body is serialized inside its frame.
type Encoding uint8

const (
	// EncodingBinary is the compact varint encoding. The default.
	EncodingBinary Encoding = iota
	// EncodingJSON serializes the body as JSON, for logs meant to be
	// inspected or consumed by other tooling.
	EncodingJSON
)

// String names the encoding using the flag spellings of cmd/annotserve.
func (e Encoding) String() string {
	switch e {
	case EncodingBinary:
		return "binary"
	case EncodingJSON:
		return "json"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// ParseEncoding parses the flag spellings accepted by cmd/annotserve.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "", "binary":
		return EncodingBinary, nil
	case "json":
		return EncodingJSON, nil
	default:
		return EncodingBinary, fmt.Errorf("wal: unknown record encoding %q (want binary or json)", s)
	}
}

// Update is the record form of one annotation attachment or detachment: the
// relation package's token-form update, with fields Tuple (zero-based
// position) and Annotation (token). Its JSON tags are the JSON record
// encoding.
type Update = relation.TokenUpdate

// TupleSpec is the record form of one tuple to append: the relation
// package's token-form tuple, with fields Values and Annotations (tokens).
type TupleSpec = relation.TokenTuple

// Record is one logged serving mutation: exactly one coalesced batch as the
// serving writer applied it.
type Record struct {
	// Kind says which mutation the record carries.
	Kind Kind
	// Updates holds the batch for KindAddAnnotations and
	// KindRemoveAnnotations.
	Updates []Update `json:",omitempty"`
	// Tuples holds the batch for KindAddTuples.
	Tuples []TupleSpec `json:",omitempty"`
}

// recordBody is the JSON wire form of a record's body (the kind lives in
// the frame, not the body, so both encodings share framing).
type recordBody struct {
	Updates []Update    `json:"updates,omitempty"`
	Tuples  []TupleSpec `json:"tuples,omitempty"`
}

// ErrRecordCorrupt reports a record payload that passed the frame CRC but
// failed structural decoding — a version mismatch or an encoder bug, never
// a torn write (torn writes fail the frame check and are handled by Replay).
type ErrRecordCorrupt struct {
	Reason string
}

// Error describes the corruption.
func (e *ErrRecordCorrupt) Error() string {
	return fmt.Sprintf("wal: corrupt record: %s", e.Reason)
}

func badRecord(format string, args ...any) error {
	return &ErrRecordCorrupt{Reason: fmt.Sprintf(format, args...)}
}

// encodePayload renders the record as a frame payload: one encoding byte,
// one kind byte, then the body in the chosen encoding.
func encodePayload(rec Record, enc Encoding) ([]byte, error) {
	switch rec.Kind {
	case KindAddAnnotations, KindRemoveAnnotations, KindAddTuples:
	default:
		return nil, fmt.Errorf("wal: encode record: unknown kind %v", rec.Kind)
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(enc))
	buf.WriteByte(byte(rec.Kind))
	switch enc {
	case EncodingJSON:
		body, err := json.Marshal(recordBody{Updates: rec.Updates, Tuples: rec.Tuples})
		if err != nil {
			return nil, fmt.Errorf("wal: encode record: %w", err)
		}
		buf.Write(body)
	case EncodingBinary:
		writeUvarint(&buf, uint64(len(rec.Updates)))
		for _, u := range rec.Updates {
			writeUvarint(&buf, uint64(u.Tuple))
			writeString(&buf, u.Annotation)
		}
		writeUvarint(&buf, uint64(len(rec.Tuples)))
		for _, t := range rec.Tuples {
			writeStrings(&buf, t.Values)
			writeStrings(&buf, t.Annotations)
		}
	default:
		return nil, fmt.Errorf("wal: encode record: unknown encoding %v", enc)
	}
	return buf.Bytes(), nil
}

// decodePayload parses a frame payload produced by encodePayload. Both
// encodings are always accepted, so a log written under one setting can be
// replayed under another.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) < 2 {
		return Record{}, badRecord("payload too short: %d bytes", len(payload))
	}
	enc := Encoding(payload[0])
	rec := Record{Kind: Kind(payload[1])}
	switch rec.Kind {
	case KindAddAnnotations, KindRemoveAnnotations, KindAddTuples:
	default:
		return Record{}, badRecord("unknown kind %d", payload[1])
	}
	body := payload[2:]
	switch enc {
	case EncodingJSON:
		var rb recordBody
		if err := json.Unmarshal(body, &rb); err != nil {
			return Record{}, badRecord("bad JSON body: %v", err)
		}
		rec.Updates, rec.Tuples = rb.Updates, rb.Tuples
	case EncodingBinary:
		d := &recordDecoder{buf: body}
		nu, err := d.uvarint("update count")
		if err != nil {
			return Record{}, err
		}
		if nu > uint64(len(d.buf)) { // every update takes >= 2 bytes
			return Record{}, badRecord("update count %d exceeds remaining input", nu)
		}
		for i := uint64(0); i < nu; i++ {
			idx, err := d.uvarint("tuple index")
			if err != nil {
				return Record{}, err
			}
			tok, err := d.string("annotation token")
			if err != nil {
				return Record{}, err
			}
			rec.Updates = append(rec.Updates, Update{Tuple: int(idx), Annotation: tok})
		}
		nt, err := d.uvarint("tuple count")
		if err != nil {
			return Record{}, err
		}
		if nt > uint64(len(d.buf)) { // every tuple takes >= 2 bytes
			return Record{}, badRecord("tuple count %d exceeds remaining input", nt)
		}
		for i := uint64(0); i < nt; i++ {
			values, err := d.strings("tuple values")
			if err != nil {
				return Record{}, err
			}
			annots, err := d.strings("tuple annotations")
			if err != nil {
				return Record{}, err
			}
			rec.Tuples = append(rec.Tuples, TupleSpec{Values: values, Annotations: annots})
		}
		if len(d.buf) != 0 {
			return Record{}, badRecord("%d trailing bytes in binary body", len(d.buf))
		}
	default:
		return Record{}, badRecord("unknown encoding %d", payload[0])
	}
	return rec, nil
}

// --- binary body helpers -------------------------------------------------

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func writeStrings(buf *bytes.Buffer, ss []string) {
	writeUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		writeString(buf, s)
	}
}

type recordDecoder struct {
	buf []byte
}

func (d *recordDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, badRecord("truncated %s", what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *recordDecoder) string(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)) < n {
		return "", badRecord("truncated %s: need %d bytes, have %d", what, n, len(d.buf))
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func (d *recordDecoder) strings(what string) ([]string, error) {
	n, err := d.uvarint(what + " count")
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil // keep nil, matching the encoder's input
	}
	if n > uint64(len(d.buf)) { // every string takes >= 1 byte
		return nil, badRecord("%s count %d exceeds remaining input", what, n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := d.string(what)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
