package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// frameChunk frames records back to back, the way ReadTail serves them.
func frameChunk(tb testing.TB, enc Encoding, recs []Record) []byte {
	tb.Helper()
	var chunk []byte
	for _, rec := range recs {
		payload, err := encodePayload(rec, enc)
		if err != nil {
			tb.Fatal(err)
		}
		if chunk, err = appendFrame(chunk, payload); err != nil {
			tb.Fatal(err)
		}
	}
	return chunk
}

// FuzzDecodeFrames drives the one frame scanner through the decoder a
// follower applies to whatever the network hands it. It must never panic,
// must never claim more bytes than it was given, the records it returns must
// re-encode to exactly the bytes it consumed, and a decode that ends without
// an error may stop only at an incomplete trailing frame.
func FuzzDecodeFrames(f *testing.F) {
	recs := testRecords()
	binChunk := frameChunk(f, EncodingBinary, recs)
	first := frameChunk(f, EncodingBinary, recs[:1])
	f.Add([]byte{})
	f.Add(binChunk)
	f.Add(frameChunk(f, EncodingJSON, recs))
	f.Add(binChunk[:len(binChunk)-3]) // torn inside the last payload
	f.Add(binChunk[:len(first)+5])    // torn inside the second header
	zero := append(append(append([]byte(nil), first...), make([]byte, frameHeaderSize)...), first...)
	f.Add(zero) // zero length prefix mid-chunk
	oversize := append([]byte(nil), first...)
	binary.LittleEndian.PutUint32(oversize, maxRecordBytes+1)
	f.Add(oversize)
	flipped := append([]byte(nil), binChunk...)
	flipped[len(first)+frameHeaderSize] ^= 0xFF // CRC failure, bytes follow
	f.Add(flipped)
	lastFlipped := append([]byte(nil), binChunk...)
	lastFlipped[len(lastFlipped)-1] ^= 0xFF // CRC failure on the last frame
	f.Add(lastFlipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, consumed, err := DecodeFrames(data)
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		var off int64
		for i, rec := range got {
			enc := Encoding(data[off+frameHeaderSize])
			again := frameChunk(t, enc, []Record{rec})
			end := min(off+int64(len(again)), consumed)
			if !bytes.Equal(again, data[off:end]) {
				t.Fatalf("record %d re-encodes to %x, the chunk holds %x", i, again, data[off:end])
			}
			off = end
		}
		if off != consumed {
			t.Fatalf("%d records re-encode to %d bytes, decode consumed %d", len(got), off, consumed)
		}
		if err == nil {
			if rest, n, rerr := DecodeFrames(data[consumed:]); len(rest) != 0 || n != 0 || rerr != nil {
				t.Fatalf("clean decode stopped at %d before a decodable frame (%d records, %d bytes, %v)", consumed, len(rest), n, rerr)
			}
		}
	})
}
