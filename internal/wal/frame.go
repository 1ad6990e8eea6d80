package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Both log formats open with a 16-byte file header: an 8-byte magic whose
// last byte is the format version, then a little-endian uint64 — the epoch
// of a Log, the first cursor of a SegmentedLog segment.
const (
	logHeaderSize = 8 + 8
	segHeaderSize = logHeaderSize
)

// frameHeaderSize is the fixed prefix of every record frame: a
// little-endian uint32 payload length followed by a little-endian uint32
// CRC32 (IEEE) of the payload.
const frameHeaderSize = 8

// maxRecordBytes bounds a single frame's payload: appendFrame rejects larger
// payloads, which is what lets a scan classify a larger length prefix as
// damage (never a legitimate frame or an allocation request).
const maxRecordBytes = 256 << 20

// encodeHeader renders a file header: magic, then v.
func encodeHeader(magic []byte, v uint64) []byte {
	h := make([]byte, logHeaderSize)
	copy(h, magic)
	binary.LittleEndian.PutUint64(h[len(magic):], v)
	return h
}

// decodeHeader returns the value a file header carries, or false when b does
// not open with a full header stamped with magic.
func decodeHeader(b, magic []byte) (uint64, bool) {
	if len(b) < logHeaderSize || string(b[:len(magic)]) != string(magic) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[len(magic):]), true
}

// appendFrame appends the frame of payload — length, CRC, payload — to dst
// and returns the extended slice; from a nil dst that is one allocation.
// The payload must be 1..maxRecordBytes long: a scan reads a zero length as
// torn and a larger one as damage, so writing either would acknowledge a
// record recovery must discard.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record payload of %d bytes is outside the 1..%d-byte frame limit", len(payload), maxRecordBytes)
	}
	dst = slices.Grow(dst, frameHeaderSize+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// frameSize is the whole size of the frame whose header opens b, or 0 when
// b is shorter than a frame header.
func frameSize(b []byte) int64 {
	if len(b) < frameHeaderSize {
		return 0
	}
	return frameHeaderSize + int64(binary.LittleEndian.Uint32(b))
}

// frameEnd says how scanFrames stopped.
type frameEnd uint8

const (
	// frameClean: on a frame boundary, at the end of the data or where the
	// take callback stopped.
	frameClean frameEnd = iota
	// frameShort: torn — the last frame's header or payload runs past the
	// end of the data.
	frameShort
	// frameTorn: torn — a zero length prefix (never-written space that power
	// loss exposed), or a CRC failure on the last frame.
	frameTorn
	// frameDamage: a length prefix no encoder writes, or a CRC failure with
	// bytes following the frame. Never the artifact of a torn append.
	frameDamage
)

// scanFrames walks the record frames at the front of data, handing each
// intact payload to take in order (a nil take accepts every frame); take
// returns false to leave that frame unconsumed and stop. It returns the
// length of the accepted prefix, which always ends on a frame boundary, how
// the walk ended, and for a torn or damaged end an error saying why.
//
// This is the one torn-tail rule. Appends only ever shorten the tail, so a
// frame cut short, a zero length, or a bad CRC on the last frame is what a
// crash mid-append leaves; a bad CRC with bytes after it, or a length
// appendFrame never writes, is damage. Each caller decides what a torn end
// means for its range — see ARCHITECTURE.md "On-disk primitives".
func scanFrames(data []byte, take func(payload []byte) bool) (int64, frameEnd, error) {
	var off int64
	size := int64(len(data))
	for off < size {
		if size-off < frameHeaderSize {
			return off, frameShort, errors.New("frame header runs past the end")
		}
		length := binary.LittleEndian.Uint32(data[off:])
		if length == 0 {
			return off, frameTorn, errors.New("frame has zero length")
		}
		if length > maxRecordBytes {
			return off, frameDamage, fmt.Errorf("frame has impossible length %d", length)
		}
		end := off + frameHeaderSize + int64(length)
		if end > size {
			return off, frameShort, errors.New("frame payload runs past the end")
		}
		payload := data[off+frameHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			if end < size {
				return off, frameDamage, fmt.Errorf("frame failed its CRC with %d bytes following it", size-end)
			}
			return off, frameTorn, errors.New("frame failed its CRC")
		}
		// Capacity is capped: a kept payload shares data, and an append to
		// it must not overwrite the next frame.
		if take != nil && !take(payload[:len(payload):len(payload)]) {
			return off, frameClean, nil
		}
		off = end
	}
	return off, frameClean, nil
}
