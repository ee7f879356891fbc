// Package kv defines the key-value types shared by every KV-SSD design in
// this repository: entities (a key plus either an inline value or a pointer
// into the value log), their byte encoding inside flash pages, and the
// page-buffer reader/writer that lays records out behind a per-page offset
// table, the way the on-device formats in the paper do.
//
// Keys and values are arbitrary byte strings. Keys compare lexicographically
// (bytes.Compare); the empty key is valid. A nil value with the Tombstone
// flag set encodes a deletion marker.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors shared by all device implementations.
var (
	// ErrNotFound is returned by Get when no live version of the key exists.
	ErrNotFound = errors.New("kv: key not found")
	// ErrDeviceFull is returned by Put when the device cannot allocate flash
	// space even after compaction and garbage collection.
	ErrDeviceFull = errors.New("kv: device full")
	// ErrKeyTooLarge is returned when a key exceeds the device limit.
	ErrKeyTooLarge = errors.New("kv: key too large")
	// ErrValueTooLarge is returned when a value exceeds the device limit.
	ErrValueTooLarge = errors.New("kv: value too large")
	// ErrEmptyKey is returned for zero-length keys, which the on-device
	// formats reserve.
	ErrEmptyKey = errors.New("kv: empty key")
	// ErrCorrupt reports a malformed on-flash record, which indicates a bug
	// in this simulator rather than a recoverable device condition.
	ErrCorrupt = errors.New("kv: corrupt record")
)

// MaxKeyLen and MaxValueLen bound the sizes the encodings below support.
const (
	MaxKeyLen   = 4096
	MaxValueLen = 1 << 20
)

// Compare orders keys lexicographically, matching the sort order of level
// lists and meta segments. An 8-byte big-endian prefix probe decides most
// compares without the bytes.Compare call: when both keys carry 8+ bytes,
// unequal prefixes order exactly as the full lexicographic compare does.
func Compare(a, b []byte) int {
	if len(a) >= 8 && len(b) >= 8 {
		pa := binary.BigEndian.Uint64(a)
		pb := binary.BigEndian.Uint64(b)
		if pa != pb {
			if pa < pb {
				return -1
			}
			return 1
		}
	}
	return bytes.Compare(a, b)
}

// Pair is a user-visible key-value pair.
type Pair struct {
	Key   []byte
	Value []byte
}

// Op is one operation of a mixed put/delete batch: a put of Key → Value,
// or, when Delete is set, a delete of Key (Value ignored).
type Op struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Entity is one KV entity as stored in a data segment (group) page: the key,
// the 32-bit hash of the key, and either the inline value or a pointer to
// the value's location in the value log (paper §4.1, "KV entity").
type Entity struct {
	Key  []byte
	Hash uint32

	// Value holds the inline value bytes when InLog is false.
	Value []byte

	// InLog marks the value as residing in the value log; LogPtr is then the
	// opaque location (page PPA and intra-page offset packed by the owner)
	// and ValueLen the value's size in bytes.
	InLog    bool
	LogPtr   uint64
	ValueLen int

	// Tombstone marks a deletion. Tombstones carry no value.
	Tombstone bool
}

// Len returns the logical length in bytes of the entity's value regardless
// of where it is stored. Tombstones have length 0.
func (e *Entity) Len() int {
	if e.Tombstone {
		return 0
	}
	if e.InLog {
		return e.ValueLen
	}
	return len(e.Value)
}

// entity flags
const (
	flagInLog     = 1 << 0
	flagTombstone = 1 << 1
)

// EncodedSize returns the exact number of bytes AppendEntity will write.
func (e *Entity) EncodedSize() int {
	n := UvarintLen(uint64(len(e.Key))) + len(e.Key) + 4 + 1 // keylen, key, hash, flags
	switch {
	case e.Tombstone:
	case e.InLog:
		n += 8 + UvarintLen(uint64(e.ValueLen))
	default:
		n += UvarintLen(uint64(len(e.Value))) + len(e.Value)
	}
	return n
}

// InlineSize returns the encoded size e would have with a vlen-byte value
// stored inline. Compaction uses it to cost folding a log-resident value
// into a group without materialising the value bytes.
func (e *Entity) InlineSize(vlen int) int {
	return UvarintLen(uint64(len(e.Key))) + len(e.Key) + 4 + 1 +
		UvarintLen(uint64(vlen)) + vlen
}

// AppendEntity appends the encoding of e to buf and returns the extended
// slice.
func AppendEntity(buf []byte, e *Entity) []byte {
	buf = AppendUvarint(buf, uint64(len(e.Key)))
	buf = append(buf, e.Key...)
	buf = binary.LittleEndian.AppendUint32(buf, e.Hash)
	var flags byte
	if e.InLog {
		flags |= flagInLog
	}
	if e.Tombstone {
		flags |= flagTombstone
	}
	buf = append(buf, flags)
	switch {
	case e.Tombstone:
	case e.InLog:
		buf = binary.LittleEndian.AppendUint64(buf, e.LogPtr)
		buf = AppendUvarint(buf, uint64(e.ValueLen))
	default:
		buf = AppendUvarint(buf, uint64(len(e.Value)))
		buf = append(buf, e.Value...)
	}
	return buf
}

// DecodeEntity decodes one entity from the front of buf, returning the
// entity and the number of bytes consumed. The returned entity aliases buf;
// callers that retain it across page reuse must copy.
func DecodeEntity(buf []byte) (Entity, int, error) {
	var e Entity
	n, err := DecodeEntityInto(&e, buf)
	return e, n, err
}

// DecodeEntityInto decodes one entity from the front of buf directly into
// *e, avoiding the by-value Entity copies of DecodeEntity on hot decode
// paths. It overwrites every field of *e and returns the bytes consumed.
// The decoded entity aliases buf.
func DecodeEntityInto(e *Entity, buf []byte) (int, error) {
	*e = Entity{}
	klen, n := Uvarint(buf)
	if n <= 0 || klen > MaxKeyLen || int(klen) > len(buf)-n {
		return 0, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	off := n
	e.Key = buf[off : off+int(klen)]
	off += int(klen)
	if len(buf)-off < 5 {
		return 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	e.Hash = binary.LittleEndian.Uint32(buf[off:])
	off += 4
	flags := buf[off]
	off++
	e.InLog = flags&flagInLog != 0
	e.Tombstone = flags&flagTombstone != 0
	switch {
	case e.Tombstone:
	case e.InLog:
		if len(buf)-off < 8 {
			return 0, fmt.Errorf("%w: truncated log pointer", ErrCorrupt)
		}
		e.LogPtr = binary.LittleEndian.Uint64(buf[off:])
		off += 8
		vlen, n := Uvarint(buf[off:])
		if n <= 0 || vlen > MaxValueLen {
			return 0, fmt.Errorf("%w: bad log value length", ErrCorrupt)
		}
		off += n
		e.ValueLen = int(vlen)
	default:
		vlen, n := Uvarint(buf[off:])
		if n <= 0 || vlen > MaxValueLen || int(vlen) > len(buf)-off-n {
			return 0, fmt.Errorf("%w: bad value length", ErrCorrupt)
		}
		off += n
		e.Value = buf[off : off+int(vlen)]
		off += int(vlen)
		e.ValueLen = int(vlen)
	}
	return off, nil
}

// Clone returns a deep copy of e that does not alias any page buffer.
func (e *Entity) Clone() Entity {
	c := *e
	c.Key = append([]byte(nil), e.Key...)
	if e.Value != nil {
		c.Value = append([]byte(nil), e.Value...)
	}
	return c
}

// --- varint primitives --------------------------------------------------
//
// The varint codec is exported: pink's records, core's value-log fragments
// and nand's flyweight parser encode with the same one. Fixed-width fields
// everywhere use encoding/binary.

// AppendUvarint appends v as an unsigned LEB128 varint.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Uvarint decodes the varint at the start of b and its length in bytes;
// n == 0 means b holds no complete varint of at most 10 bytes.
func Uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1 // single-byte fast path: almost every length
	}
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// UvarintLen is len(AppendUvarint(nil, v)).
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
