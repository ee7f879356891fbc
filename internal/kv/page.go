package kv

import (
	"fmt"
	"hash/crc32"
)

// Page layout used by data segments, data segment groups and meta segments:
//
//	[u16 count][u16 aux][u16 extraLen][extra bytes][records →   ...   ← offset table]
//
// Records grow from the front; a table of u16 record offsets grows from the
// back of the page (one entry per record, in append order), giving O(1)
// random access and binary search without decoding the whole page. The aux
// field carries the owner's per-page bits — AnyKey stores its two
// hash-collision bits there (paper §4.1, Fig. 7). The extra region holds the
// group's key-sorted location table on first pages (paper §4.4, range query
// support).
//
// Seal/Verify add an end-to-end CRC over the page, standing in for the ECC
// a real flash controller applies: a sealed page whose bytes were disturbed
// fails Verify instead of decoding garbage.
const pageHeaderSize = 6

// PageWriter incrementally fills one fixed-size flash page buffer.
type PageWriter struct {
	buf   []byte // full page, len == page size
	head  int    // next record write position
	tail  int    // start of the offset table region
	count int
}

// NewPageWriter wraps a page buffer of exactly the flash page size. The
// buffer must be zero-filled — callers pass freshly allocated page images
// (the flash array takes ownership of programmed pages, so images are never
// reused), and skipping a redundant clear here halves the per-page memset
// cost on the write path. extra is copied into the page's extra region (may
// be nil). It panics if extra cannot fit, since callers size extras up
// front.
func NewPageWriter(buf []byte, extra []byte) *PageWriter {
	if pageHeaderSize+len(extra) > len(buf) {
		panic(fmt.Sprintf("kv: page extra region %d too large for page %d", len(extra), len(buf)))
	}
	w := &PageWriter{buf: buf, head: pageHeaderSize + len(extra), tail: len(buf) - crcSize}
	put16(buf[4:], uint16(len(extra)))
	copy(buf[pageHeaderSize:], extra)
	return w
}

// Free returns the number of payload bytes still available; appending a
// record consumes its encoded size plus two offset-table bytes.
func (w *PageWriter) Free() int { return w.tail - w.head }

// Count returns the number of records appended so far.
func (w *PageWriter) Count() int { return w.count }

// Fits reports whether a record of n encoded bytes can still be appended.
func (w *PageWriter) Fits(n int) bool { return n+2 <= w.Free() }

// AppendEntity appends e as the next record. It reports false, leaving the
// page unchanged, when the record does not fit.
func (w *PageWriter) AppendEntity(e *Entity) bool {
	n := e.EncodedSize()
	if !w.Fits(n) {
		return false
	}
	w.recordOffset()
	end := len(AppendEntity(w.buf[:w.head], e))
	w.head = end
	return true
}

// AppendRaw appends pre-encoded record bytes (used by meta segments, whose
// records are not entities). It reports false when the record does not fit.
func (w *PageWriter) AppendRaw(rec []byte) bool {
	if !w.Fits(len(rec)) {
		return false
	}
	w.recordOffset()
	copy(w.buf[w.head:], rec)
	w.head += len(rec)
	return true
}

func (w *PageWriter) recordOffset() {
	w.tail -= 2
	put16(w.buf[w.tail:], uint16(w.head))
	w.count++
	put16(w.buf[0:], uint16(w.count))
}

// SetAux stores the owner-defined 16-bit aux field (collision bits).
func (w *PageWriter) SetAux(v uint16) { put16(w.buf[2:], v) }

// PageReader provides random access to the records of a filled page.
type PageReader struct {
	buf []byte
}

// OpenPage wraps a page buffer previously produced by PageWriter.
func OpenPage(buf []byte) PageReader { return PageReader{buf: buf} }

// Count returns the number of records in the page.
func (r PageReader) Count() int { return int(get16(r.buf[0:])) }

// Aux returns the owner-defined 16-bit aux field.
func (r PageReader) Aux() uint16 { return get16(r.buf[2:]) }

// Extra returns the extra region written at page-build time.
func (r PageReader) Extra() []byte {
	n := int(get16(r.buf[4:]))
	return r.buf[pageHeaderSize : pageHeaderSize+n]
}

// Record returns the raw bytes of record i extending to the end of the
// record region; decoders read their own length.
func (r PageReader) Record(i int) []byte {
	off := int(get16(r.buf[len(r.buf)-crcSize-2*(i+1):]))
	return r.buf[off:]
}

// Entity decodes record i as a KV entity. The entity aliases the page.
func (r PageReader) Entity(i int) (Entity, error) {
	e, _, err := DecodeEntity(r.Record(i))
	return e, err
}

// EntityInto decodes record i directly into *e, skipping the by-value
// copies of Entity. The decoded entity aliases the page.
func (r PageReader) EntityInto(e *Entity, i int) error {
	_, err := DecodeEntityInto(e, r.Record(i))
	return err
}

// RecordOffset returns the page-relative byte offset of record i. Record
// lengths are self-describing; record i ends where record i+1 starts (or
// earlier, for the final record).
func (r PageReader) RecordOffset(i int) int {
	return int(get16(r.buf[len(r.buf)-crcSize-2*(i+1):]))
}

// PayloadBounds returns the record region's page-relative bounds: lo is the
// first byte after the extra region, hi the start of the offset table.
// Callers inspecting raw page images (the flyweight payload store) use the
// bounds to validate record offsets without re-deriving the layout.
func (r PageReader) PayloadBounds() (lo, hi int) {
	n := int(get16(r.buf[4:]))
	return pageHeaderSize + n, len(r.buf) - crcSize - 2*r.Count()
}

// EntityHash returns record i's key hash without decoding the full entity:
// the hash sits right after the key, so only the key-length varint is
// parsed. This is the probe of AnyKey's in-page binary search — the full
// decode is paid only on a hash match.
func (r PageReader) EntityHash(i int) (uint32, error) {
	rec := r.Record(i)
	klen, n := Uvarint(rec)
	if n <= 0 || klen > MaxKeyLen || int(klen) > len(rec)-n-4 {
		return 0, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	return u32(rec[n+int(klen):]), nil
}

func put16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func get16(b []byte) uint16    { return uint16(b[0]) | uint16(b[1])<<8 }

// crcSize is the footer reserved at the very end of every page for the
// Seal checksum; the offset table grows downward from just above it.
const crcSize = 4

// Seal writes a CRC32 (Castagnoli) over the page contents into the reserved
// trailing four bytes. Call it once, after the final append or patch.
func (w *PageWriter) Seal() { SealPage(w.buf) }

// SealPage seals a finished page image in place (see PageWriter.Seal).
func SealPage(img []byte) {
	n := len(img)
	sum := crc32.Checksum(img[:n-crcSize], crcTable)
	img[n-4] = byte(sum)
	img[n-3] = byte(sum >> 8)
	img[n-2] = byte(sum >> 16)
	img[n-1] = byte(sum >> 24)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Verify checks a sealed page's CRC. Unsealed pages (all-zero footer over
// non-matching contents) fail; callers seal every page they program.
func (r PageReader) Verify() bool {
	n := len(r.buf)
	if n < pageHeaderSize+crcSize {
		return false
	}
	want := uint32(r.buf[n-4]) | uint32(r.buf[n-3])<<8 | uint32(r.buf[n-2])<<16 | uint32(r.buf[n-1])<<24
	return crc32.Checksum(r.buf[:n-crcSize], crcTable) == want
}
