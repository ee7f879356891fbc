package pink

import (
	"fmt"

	"anykey/internal/kv"
	"anykey/internal/nand"
)

// levelEntryOverhead is the fixed portion of one level-list entry: the meta
// segment locator (8 B) plus list bookkeeping (8 B), matching the per-entry
// cost model used for Table 1.
const levelEntryOverhead = 16

// dramSegLabel is the DRAM ledger label for meta segments.
const dramSegLabel = "metaseg"

// dataLoc packs a *logical* data page number and a record slot into one
// word: seq<<16 | slot. Logical page numbers are never reused; the device's
// L2P table maps them to physical pages (a conventional FTL indirection),
// so a stale record left dangling by GC can never alias a rewritten page.
// The all-ones value marks a tombstone record.
type dataLoc uint64

const tombstoneLoc = ^dataLoc(0)

func makeLoc(seq uint64, slot int) dataLoc {
	return dataLoc(seq<<16 | uint64(slot)&0xffff)
}

func (l dataLoc) seq() uint64 { return uint64(l >> 16) }
func (l dataLoc) slot() int   { return int(l & 0xffff) }

// record is one meta segment entry: a key and where its pair lives.
type record struct {
	key  []byte
	loc  dataLoc
	vlen int // logical value length, for level-size accounting
}

func (r *record) tombstone() bool { return r.loc == tombstoneLoc }

// bytes returns the logical KV bytes the record represents.
func (r *record) bytes() int64 {
	if r.tombstone() {
		return int64(len(r.key))
	}
	return int64(len(r.key) + r.vlen)
}

// encodedSize mirrors encodeRecord.
func (r *record) encodedSize() int {
	return kv.UvarintLen(uint64(len(r.key))) + len(r.key) + 8 + kv.UvarintLen(uint64(r.vlen))
}

func encodeRecord(buf []byte, r *record) []byte {
	buf = kv.AppendUvarint(buf, uint64(len(r.key)))
	buf = append(buf, r.key...)
	buf = kv.AppendU64(buf, uint64(r.loc))
	return kv.AppendUvarint(buf, uint64(r.vlen))
}

func decodeRecord(buf []byte) record {
	klen, n := mustUvarint(buf)
	key := buf[n : n+int(klen)]
	off := n + int(klen)
	loc := dataLoc(kv.U64(buf[off:]))
	off += 8
	vlen, _ := mustUvarint(buf[off:])
	return record{key: key, loc: loc, vlen: int(vlen)}
}

// metaSegment is one flash page worth of sorted records plus its level-list
// entry data (first key and location). Meta segments always live in flash
// (the device's metadata must be persistent); the DRAM budget holds a cache
// of the top levels' segments, which is what makes their lookups and merges
// free of flash reads.
type metaSegment struct {
	firstKey []byte
	count    int
	ppa      nand.PPA
	cached   bool // present in the DRAM meta-segment cache
}

// level is one LSM level: meta segments sorted by disjoint key ranges.
type level struct {
	segs  []*metaSegment
	bytes int64 // logical KV bytes referenced by this level
}

// findSegment returns the unique segment whose range may contain key: the
// last segment with firstKey ≤ key.
func (lv *level) findSegment(key []byte) *metaSegment {
	lo, hi := 0, len(lv.segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if kv.Compare(lv.segs[mid].firstKey, key) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	return lv.segs[lo-1]
}

// findRecord binary-searches a meta segment page image for key. Probes
// decode only the record's key; the full record is decoded once, on a match.
func findRecord(data []byte, key []byte) (record, bool) {
	pr := kv.OpenPage(data)
	lo, hi := 0, pr.Count()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if kv.Compare(recordKey(pr.Record(mid)), key) >= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= pr.Count() {
		return record{}, false
	}
	r := decodeRecord(pr.Record(lo))
	if kv.Compare(r.key, key) != 0 {
		return record{}, false
	}
	return r, true
}

// recordKey returns the key of an encoded record without decoding the rest.
func recordKey(buf []byte) []byte {
	klen, n := mustUvarint(buf)
	return buf[n : n+int(klen)]
}

// decodeAllRecords returns every record of a meta segment page image in key
// order. Returned records alias data.
func decodeAllRecords(data []byte) []record {
	return appendAllRecords(make([]record, 0, kv.OpenPage(data).Count()), data)
}

// appendAllRecords appends every record of a meta segment page image to out
// in key order, letting callers collecting whole levels preallocate once.
func appendAllRecords(out []record, data []byte) []record {
	pr := kv.OpenPage(data)
	n := pr.Count()
	for i := 0; i < n; i++ {
		out = append(out, decodeRecord(pr.Record(i)))
	}
	return out
}

// mustUvarint decodes one of a record's varints. Records are pink's own
// encoding, so a malformed one is corruption.
func mustUvarint(b []byte) (uint64, int) {
	v, n := kv.Uvarint(b)
	if n == 0 {
		panic(fmt.Sprintf("pink: bad varint % x", b[:min(len(b), 10)]))
	}
	return v, n
}
