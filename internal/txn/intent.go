// Intent and commit records: the durable bookkeeping of the atomic 2PC
// path, stored as ordinary KV pairs in a reserved keyspace.
//
// Record keys live under reservedPrefix, which begins 0xFFFF so the records
// sort after every application key (workload keys are printable); a marker
// byte separates intents from commit records, and a trailing nonce is
// searched so each record ROUTES to the shard it describes — an intent is
// durable on the shard whose sub-batch it carries, and the commit record on
// the coordinator shard (the lowest involved shard). On a replicated fleet
// the records replicate like any write, so they survive member deaths with
// the same quorum the data enjoys.
package txn

import (
	"fmt"
	"sort"

	"anykey/internal/trace"
)

// reservedPrefix opens the transaction-record keyspace. Applications must
// not write keys beginning with it.
const reservedPrefix = "\xff\xffaktxn"

const (
	markerIntent byte = 0x01
	markerCommit byte = 0x02
)

// recordKey builds a transaction-record key and searches the trailing nonce
// until the key routes to the target shard. Layout:
// prefix | marker | id (8 BE) | shard (2 BE) | nonce (4 BE).
func (co *Coordinator) recordKey(marker byte, id uint64, shard int) []byte {
	n := len(reservedPrefix)
	key := make([]byte, n+1+8+2+4)
	copy(key, reservedPrefix)
	key[n] = marker
	putBE64(key[n+1:], id)
	putBE16(key[n+9:], uint16(shard))
	for nonce := uint32(0); ; nonce++ {
		putBE32(key[n+11:], nonce)
		if co.be.ShardFor(key) == shard {
			return key
		}
	}
}

// parseRecordKey decodes a reserved-keyspace key; ok is false for malformed
// keys (which recovery leaves untouched).
func parseRecordKey(key []byte) (marker byte, id uint64, shard int, ok bool) {
	n := len(reservedPrefix)
	if len(key) != n+1+8+2+4 || string(key[:n]) != reservedPrefix {
		return 0, 0, 0, false
	}
	marker = key[n]
	if marker != markerIntent && marker != markerCommit {
		return 0, 0, 0, false
	}
	return marker, getBE64(key[n+1:]), int(getBE16(key[n+9:])), true
}

// encodeOps serializes a sub-batch into an intent value: op count, then per
// op a flag byte (bit 0 = delete), key and value with 4-byte lengths.
func encodeOps(ops []Op) []byte {
	size := 4
	for i := range ops {
		size += 1 + 4 + len(ops[i].Key) + 4 + len(ops[i].Value)
	}
	out := make([]byte, 0, size)
	var b4 [4]byte
	putBE32(b4[:], uint32(len(ops)))
	out = append(out, b4[:]...)
	for i := range ops {
		var flag byte
		if ops[i].Delete {
			flag = 1
		}
		out = append(out, flag)
		putBE32(b4[:], uint32(len(ops[i].Key)))
		out = append(out, b4[:]...)
		out = append(out, ops[i].Key...)
		putBE32(b4[:], uint32(len(ops[i].Value)))
		out = append(out, b4[:]...)
		out = append(out, ops[i].Value...)
	}
	return out
}

// decodeOps parses an intent value, copying keys and values out of the
// (backend-owned) buffer.
func decodeOps(val []byte) ([]Op, error) {
	if len(val) < 4 {
		return nil, fmt.Errorf("txn: intent value truncated (%d bytes)", len(val))
	}
	n := int(getBE32(val))
	val = val[4:]
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		if len(val) < 5 {
			return nil, fmt.Errorf("txn: intent op %d truncated", i)
		}
		flag := val[0]
		kl := int(getBE32(val[1:]))
		val = val[5:]
		if len(val) < kl+4 {
			return nil, fmt.Errorf("txn: intent op %d key truncated", i)
		}
		key := append([]byte(nil), val[:kl]...)
		vl := int(getBE32(val[kl:]))
		val = val[kl+4:]
		if len(val) < vl {
			return nil, fmt.Errorf("txn: intent op %d value truncated", i)
		}
		var value []byte
		if flag&1 == 0 {
			value = append([]byte(nil), val[:vl]...)
		}
		val = val[vl:]
		ops = append(ops, Op{Key: key, Value: value, Delete: flag&1 == 1})
	}
	return ops, nil
}

// encodeShards records the involved-shard list in a commit record (for
// inspection; recovery derives everything it needs from the intents).
func encodeShards(shards []int) []byte {
	out := make([]byte, 2+2*len(shards))
	putBE16(out, uint16(len(shards)))
	for i, s := range shards {
		putBE16(out[2+2*i:], uint16(s))
	}
	return out
}

// Atomic applies ops as one all-or-nothing cross-shard batch and returns
// its transaction id. On success every op is applied and durable; on an
// error wrapping ErrAborted none will survive recovery. An error wrapping
// ErrInDoubt means the commit point itself is undecided — the commit
// record's sync failed, so after a crash Recover rolls the batch forward
// if the record proved durable and back otherwise; callers must not assume
// either. Any other error reports a batch committed but not yet fully
// applied (a backend failure after the commit point); Recover rolls it
// forward.
func (co *Coordinator) Atomic(ops []Op) (uint64, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	id, err := co.atomicLocked(ops)
	if err == nil && len(ops) > 0 {
		co.stats.Commits++
	}
	return id, err
}

// atomicLocked runs the 2PC protocol with the coordinator lock held. The
// sync ordering is the whole correctness story: intents are durable before
// the commit record, the commit record before any user write, and every
// user write before any cleanup delete is even issued — so no crash point
// can surface a partial batch that recovery cannot resolve.
func (co *Coordinator) atomicLocked(ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	// Land any split-phase buffers first: the batch must observe — and
	// produce — a merged state.
	if len(co.pendKeys) > 0 {
		if err := co.flushLocked(); err != nil {
			return 0, err
		}
	}
	co.nextID++
	id := co.nextID
	of, shards := co.route(ops)
	starts := co.nows(shards)

	// Phase 1 — prepare: stamp one durable intent per involved shard,
	// carrying that shard's sub-batch in caller order.
	intents := make([]Op, len(shards))
	for i, s := range shards {
		var sub []Op
		for j := range ops {
			if of[j] == s {
				sub = append(sub, ops[j])
			}
		}
		intents[i] = Op{Key: co.recordKey(markerIntent, id, s), Value: encodeOps(sub)}
	}
	abort := func(stage string, cause error) (uint64, error) {
		// Best-effort rollback: discard the intent records. If the deletes
		// are lost too, Recover finds intents without a commit record and
		// rolls the batch back — user data was never written.
		dels := make([]Op, len(intents))
		for i := range intents {
			dels[i] = Op{Key: intents[i].Key, Delete: true}
		}
		_ = co.be.Apply(dels)
		return id, fmt.Errorf("txn: atomic batch %d %s: %w (%w)", id, stage, ErrAborted, cause)
	}
	if err := co.be.Apply(intents); err != nil {
		return abort("prepare", err)
	}
	if err := co.be.SyncShards(shards); err != nil {
		return abort("prepare sync", err)
	}
	co.stats.Prepares++
	for i, s := range shards {
		co.marks.MarkSpan(s, trace.EvTxnPrepare, trace.CauseTxnPrepare, starts[i], int64(id))
	}

	// Phase 2 — commit point: a durable commit record on the coordinator
	// shard.
	coord := shards[0]
	crec := Op{Key: co.recordKey(markerCommit, id, coord), Value: encodeShards(shards)}
	abortCommit := func(stage string, verdict, cause error) (uint64, error) {
		dels := make([]Op, 0, len(intents)+1)
		dels = append(dels, Op{Key: crec.Key, Delete: true})
		for i := range intents {
			dels = append(dels, Op{Key: intents[i].Key, Delete: true})
		}
		_ = co.be.Apply(dels)
		return id, fmt.Errorf("txn: atomic batch %d %s: %w (%w)", id, stage, verdict, cause)
	}
	if err := co.be.Apply([]Op{crec}); err != nil {
		// The record never reached the device: nothing can surface the
		// batch, so this is a clean abort.
		return abortCommit("commit record", ErrAborted, err)
	}
	if err := co.be.SyncShards([]int{coord}); err != nil {
		// In doubt: the record may or may not be durable. Attempt to erase
		// it; if the erase is lost too, recovery resolves whichever state
		// flash kept — all (roll forward) or nothing (roll back). The
		// caller must not be told "aborted": ErrInDoubt says the outcome
		// belongs to Recover.
		return abortCommit("commit sync", ErrInDoubt, err)
	}

	// Committed. Readers must re-read whatever happens next.
	for i := range ops {
		co.versions[string(ops[i].Key)]++
	}

	// Phase 3 — apply the real writes and make them durable.
	if err := co.be.Apply(ops); err != nil {
		return id, fmt.Errorf("txn: atomic batch %d committed but not fully applied (run Recover to roll forward): %w", id, err)
	}
	if err := co.be.SyncShards(shards); err != nil {
		return id, fmt.Errorf("txn: atomic batch %d committed but apply sync failed (run Recover to roll forward): %w", id, err)
	}

	// Phase 4 — lazy cleanup. Deliberately unsynced: losing these deletes
	// to a crash only costs an idempotent roll-forward at recovery.
	cleanup := make([]Op, 0, len(intents)+1)
	for i := range intents {
		cleanup = append(cleanup, Op{Key: intents[i].Key, Delete: true})
	}
	cleanup = append(cleanup, Op{Key: crec.Key, Delete: true})
	_ = co.be.Apply(cleanup)
	co.stats.AtomicBatches++
	return id, nil
}

// Recover scans every shard's reserved keyspace and resolves the
// transaction records a crash left behind: batches with a durable commit
// record roll forward (idempotent re-apply, synced, then records
// discarded); batches without one roll back (intents discarded; user data
// untouched, since apply only ever starts after the commit record is
// durable). It returns the batches rolled in each direction. Call it after
// remounting the shards and before serving traffic.
func (co *Coordinator) Recover() (forward, back int, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()

	type entry struct {
		shard int
		ops   []Op
	}
	type batch struct {
		id        uint64
		committed bool
		entries   []entry
		recKeys   [][]byte
		seenRec   map[string]bool
		seenShard map[int]bool
	}
	found := map[uint64]*batch{}
	var order []uint64

	for s := 0; s < co.be.Shards(); s++ {
		start := []byte(reservedPrefix)
		for {
			pairs, serr := co.be.ScanShard(s, start, 64)
			if serr != nil {
				// A dead or retired member: its replicas on surviving
				// members carry the records.
				break
			}
			done := len(pairs) < 64
			for _, p := range pairs {
				marker, id, shard, ok := parseRecordKey(p.Key)
				if !ok {
					done = true
					break
				}
				b := found[id]
				if b == nil {
					b = &batch{id: id, seenRec: map[string]bool{}, seenShard: map[int]bool{}}
					found[id] = b
					order = append(order, id)
				}
				if b.seenRec[string(p.Key)] {
					continue // a replica of a record already collected
				}
				b.seenRec[string(p.Key)] = true
				b.recKeys = append(b.recKeys, append([]byte(nil), p.Key...))
				if marker == markerCommit {
					b.committed = true
					continue
				}
				if b.seenShard[shard] {
					continue
				}
				b.seenShard[shard] = true
				ops, derr := decodeOps(p.Value)
				if derr != nil {
					return forward, back, fmt.Errorf("txn: recover batch %d shard %d: %w", id, shard, derr)
				}
				b.entries = append(b.entries, entry{shard: shard, ops: ops})
			}
			if done {
				break
			}
			last := pairs[len(pairs)-1].Key
			start = append(append([]byte(nil), last...), 0x00)
		}
	}

	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, id := range order {
		b := found[id]
		if b.committed && len(b.entries) > 0 {
			sort.Slice(b.entries, func(i, j int) bool { return b.entries[i].shard < b.entries[j].shard })
			var ops []Op
			shards := make([]int, 0, len(b.entries))
			for _, e := range b.entries {
				ops = append(ops, e.ops...)
				shards = append(shards, e.shard)
			}
			if err := co.be.Apply(ops); err != nil {
				return forward, back, fmt.Errorf("txn: recover batch %d roll-forward: %w", id, err)
			}
			if err := co.be.SyncShards(shards); err != nil {
				return forward, back, fmt.Errorf("txn: recover batch %d roll-forward sync: %w", id, err)
			}
			for i := range ops {
				co.versions[string(ops[i].Key)]++
			}
			forward++
			co.stats.RolledForward++
		} else {
			back++
			co.stats.RolledBack++
		}
		cleanup := make([]Op, len(b.recKeys))
		for i, k := range b.recKeys {
			cleanup[i] = Op{Key: k, Delete: true}
		}
		if err := co.be.Apply(cleanup); err != nil {
			return forward, back, fmt.Errorf("txn: recover batch %d cleanup: %w", id, err)
		}
		if id > co.nextID {
			co.nextID = id
		}
	}
	return forward, back, nil
}

func putBE16(b []byte, v uint16) { b[0] = byte(v >> 8); b[1] = byte(v) }
func getBE16(b []byte) uint16    { return uint16(b[0])<<8 | uint16(b[1]) }

func putBE32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getBE32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putBE64(b []byte, v uint64) {
	putBE32(b, uint32(v>>32))
	putBE32(b[4:], uint32(v))
}

func getBE64(b []byte) uint64 {
	return uint64(getBE32(b))<<32 | uint64(getBE32(b[4:]))
}
