package server

import (
	"fmt"
	"strconv"
	"strings"

	"anykey"
	"anykey/internal/cluster"
	"anykey/internal/metrics"
)

// A stat is one statistic the server exports, declared once: the /metrics
// family it feeds (name, kind, help; no name: not on /metrics), the key it
// prints under in INFO and, for the replication rows, in FLEET STATUS (no
// key: not printed there), and the one getter every output reads. A getter
// returns a count (int64 or int), seconds (float64), a flag (bool, shown as
// 0 or 1) or, on a row without a family, text (a string or a Stringer).
type stat[T any] struct {
	name, help   string
	kind         metrics.Kind
	info, status string
	get          func(*T) any
}

const (
	counter = metrics.KindCounter
	gauge   = metrics.KindGauge
)

// rollupStats is every per-shard cluster-state family, read from each shard's
// row of the cluster rollup, and INFO's # Cluster section, read from the
// cluster-wide total. The first shardInfoRows rows are also each # ShardN
// section.
var rollupStats = []stat[cluster.Rollup]{
	{name: "anykey_shard_ops_total", help: "Requests carried by the shard engine.", kind: counter, info: "ops", get: func(r *cluster.Rollup) any { return r.Ops }},
	{name: "anykey_shard_clock_seconds", help: "The shard's virtual clock.", kind: gauge, info: "virtual_clock_seconds", get: func(r *cluster.Rollup) any { return float64(r.Now) / 1e9 }},
	{name: "anykey_live_keys", help: "Live keys on the shard.", kind: gauge, info: "live_keys", get: func(r *cluster.Rollup) any { return r.LiveKeys }},
	{name: "anykey_live_bytes", help: "Live value bytes on the shard.", kind: gauge, info: "live_bytes", get: func(r *cluster.Rollup) any { return r.LiveBytes }},
	{name: "anykey_flash_writes_total", help: "Flash page writes, all causes.", kind: counter, info: "flash_writes", get: func(r *cluster.Rollup) any { return r.Flash.TotalWrites() }},
	{name: "anykey_gc_runs_total", help: "Garbage-collection runs.", kind: counter, info: "gc_runs", get: func(r *cluster.Rollup) any { return r.GCRuns }},
	{name: "anykey_syncs_total", help: "Device FLUSH commands received.", kind: counter, info: "syncs", get: func(r *cluster.Rollup) any { return r.Syncs }},
	{name: "anykey_journal_pages_total", help: "Write-buffer journal pages programmed by syncs.", kind: counter, info: "journal_pages", get: func(r *cluster.Rollup) any { return r.JournalPages }},
	{name: "anykey_journal_checkpoints_total", help: "Syncs that found the journal at its bound and rewrote it from the write buffer.", kind: counter, info: "journal_checkpoints", get: func(r *cluster.Rollup) any { return r.JournalCheckpoints }},
	{name: "anykey_sync_flushes_total", help: "Syncs that found the journal at its bound and the write buffer too large to checkpoint, and flushed it instead.", kind: counter, info: "sync_flushes", get: func(r *cluster.Rollup) any { return r.SyncFlushes }},
	{name: "anykey_flash_reads_total", help: "Flash page reads, all causes.", kind: counter, get: func(r *cluster.Rollup) any { return r.Flash.TotalReads() }},
	{name: "anykey_flash_erases_total", help: "Flash block erases.", kind: counter, get: func(r *cluster.Rollup) any { return r.Flash.Erases }},
	{name: "anykey_tree_compactions_total", help: "LSM tree compactions.", kind: counter, get: func(r *cluster.Rollup) any { return r.TreeCompactions }},
	{name: "anykey_log_compactions_total", help: "Value-log compactions.", kind: counter, get: func(r *cluster.Rollup) any { return r.LogCompactions }},
	{name: "anykey_chained_compactions_total", help: "Chained compactions.", kind: counter, get: func(r *cluster.Rollup) any { return r.ChainedCompactions }},
	{name: "anykey_gc_relocations_total", help: "Pages relocated by GC.", kind: counter, get: func(r *cluster.Rollup) any { return r.GCRelocations }},
}

const shardInfoRows = 3

// memberStats is the per-member lifecycle family of a replicated cluster.
var memberStats = []stat[anykey.ShardStats]{
	{name: "anykey_shard_up", help: "1 while the member serves (alive), 0 while dead, rebuilding or retired.", kind: gauge, get: func(ss *anykey.ShardStats) any { return ss.State == "alive" }},
}

// txnStats is INFO's # Transactions section and the anykey_txn_* families.
var txnStats = []stat[anykey.TxnStats]{
	{name: "anykey_txn_commits_total", help: "Committed transactions (closures, RMW primitives and atomic batches).", kind: counter, info: "txn_commits", get: func(ts *anykey.TxnStats) any { return ts.Commits }},
	{name: "anykey_txn_aborts_total", help: "Transactions abandoned after exhausting the retry budget.", kind: counter, info: "txn_aborts", get: func(ts *anykey.TxnStats) any { return ts.Aborts }},
	{info: "txn_conflicts", get: func(ts *anykey.TxnStats) any { return ts.Conflicts }},
	{name: "anykey_txn_retries_total", help: "Transaction attempts re-run after a validation conflict.", kind: counter, info: "txn_retries", get: func(ts *anykey.TxnStats) any { return ts.Retries }},
	{info: "txn_atomic_batches", get: func(ts *anykey.TxnStats) any { return ts.AtomicBatches }},
	{info: "txn_prepares", get: func(ts *anykey.TxnStats) any { return ts.Prepares }},
	{name: "anykey_txn_split_merges_total", help: "Hot-key split phases merged back into the keyspace.", kind: counter, info: "txn_split_merges", get: func(ts *anykey.TxnStats) any { return ts.SplitMerges }},
	{info: "txn_split_ops", get: func(ts *anykey.TxnStats) any { return ts.SplitOps }},
	{info: "txn_hot_keys", get: func(ts *anykey.TxnStats) any { return ts.HotKeys }},
	{info: "txn_rolled_forward", get: func(ts *anykey.TxnStats) any { return ts.RolledForward }},
	{info: "txn_rolled_back", get: func(ts *anykey.TxnStats) any { return ts.RolledBack }},
}

// storeStats is INFO's # Memory section and the anykey_store_* families, over
// the sum of the shards' payload stores.
var storeStats = []stat[anykey.StoreFootprint]{
	{info: "store_mode", get: func(fp *anykey.StoreFootprint) any { return fp.Mode }},
	{info: "store_live_pages", get: func(fp *anykey.StoreFootprint) any { return fp.LivePages }},
	{name: "anykey_store_logical_bytes", help: "Programmed page bytes a raw payload store would retain, all shards.", kind: gauge, info: "store_logical_bytes", get: func(fp *anykey.StoreFootprint) any { return fp.LogicalBytes }},
	{name: "anykey_store_resident_bytes", help: "Host bytes the payload stores actually retain, all shards.", kind: gauge, info: "store_resident_bytes", get: func(fp *anykey.StoreFootprint) any { return fp.ResidentBytes }},
}

// cacheStats is INFO's # Cache section and the anykey_cache_* families, over
// the sum of the shards' host caches. An uncached cluster has no # Cache
// section and its families read zero.
var cacheStats = []stat[anykey.CacheStats]{
	{name: "anykey_cache_hits_total", help: "Host-cache read hits, all shards.", kind: counter, info: "cache_hits", get: func(cs *anykey.CacheStats) any { return cs.Hits }},
	{name: "anykey_cache_misses_total", help: "Host-cache read misses, all shards.", kind: counter, info: "cache_misses", get: func(cs *anykey.CacheStats) any { return cs.Misses }},
	{name: "anykey_cache_admitted_total", help: "Values admitted into the host caches.", kind: counter, info: "cache_admitted", get: func(cs *anykey.CacheStats) any { return cs.Admitted }},
	{name: "anykey_cache_evicted_total", help: "Values evicted from the host caches.", kind: counter, info: "cache_evicted", get: func(cs *anykey.CacheStats) any { return cs.Evicted }},
	{name: "anykey_cache_bytes", help: "Bytes resident across the host caches.", kind: gauge, info: "cache_bytes", get: func(cs *anykey.CacheStats) any { return cs.Bytes }},
	{info: "cache_entries", get: func(cs *anykey.CacheStats) any { return cs.Entries }},
}

// replStats is FLEET STATUS (in this order, before the member lines), INFO's
// # Replication section and the anykey_fleet_* families.
var replStats = []stat[anykey.ReplicationStats]{
	{info: "replication_factor", status: "factor", get: func(rs *anykey.ReplicationStats) any { return rs.Factor }},
	{info: "write_quorum", status: "write_quorum", get: func(rs *anykey.ReplicationStats) any { return rs.WriteQuorum }},
	{info: "read_mode", status: "read_mode", get: func(rs *anykey.ReplicationStats) any { return rs.ReadMode }},
	{name: "anykey_fleet_epoch", help: "Committed topology-migration epochs.", kind: gauge, info: "epoch", status: "epoch", get: func(rs *anykey.ReplicationStats) any { return rs.Epoch }},
	{name: "anykey_fleet_migration_active", help: "1 while a topology change is streaming keys.", kind: gauge, status: "migration_active", get: func(rs *anykey.ReplicationStats) any { return rs.MigrationActive }},
	{name: "anykey_fleet_ring_members", help: "Members on the committed ring.", kind: gauge, info: "ring_members", status: "ring_members", get: func(rs *anykey.ReplicationStats) any { return rs.RingMembers }},
	{name: "anykey_fleet_dead_members", help: "Members currently dead.", kind: gauge, info: "dead_members", status: "dead_members", get: func(rs *anykey.ReplicationStats) any { return rs.DeadMembers }},
	{name: "anykey_fleet_quorum_failures_total", help: "Writes acknowledged by fewer than WriteQuorum alive replicas.", kind: counter, info: "quorum_failures", status: "quorum_failures", get: func(rs *anykey.ReplicationStats) any { return rs.QuorumFailures }},
	{name: "anykey_fleet_read_fallbacks_total", help: "Reads served by an owner past the first alive one tried.", kind: counter, info: "read_fallbacks", status: "read_fallbacks", get: func(rs *anykey.ReplicationStats) any { return rs.ReadFallbacks }},
	{name: "anykey_fleet_read_repairs_total", help: "Divergent replicas re-written by read-repair reads.", kind: counter, status: "read_repairs", get: func(rs *anykey.ReplicationStats) any { return rs.ReadRepairs }},
	{name: "anykey_fleet_migrated_keys_total", help: "Keys streamed by topology migrations.", kind: counter, info: "migrated_keys", status: "migrated_keys", get: func(rs *anykey.ReplicationStats) any { return rs.MigratedKeys }},
	{name: "anykey_fleet_migrated_bytes_total", help: "Bytes streamed by topology migrations.", kind: counter, status: "migrated_bytes", get: func(rs *anykey.ReplicationStats) any { return rs.MigratedBytes }},
	{name: "anykey_fleet_cleanup_deletes_total", help: "Stale copies deleted off ex-owners at epoch commits.", kind: counter, status: "cleanup_deletes", get: func(rs *anykey.ReplicationStats) any { return rs.CleanupDeletes }},
	{name: "anykey_fleet_rebuilds_total", help: "Completed device rebuilds.", kind: counter, info: "rebuilds", status: "rebuilds", get: func(rs *anykey.ReplicationStats) any { return rs.Rebuilds }},
	{name: "anykey_fleet_rebuilt_keys_total", help: "Keys re-filled onto replacement hardware.", kind: counter, status: "rebuilt_keys", get: func(rs *anykey.ReplicationStats) any { return rs.RebuiltKeys }},
}

// export registers the rows' /metrics families, labelled by labels, and
// returns what a scrape calls to mirror one snapshot into them under the
// given label values.
func export[T any](r *metrics.Registry, rows []stat[T], labels ...string) func(v *T, labelValues ...string) {
	set := make([]func(float64, ...string), len(rows))
	for i, s := range rows {
		switch {
		case s.name == "":
			continue
		case s.kind == gauge:
			vec := r.NewGaugeVec(s.name, s.help, labels...)
			set[i] = func(x float64, lv ...string) { vec.With(lv...).Set(x) }
		default:
			vec := r.NewCounterVec(s.name, s.help, labels...)
			set[i] = func(x float64, lv ...string) { vec.With(lv...).Set(x) }
		}
		if len(labels) == 0 {
			set[i](0) // an unlabelled family shows from the first scrape, set or not
		}
	}
	return func(v *T, lv ...string) {
		for i, s := range rows {
			if set[i] != nil {
				set[i](number(s.get(v)), lv...)
			}
		}
	}
}

// number is a getter's value as a sample.
func number(v any) float64 {
	switch v := v.(type) {
	case int64:
		return float64(v)
	case int:
		return float64(v)
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("server: a %T statistic has no /metrics value", v))
}

// writeSection appends "# name" and one line per row that has an INFO key.
func writeSection[T any](sb *strings.Builder, name string, rows []stat[T], v *T) {
	sb.WriteString("# " + name + "\r\n")
	for _, s := range rows {
		if s.info != "" {
			writeLine(sb, s.info, s.get(v))
		}
	}
}

// writeLine appends one "key:value" line: seconds to the microsecond, a flag
// as 0 or 1, anything else as fmt prints it.
func writeLine(sb *strings.Builder, key string, v any) {
	switch x := v.(type) {
	case float64:
		v = strconv.FormatFloat(x, 'f', 6, 64)
	case bool:
		v = number(x)
	}
	fmt.Fprintf(sb, "%s:%v\r\n", key, v)
}

// fleetStatus renders FLEET STATUS: every replication row, then each member's
// lifecycle state.
func fleetStatus(fs *anykey.FleetStats) string {
	var sb strings.Builder
	for _, s := range replStats {
		writeLine(&sb, s.status, s.get(&fs.Repl))
	}
	for _, m := range fs.PerShard {
		state := m.State
		if m.Cause != "" {
			state += "(" + m.Cause + ")"
		}
		fmt.Fprintf(&sb, "member%d:%s\r\n", m.Shard, state)
	}
	return sb.String()
}
