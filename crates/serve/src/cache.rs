//! The persistent result cache: content hash → optimized program.
//!
//! Repeat traffic is the serving workload's common case, so the daemon
//! answers it in O(lookup): the cache key is a 128-bit FNV-1a hash of
//! the *canonically printed* input program (formatting-insensitive)
//! plus every semantics-affecting option (mode, effective budgets,
//! validation), and the value is the full deterministic response
//! payload. The option string still ends in the fixed `solver=ambient`
//! component from the days of selectable solvers, so keys persisted in
//! existing cache files stay valid.
//!
//! A second, unpersisted memo ([`PersistentCache::get_raw_alias`]) maps
//! the hash of the program text *as sent* to its canonical key, so a
//! byte-for-byte repeat request is answered without even parsing the
//! program — the steady state of real repeat traffic.
//!
//! # Disk format
//!
//! A write-ahead log (see [`crate::wal`]): a header line, then one
//! checksummed insert or evict record per line, appended as the cache
//! mutates and compacted into a plain snapshot once the log outgrows
//! the live set. Recovery replays the longest valid prefix, so a
//! `kill -9` at any instant loses at most the unfsynced tail — a
//! flipped bit, a torn write, or a truncated tail degrades to cache
//! misses, never to a wrong answer or a crash.
//!
//! # Eviction
//!
//! The in-memory map is bounded by `max_bytes` (approximate payload
//! footprint). Inserting past the bound evicts least-recently-used
//! entries until the new entry fits; a single entry larger than the
//! whole bound is simply not cached. Eviction order is deterministic
//! for a deterministic request sequence, and every eviction is logged
//! so recovery converges to the same live set.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pdce_trace::json;

use crate::protocol::ResultPayload;
use crate::wal::{self, Wal};

/// Default appends between WAL fsyncs (see [`PersistentCache::load`]).
/// The log journals a *result cache*: a crash that loses the unsynced
/// tail only costs recomputation on the next run, never a wrong
/// answer, so the default trades a wider loss window for keeping the
/// journal's cost under the <5% serving-overhead bar. Deployments that
/// want a tighter window pass `--fsync-every` (1 = every append).
pub const DEFAULT_FSYNC_EVERY: u64 = 64;

/// The log is compacted once it exceeds both this floor and twice the
/// live set's footprint — the floor keeps tiny caches from compacting
/// on every insert, the ratio bounds replay work to O(live set).
const COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// 64-bit FNV-1a, used for the per-line checksums and as one half of
/// the 128-bit key.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 128-bit FNV-1a (standard offset basis and prime).
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    let prime: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(prime);
    }
    h
}

/// A cache key: the 128-bit content hash of canonical program text plus
/// the canonical option string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// Hashes `canonical_program` (the `print_program` rendering, so
    /// formatting differences collapse) together with `options` (the
    /// server's canonical option string for the request).
    pub fn compute(canonical_program: &str, options: &str) -> CacheKey {
        let mut buf = Vec::with_capacity(canonical_program.len() + options.len() + 1);
        buf.extend_from_slice(options.as_bytes());
        buf.push(0);
        buf.extend_from_slice(canonical_program.as_bytes());
        CacheKey(fnv128(&buf))
    }

    /// 32-hex-char rendering used on disk.
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }

    fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(CacheKey)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    payload: ResultPayload,
    last_used: u64,
    bytes: u64,
}

/// Counters describing what a [`PersistentCache::load`] found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries restored by replaying the log's longest valid prefix.
    pub loaded: usize,
    /// Log lines discarded: the first invalid line (bad checksum, bad
    /// JSON, or a torn write) and everything after it.
    pub skipped: usize,
    /// Whether the file was missing or its header was unrecognized
    /// (either way the cache starts empty).
    pub fresh: bool,
}

/// Cap on the raw-text alias memo. The memo is a pure accelerator
/// (raw request bytes → canonical key, skipping parse + canonical
/// print on verbatim repeat traffic), so when it fills up it is simply
/// cleared rather than LRU-tracked.
pub const MAX_ALIASES: usize = 1 << 16;

/// Size-bounded LRU cache with an optional on-disk home.
#[derive(Debug)]
pub struct PersistentCache {
    path: Option<PathBuf>,
    max_bytes: u64,
    map: HashMap<u128, Entry>,
    /// Raw-text fast path: hash of (raw program text, options) →
    /// canonical key. Not persisted; rebuilt from live traffic.
    aliases: HashMap<u128, u128>,
    total_bytes: u64,
    clock: u64,
    /// The append handle; `None` for in-memory caches, and dropped
    /// (degrading to in-memory operation plus a shutdown snapshot) if
    /// the log ever fails an I/O operation.
    wal: Option<Wal>,
    /// Hits/misses/evictions since construction (per-server numbers;
    /// the process-global registry is updated by the server layer).
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// WAL I/O failures that demoted the cache to in-memory operation.
    pub wal_errors: u64,
    /// What the initial load found.
    pub load_report: LoadReport,
}

impl PersistentCache {
    /// An in-memory-only cache.
    pub fn in_memory(max_bytes: u64) -> PersistentCache {
        PersistentCache {
            path: None,
            max_bytes,
            map: HashMap::new(),
            aliases: HashMap::new(),
            total_bytes: 0,
            clock: 0,
            wal: None,
            hits: 0,
            misses: 0,
            evictions: 0,
            wal_errors: 0,
            load_report: LoadReport {
                fresh: true,
                ..LoadReport::default()
            },
        }
    }

    /// Opens (or creates) the cache at `path` with the default fsync
    /// interval. See [`PersistentCache::load_with_fsync`].
    pub fn load(path: &Path, max_bytes: u64) -> PersistentCache {
        PersistentCache::load_with_fsync(path, max_bytes, DEFAULT_FSYNC_EVERY)
    }

    /// Opens (or creates) the cache at `path`, replaying the log's
    /// longest valid prefix and truncating whatever follows it so
    /// appends resume from known-good state. A missing, empty, or
    /// corrupted file is never an error — discarded records are just
    /// misses. `fsync_every` bounds the crash-loss window to that many
    /// unfsynced appends.
    pub fn load_with_fsync(path: &Path, max_bytes: u64, fsync_every: u64) -> PersistentCache {
        let mut cache = PersistentCache::in_memory(max_bytes);
        cache.path = Some(path.to_path_buf());
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let mut report = LoadReport::default();
        let mut valid_end = (wal::HEADER.len() + 1) as u64;
        match wal::scan(&text) {
            Some(scanned) => {
                valid_end = scanned.header_end;
                report.skipped = scanned.discarded;
                for (i, line) in scanned.lines.iter().enumerate() {
                    match decode_op(line.body) {
                        Some(WalOp::Insert(key, payload)) => {
                            cache.insert_raw(key, payload);
                        }
                        Some(WalOp::Evict(key)) => {
                            if let Some(e) = cache.map.remove(&key.0) {
                                cache.total_bytes -= e.bytes;
                            }
                        }
                        None => {
                            // Checksum-valid but undecodable: the valid
                            // prefix ends just before this line, and
                            // every later line is untrusted.
                            report.skipped = scanned.discarded + (scanned.lines.len() - i);
                            break;
                        }
                    }
                    valid_end = line.end;
                }
                report.loaded = cache.map.len();
                wal::note_recovery(report.loaded, report.skipped);
            }
            None => report.fresh = true,
        }
        cache.load_report = report;
        let wal = if report.fresh {
            Wal::create(path, fsync_every)
        } else {
            Wal::open_at(path, valid_end, fsync_every)
        };
        match wal {
            Ok(w) => cache.wal = Some(w),
            Err(_) => cache.wal_errors += 1,
        }
        // A log larger than the byte bound replays over it; trim (and
        // log the trims) so the bound holds from the first request.
        cache.evict_to_bound(None);
        cache
    }

    /// Where this cache persists, if anywhere.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate bytes held (the eviction bound's currency).
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Live entries in the raw-text alias memo.
    pub fn alias_len(&self) -> usize {
        self.aliases.len()
    }

    /// Log appends/fsyncs/compactions so far (zeros when in-memory).
    pub fn wal_stats(&self) -> (u64, u64, u64) {
        self.wal
            .as_ref()
            .map_or((0, 0, 0), |w| (w.appends, w.fsyncs, w.compactions))
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<ResultPayload> {
        self.clock += 1;
        match self.map.get_mut(&key.0) {
            Some(e) => {
                e.last_used = self.clock;
                self.hits += 1;
                Some(e.payload.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Fast-path lookup for a verbatim repeat request: `raw` hashes the
    /// request's program text *as sent* (plus options). On a memoized
    /// alias this answers without the caller ever parsing the program.
    /// A stale alias (its canonical entry was evicted) is dropped and
    /// reported as `None` without touching the hit/miss counters — the
    /// caller's canonical lookup will count the miss.
    pub fn get_raw_alias(&mut self, raw: CacheKey) -> Option<ResultPayload> {
        let canonical = *self.aliases.get(&raw.0)?;
        if !self.map.contains_key(&canonical) {
            self.aliases.remove(&raw.0);
            return None;
        }
        self.get(CacheKey(canonical))
    }

    /// Memoizes `raw` (request-text hash) → `canonical` so the next
    /// verbatim repeat takes the parse-free fast path.
    pub fn record_alias(&mut self, raw: CacheKey, canonical: CacheKey) {
        if self.aliases.len() >= MAX_ALIASES {
            self.aliases.clear();
        }
        self.aliases.insert(raw.0, canonical.0);
    }

    /// Inserts (or refreshes) `key`, evicting LRU entries as needed.
    /// The insert and any evictions are appended to the log before the
    /// call returns (durable after the next fsync interval).
    pub fn insert(&mut self, key: CacheKey, payload: ResultPayload) {
        let cost = payload.cost_bytes();
        if cost > self.max_bytes {
            return;
        }
        self.log_insert(key, &payload);
        self.insert_raw(key, payload);
        self.evict_to_bound(Some(key.0));
        self.maybe_compact();
    }

    /// Evicts LRU entries (logging each) until the bound holds again.
    /// `protect` is never chosen while it is the only entry left.
    fn evict_to_bound(&mut self, protect: Option<u128>) {
        while self.total_bytes > self.max_bytes {
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if protect == Some(victim) && self.map.len() == 1 {
                break;
            }
            if let Some(e) = self.map.remove(&victim) {
                self.total_bytes -= e.bytes;
                self.evictions += 1;
                self.log_evict(CacheKey(victim));
            }
        }
    }

    fn insert_raw(&mut self, key: CacheKey, payload: ResultPayload) {
        self.clock += 1;
        let bytes = payload.cost_bytes();
        let entry = Entry {
            payload,
            last_used: self.clock,
            bytes,
        };
        if let Some(old) = self.map.insert(key.0, entry) {
            self.total_bytes -= old.bytes;
        }
        self.total_bytes += bytes;
    }

    fn log_insert(&mut self, key: CacheKey, payload: &ResultPayload) {
        if self.wal.is_some() {
            let body = encode_insert_body(key, payload);
            self.append(&body);
        }
    }

    fn log_evict(&mut self, key: CacheKey) {
        if self.wal.is_some() {
            self.append(&format!("{{\"evict\":\"{}\"}}", key.hex()));
        }
    }

    /// Appends one record, demoting to in-memory operation on I/O
    /// failure (the cache keeps serving; `save` still snapshots).
    fn append(&mut self, body: &str) {
        if let Some(w) = &mut self.wal {
            if w.append(body).is_err() {
                self.wal = None;
                self.wal_errors += 1;
            }
        }
    }

    /// Compacts once the log exceeds the floor and twice the live set.
    fn maybe_compact(&mut self) {
        let due = self
            .wal
            .as_ref()
            .is_some_and(|w| w.bytes > COMPACT_MIN_BYTES.max(2 * self.total_bytes));
        if due {
            let _ = self.save();
        }
    }

    /// Renders the live set as a snapshot (header plus one insert line
    /// per entry, oldest first so a bounded reload keeps recent
    /// traffic).
    fn snapshot(&self) -> String {
        let mut out = String::with_capacity(self.total_bytes as usize + 64);
        out.push_str(wal::HEADER);
        out.push('\n');
        let mut entries: Vec<(&u128, &Entry)> = self.map.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        for (key, e) in entries {
            out.push_str(&wal::frame(&encode_insert_body(CacheKey(*key), &e.payload)));
        }
        out
    }

    /// Compacts the log into a snapshot of the live set (atomic temp +
    /// rename) and fsyncs. Called on the compaction threshold and at
    /// clean shutdown; a no-op for in-memory caches.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of the temp-file write or the rename.
    pub fn save(&mut self) -> std::io::Result<()> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        let snapshot = self.snapshot();
        match &mut self.wal {
            Some(w) => {
                if let Err(e) = w.compact_to(&path, &snapshot) {
                    self.wal = None;
                    self.wal_errors += 1;
                    return Err(e);
                }
                Ok(())
            }
            None => {
                // The log handle is gone (earlier I/O failure): fall
                // back to the plain atomic rewrite.
                let tmp = path.with_extension("tmp");
                std::fs::write(&tmp, &snapshot)?;
                std::fs::rename(&tmp, &path)
            }
        }
    }

    /// Forces the unfsynced log tail to disk (a no-op in memory).
    ///
    /// # Errors
    /// Propagates the `fdatasync` failure.
    pub fn sync(&mut self) -> std::io::Result<()> {
        match &mut self.wal {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }
}

/// A decoded log record.
enum WalOp {
    Insert(CacheKey, ResultPayload),
    Evict(CacheKey),
}

fn encode_insert_body(key: CacheKey, payload: &ResultPayload) -> String {
    let mut body = String::with_capacity(payload.program.len() + 96);
    let _ = write!(body, "{{\"key\":\"{}\",\"program\":", key.hex());
    json::write_escaped(&mut body, &payload.program);
    let _ = write!(
        body,
        ",\"rounds\":{},\"eliminated\":{},\"sunk\":{},\"inserted\":{},\"rung\":",
        payload.rounds, payload.eliminated, payload.sunk, payload.inserted
    );
    json::write_escaped(&mut body, &payload.rung);
    body.push('}');
    body
}

fn decode_op(body: &str) -> Option<WalOp> {
    let doc = json::parse(body).ok()?;
    if let Some(evict) = doc.get("evict") {
        return Some(WalOp::Evict(CacheKey::from_hex(evict.as_str()?)?));
    }
    let key = CacheKey::from_hex(doc.get("key")?.as_str()?)?;
    let num = |k: &str| -> Option<u64> {
        let n = doc.get(k)?.as_num()?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
    };
    let payload = ResultPayload {
        program: doc.get("program")?.as_str()?.to_string(),
        rounds: num("rounds")?,
        eliminated: num("eliminated")?,
        sunk: num("sunk")?,
        inserted: num("inserted")?,
        rung: doc.get("rung")?.as_str()?.to_string(),
    };
    Some(WalOp::Insert(key, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: &str) -> ResultPayload {
        ResultPayload {
            program: format!("prog {{ block e {{ out({tag}); halt }} }}\n"),
            rounds: 2,
            eliminated: 1,
            sunk: 0,
            inserted: 0,
            rung: "none".into(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pdce-serve-cache-{}-{name}", std::process::id()))
    }

    #[test]
    fn raw_alias_fast_path_hits_and_self_heals() {
        let mut c = PersistentCache::in_memory(1 << 20);
        let raw = CacheKey::compute("prog   A", "mode=pde");
        let canonical = CacheKey::compute("prog A", "mode=pde");
        // Unknown raw text: no alias, no counter movement.
        assert!(c.get_raw_alias(raw).is_none());
        assert_eq!((c.hits, c.misses), (0, 0));
        c.insert(canonical, payload("a"));
        c.record_alias(raw, canonical);
        assert_eq!(c.get_raw_alias(raw).unwrap(), payload("a"));
        assert_eq!(c.hits, 1);
        // A stale alias (canonical entry gone) degrades to a silent
        // miss and is dropped.
        let mut c = PersistentCache::in_memory(1 << 20);
        c.record_alias(raw, canonical);
        assert!(c.get_raw_alias(raw).is_none());
        assert_eq!((c.hits, c.misses), (0, 0));
        assert!(c.aliases.is_empty());
    }

    #[test]
    fn keys_separate_program_and_options() {
        let a = CacheKey::compute("prog A", "mode=pde");
        let b = CacheKey::compute("prog A", "mode=pfe");
        let c = CacheKey::compute("prog B", "mode=pde");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, CacheKey::compute("prog A", "mode=pde"));
    }

    #[test]
    fn lru_eviction_respects_the_byte_bound() {
        let unit = payload("x").cost_bytes();
        let mut cache = PersistentCache::in_memory(3 * unit + 2);
        for i in 0..3u32 {
            cache.insert(CacheKey(i as u128), payload("x"));
        }
        assert_eq!(cache.len(), 3);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.get(CacheKey(0)).is_some());
        cache.insert(CacheKey(9), payload("x"));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(CacheKey(1)).is_none(), "LRU entry evicted");
        assert!(cache.get(CacheKey(0)).is_some());
        assert!(cache.get(CacheKey(9)).is_some());
        assert!(cache.bytes() <= 3 * unit + 2);
        assert_eq!(cache.evictions, 1);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut cache = PersistentCache::in_memory(8);
        cache.insert(CacheKey(1), payload("big"));
        assert!(cache.is_empty());
    }

    #[test]
    fn save_and_reload_round_trip() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut cache = PersistentCache::load(&path, 1 << 20);
        assert!(cache.load_report.fresh);
        cache.insert(CacheKey(7), payload("a"));
        cache.insert(CacheKey(8), payload("b"));
        cache.save().unwrap();
        let mut back = PersistentCache::load(&path, 1 << 20);
        assert_eq!(back.load_report.loaded, 2);
        assert_eq!(back.load_report.skipped, 0);
        assert_eq!(back.get(CacheKey(7)).unwrap(), payload("a"));
        assert_eq!(back.get(CacheKey(8)).unwrap(), payload("b"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inserts_are_durable_without_a_clean_save() {
        let path = tmp("wal-durable");
        std::fs::remove_file(&path).ok();
        {
            let mut cache = PersistentCache::load_with_fsync(&path, 1 << 20, 1);
            cache.insert(CacheKey(1), payload("a"));
            cache.insert(CacheKey(2), payload("b"));
            // No save(): the cache is dropped as a crash would drop it.
        }
        let mut back = PersistentCache::load(&path, 1 << 20);
        assert_eq!(back.load_report.loaded, 2, "WAL replay restored both");
        assert_eq!(back.get(CacheKey(1)).unwrap(), payload("a"));
        assert_eq!(back.get(CacheKey(2)).unwrap(), payload("b"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn logged_evictions_replay_to_the_same_live_set() {
        let unit = payload("x").cost_bytes();
        let path = tmp("wal-evict");
        std::fs::remove_file(&path).ok();
        {
            let mut cache = PersistentCache::load_with_fsync(&path, 2 * unit + 1, 1);
            cache.insert(CacheKey(1), payload("x"));
            cache.insert(CacheKey(2), payload("x"));
            cache.insert(CacheKey(3), payload("x")); // evicts key 1
            assert_eq!(cache.evictions, 1);
        }
        let mut back = PersistentCache::load(&path, 2 * unit + 1);
        assert_eq!(back.len(), 2);
        assert!(back.get(CacheKey(1)).is_none(), "evict record replayed");
        assert!(back.get(CacheKey(2)).is_some());
        assert!(back.get(CacheKey(3)).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_loses_only_the_last_record() {
        let path = tmp("wal-torn");
        std::fs::remove_file(&path).ok();
        {
            let mut cache = PersistentCache::load_with_fsync(&path, 1 << 20, 1);
            cache.insert(CacheKey(1), payload("a"));
            cache.insert(CacheKey(2), payload("b"));
        }
        // Tear the final record mid-line, as a crash mid-write would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let mut back = PersistentCache::load(&path, 1 << 20);
        assert_eq!(back.load_report.loaded, 1);
        assert_eq!(back.load_report.skipped, 1);
        assert!(back.get(CacheKey(1)).is_some());
        assert!(back.get(CacheKey(2)).is_none(), "torn record is a miss");
        // The invalid tail was truncated: appends resume cleanly.
        back.insert(CacheKey(3), payload("c"));
        drop(back);
        let again = PersistentCache::load(&path, 1 << 20);
        assert_eq!(again.load_report.loaded, 2);
        assert_eq!(again.load_report.skipped, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_lines_degrade_to_misses() {
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        let mut cache = PersistentCache::load(&path, 1 << 20);
        cache.insert(CacheKey(1), payload("a"));
        cache.insert(CacheKey(2), payload("b"));
        cache.save().unwrap();
        // Flip a byte inside the *second* entry's body and truncate the
        // tail of the file mid-line.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        assert_eq!(lines.len(), 3);
        lines[2] = lines[2].replace("rounds", "rounbs");
        let mut mangled = lines.join("\n");
        mangled.truncate(mangled.len() - 4);
        std::fs::write(&path, mangled).unwrap();
        let mut back = PersistentCache::load(&path, 1 << 20);
        assert_eq!(back.load_report.loaded, 1);
        assert_eq!(back.load_report.skipped, 1);
        assert!(back.get(CacheKey(1)).is_some());
        assert!(back.get(CacheKey(2)).is_none(), "corrupt entry is a miss");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_bounds_the_log_and_preserves_the_live_set() {
        let path = tmp("wal-compact");
        std::fs::remove_file(&path).ok();
        let unit = payload("0000").cost_bytes();
        let mut cache = PersistentCache::load_with_fsync(&path, 4 * unit, 64);
        // Enough churn to blow well past the compaction floor.
        let rounds = (2 * COMPACT_MIN_BYTES / unit) as u32;
        for i in 0..rounds {
            cache.insert(CacheKey(i as u128 % 8), payload(&format!("{i:04}")));
        }
        let (_, _, compactions) = cache.wal_stats();
        assert!(compactions > 0, "churn must trigger compaction");
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert!(
            on_disk < COMPACT_MIN_BYTES + 2 * 4 * unit,
            "log stayed bounded: {on_disk} bytes"
        );
        let live: Vec<u128> = cache.map.keys().copied().collect();
        drop(cache);
        let back = PersistentCache::load(&path, 4 * unit);
        let mut recovered: Vec<u128> = back.map.keys().copied().collect();
        let mut expected = live;
        recovered.sort_unstable();
        expected.sort_unstable();
        assert_eq!(recovered, expected, "recovery equals the live set");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_files_start_empty_without_crashing() {
        let path = tmp("garbage");
        std::fs::write(&path, b"\x00\xffnot a cache\nat all").unwrap();
        let cache = PersistentCache::load(&path, 1 << 20);
        assert!(cache.is_empty());
        assert!(cache.load_report.fresh);
        std::fs::remove_file(&path).ok();
    }
}
