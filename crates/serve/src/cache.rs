//! The persistent result cache: content hash → optimized program.
//!
//! Repeat traffic is the serving workload's common case, so the daemon
//! answers it in O(lookup): the cache key is a 128-bit FNV-1a hash of
//! the *canonically printed* input program (formatting-insensitive)
//! plus every semantics-affecting option (mode, effective budgets,
//! validation), and the value is the full deterministic response
//! payload in wire form: the response fields that follow
//! `"status":0,`, rendered once when the answer is computed (see
//! [`StoredResult`]). A hit copies them behind the request's id, and
//! the log's insert record is the key followed by the same bytes, so
//! nothing is escaped again. The option string still ends in the fixed
//! `solver=ambient` component from the days of selectable solvers, so
//! keys persisted in existing cache files stay valid.
//!
//! A second, unpersisted memo ([`PersistentCache::get_raw_alias_fields`])
//! maps the hash of the program text *as sent* ([`CacheKey::raw_alias`])
//! to its canonical key, so a byte-for-byte repeat request is answered
//! without even parsing the program — the steady state of real repeat
//! traffic.
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
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use pdce_trace::json::{self, Value};

use crate::protocol::{render_fields, ResultPayload};
use crate::wal::{self, Wal, WalTime};

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

/// The 64-bit FNV-1a offset basis.
pub(crate) const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, used for the per-line checksums.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_BASIS, bytes)
}

/// Continues a 64-bit FNV-1a hash `h` over `bytes`, so a body held in
/// pieces hashes as if it were one slice.
pub(crate) fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
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

    /// The raw-text alias memo's key: a 128-bit hash of `options` and
    /// the program text *as sent*, each led by its length so the split
    /// between them is part of the key. Unlike [`CacheKey::compute`] it
    /// mixes eight bytes per step and copies nothing. The memo is never
    /// persisted, so this hash is free to differ from the on-disk keys'.
    pub fn raw_alias(program: &str, options: &str) -> CacheKey {
        let mut h = WordHasher {
            a: 0x9e37_79b9_7f4a_7c15,
            b: 0xd6e8_feb8_6659_fd93,
        };
        h.write(options.as_bytes());
        h.write(program.as_bytes());
        CacheKey((u128::from(h.a) << 64) | u128::from(h.b))
    }

    /// 32-hex-char rendering used on disk.
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// [`CacheKey::hex`]'s digits, without allocating.
    pub(crate) fn hex_digits(self) -> [u8; 32] {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0; 32];
        for (i, d) in out.iter_mut().enumerate() {
            *d = DIGITS[((self.0 >> (124 - 4 * i)) & 0xf) as usize];
        }
        out
    }

    fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(CacheKey)
    }
}

/// Two independent 64-bit lanes over little-endian words. Each step is
/// a bijection of the lane state for a fixed word and of the word for a
/// fixed state, so two equally long inputs that differ in one word
/// always hash apart.
struct WordHasher {
    a: u64,
    b: u64,
}

impl WordHasher {
    fn word(&mut self, w: u64) {
        let p = u128::from(self.a ^ w) * 0xbf58_476d_1ce4_e5b9;
        self.a = (p as u64) ^ ((p >> 64) as u64);
        self.b = (self.b ^ w)
            .wrapping_mul(0x94d0_49bb_1331_11eb)
            .rotate_left(31);
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }
}

/// A cache value in wire form: the success response's fields after
/// `"status":0,` ([`render_fields`]), rendered once, and the eviction
/// cost of the payload they render.
#[derive(Debug, Clone)]
pub struct StoredResult {
    fields: Box<str>,
    bytes: u64,
}

impl StoredResult {
    /// Escapes `payload` once; its cost stays
    /// [`ResultPayload::cost_bytes`], so eviction and compaction points
    /// do not depend on the stored form.
    pub fn render(payload: &ResultPayload) -> StoredResult {
        StoredResult {
            // An exact-size copy, not the rendering buffer shrunk in
            // place: a shrink frees a fragment beside every long-lived
            // entry, which raised serve_mixed's peak RSS by 0.55 MiB.
            fields: Box::from(render_fields(payload).as_str()),
            bytes: payload.cost_bytes(),
        }
    }

    /// The rendered fields, ready to follow a response's `"status":0,`.
    pub fn fields(&self) -> &str {
        &self.fields
    }
}

#[derive(Debug, Clone)]
struct Entry {
    stored: StoredResult,
    last_used: u64,
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

/// Cap on each generation of the raw-text alias memo. The memo is a
/// pure accelerator (raw request bytes → canonical key, skipping the
/// parse and canonical print of verbatim repeat traffic), kept as two
/// generations rather than LRU-tracked: when the current generation
/// fills it becomes the old one and the previous old one is dropped,
/// and a lookup that finds its alias in the old generation moves it
/// back to the current one. An alias used at least once per generation
/// therefore lives on, one never used again is gone after two, and the
/// memo never holds more than `2 * MAX_ALIASES` aliases.
pub const MAX_ALIASES: usize = 1 << 12;

/// Size-bounded LRU cache with an optional on-disk home.
#[derive(Debug)]
pub struct PersistentCache {
    path: Option<PathBuf>,
    max_bytes: u64,
    map: HashMap<u128, Entry>,
    /// Raw-text fast path: hash of (raw program text, options) →
    /// canonical key, current generation. Not persisted; rebuilt from
    /// live traffic.
    aliases: HashMap<u128, u128>,
    /// The previous generation (see [`MAX_ALIASES`]).
    old_aliases: HashMap<u128, u128>,
    total_bytes: u64,
    clock: u64,
    /// The append handle; `None` for in-memory caches, and dropped
    /// (degrading to in-memory operation plus a shutdown snapshot) if
    /// the log ever fails an I/O operation.
    wal: Option<Wal>,
    /// Hits/misses/evictions since construction (per-server numbers,
    /// exposed by the `health` answer and `pdce serve --metrics-out`).
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
            old_aliases: HashMap::new(),
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
                            // Re-rendered from the decoded values, so
                            // the stored bytes are canonical whatever
                            // the file holds.
                            cache.insert_raw(key, StoredResult::render(&payload));
                        }
                        Some(WalOp::Evict(key)) => {
                            if let Some(e) = cache.map.remove(&key.0) {
                                cache.total_bytes -= e.stored.bytes;
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

    /// Live entries in the raw-text alias memo, both generations.
    pub fn alias_len(&self) -> usize {
        self.aliases.len() + self.old_aliases.len()
    }

    /// Log appends/fsyncs/compactions so far (zeros when in-memory).
    pub fn wal_stats(&self) -> (u64, u64, u64) {
        self.wal
            .as_ref()
            .map_or((0, 0, 0), |w| (w.appends, w.fsyncs, w.compactions))
    }

    /// Wall time the log has spent writing so far (zeros when
    /// in-memory).
    pub(crate) fn wal_time(&self) -> WalTime {
        self.wal.as_ref().map_or_else(WalTime::default, |w| w.time)
    }

    /// Looks `key` up, refreshing its recency on a hit, and returns the
    /// stored response fields ([`StoredResult::fields`]).
    pub fn get_fields(&mut self, key: CacheKey) -> Option<&str> {
        self.clock += 1;
        match self.map.get_mut(&key.0) {
            Some(e) => {
                e.last_used = self.clock;
                self.hits += 1;
                Some(e.stored.fields())
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
    /// caller's canonical lookup will count the miss. An alias found
    /// in the old generation moves to the current one.
    pub fn get_raw_alias_fields(&mut self, raw: CacheKey) -> Option<&str> {
        let canonical = match self.aliases.get(&raw.0) {
            Some(&canonical) => canonical,
            None => {
                let canonical = self.old_aliases.remove(&raw.0)?;
                self.record_alias(raw, CacheKey(canonical));
                canonical
            }
        };
        if !self.map.contains_key(&canonical) {
            self.aliases.remove(&raw.0);
            return None;
        }
        self.get_fields(CacheKey(canonical))
    }

    /// [`PersistentCache::get_fields`], decoded back into a payload.
    pub fn get(&mut self, key: CacheKey) -> Option<ResultPayload> {
        self.get_fields(key).map(decode_fields)
    }

    /// [`PersistentCache::get_raw_alias_fields`], decoded back into a
    /// payload.
    pub fn get_raw_alias(&mut self, raw: CacheKey) -> Option<ResultPayload> {
        self.get_raw_alias_fields(raw).map(decode_fields)
    }

    /// Memoizes `raw` (request-text hash) → `canonical` so the next
    /// verbatim repeat takes the parse-free fast path.
    pub fn record_alias(&mut self, raw: CacheKey, canonical: CacheKey) {
        if self.aliases.len() >= MAX_ALIASES {
            // The full generation becomes the old one; the old one's
            // table is cleared and reused as the new current one.
            std::mem::swap(&mut self.aliases, &mut self.old_aliases);
            self.aliases.clear();
        }
        self.aliases.insert(raw.0, canonical.0);
    }

    /// Inserts (or refreshes) `key`, evicting LRU entries as needed.
    /// The insert and any evictions are appended to the log before the
    /// call returns (durable after the next fsync interval).
    pub fn insert(&mut self, key: CacheKey, payload: ResultPayload) {
        self.insert_stored(key, StoredResult::render(&payload));
    }

    /// [`PersistentCache::insert`] of an already rendered answer: the
    /// log record carries its fields as they are.
    pub fn insert_stored(&mut self, key: CacheKey, stored: StoredResult) {
        if stored.bytes > self.max_bytes {
            return;
        }
        self.log_insert(key, stored.fields());
        self.insert_raw(key, stored);
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
                self.total_bytes -= e.stored.bytes;
                self.evictions += 1;
                self.log_evict(CacheKey(victim));
            }
        }
    }

    fn insert_raw(&mut self, key: CacheKey, stored: StoredResult) {
        self.clock += 1;
        let bytes = stored.bytes;
        let entry = Entry {
            stored,
            last_used: self.clock,
        };
        if let Some(old) = self.map.insert(key.0, entry) {
            self.total_bytes -= old.stored.bytes;
        }
        self.total_bytes += bytes;
    }

    fn log_insert(&mut self, key: CacheKey, fields: &str) {
        if self.wal.is_some() {
            self.append(&insert_record(&key.hex_digits(), fields));
        }
    }

    fn log_evict(&mut self, key: CacheKey) {
        if self.wal.is_some() {
            self.append(&[b"{\"evict\":\"", &key.hex_digits(), b"\"}"]);
        }
    }

    /// Appends one record, demoting to in-memory operation on I/O
    /// failure (the cache keeps serving; `save` still snapshots).
    fn append(&mut self, parts: &[&[u8]]) {
        if let Some(w) = &mut self.wal {
            if w.append(parts).is_err() {
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

    /// Compacts the log into a snapshot of the live set — the header,
    /// then one insert record per entry, oldest first so a bounded
    /// reload keeps recent traffic — and fsyncs. The records stream to
    /// the temp file through one fixed-size buffer (`wal::replace_file`),
    /// so nothing proportional to the live set is built. Called on the
    /// compaction threshold and at clean shutdown; a no-op for
    /// in-memory caches.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures of the temp-file write or the rename.
    pub fn save(&mut self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut entries: Vec<(&u128, &Entry)> = self.map.iter().collect();
        entries.sort_by_key(|(_, e)| e.last_used);
        let write_records = |out: &mut BufWriter<File>| {
            for (key, e) in &entries {
                let hex = CacheKey(**key).hex_digits();
                wal::write_record(out, &insert_record(&hex, e.stored.fields()))?;
            }
            Ok(())
        };
        match &mut self.wal {
            Some(w) => {
                if let Err(e) = w.compact(path, write_records) {
                    self.wal = None;
                    self.wal_errors += 1;
                    return Err(e);
                }
                Ok(())
            }
            // The log handle is gone (earlier I/O failure): the same
            // atomic rewrite, without an append handle after it.
            None => wal::replace_file(path, wal::HEADER, write_records).map(drop),
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

/// An insert record's body in parts: the key's hex digits, then the
/// stored response fields as they are (they open with `"program"` and
/// close the object).
fn insert_record<'a>(key_hex: &'a [u8; 32], fields: &'a str) -> [&'a [u8]; 4] {
    [b"{\"key\":\"", key_hex, b"\",", fields.as_bytes()]
}

fn decode_op(body: &str) -> Option<WalOp> {
    let doc = json::parse(body).ok()?;
    if let Some(evict) = doc.get("evict") {
        return Some(WalOp::Evict(CacheKey::from_hex(evict.as_str()?)?));
    }
    let key = CacheKey::from_hex(doc.get("key")?.as_str()?)?;
    Some(WalOp::Insert(key, payload_of(&doc)?))
}

/// The payload an insert record or stored fields object carries.
fn payload_of(doc: &Value) -> Option<ResultPayload> {
    let num = |k: &str| -> Option<u64> {
        let n = doc.get(k)?.as_num()?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
    };
    Some(ResultPayload {
        program: doc.get("program")?.as_str()?.to_string(),
        rounds: num("rounds")?,
        eliminated: num("eliminated")?,
        sunk: num("sunk")?,
        inserted: num("inserted")?,
        rung: doc.get("rung")?.as_str()?.to_string(),
    })
}

/// Decodes stored fields, which [`render_fields`] always wrote.
fn decode_fields(fields: &str) -> ResultPayload {
    json::parse(&format!("{{{fields}"))
        .ok()
        .as_ref()
        .and_then(payload_of)
        .expect("stored fields are a rendered payload")
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
    fn alias_memo_holds_at_most_two_generations() {
        let mut c = PersistentCache::in_memory(1 << 20);
        c.insert(CacheKey(0), payload("a"));
        for i in 0..10 * MAX_ALIASES as u128 {
            c.record_alias(CacheKey(i + 1), CacheKey(0));
            assert!(
                c.alias_len() <= 2 * MAX_ALIASES,
                "{} aliases",
                c.alias_len()
            );
        }
        assert_eq!(c.aliases.len(), MAX_ALIASES);
        assert_eq!(c.old_aliases.len(), MAX_ALIASES);
        // The last two generations answer; everything older is gone,
        // and losing it costs no hit or miss.
        let last = 10 * MAX_ALIASES as u128;
        assert!(c.get_raw_alias_fields(CacheKey(last)).is_some());
        assert!(c
            .get_raw_alias_fields(CacheKey(last + 1 - 2 * MAX_ALIASES as u128))
            .is_some());
        assert!(c
            .get_raw_alias_fields(CacheKey(last - 2 * MAX_ALIASES as u128))
            .is_none());
        assert!(c.get_raw_alias_fields(CacheKey(1)).is_none());
        assert_eq!((c.hits, c.misses), (2, 0));
    }

    #[test]
    fn an_alias_touched_once_per_generation_survives() {
        let mut c = PersistentCache::in_memory(1 << 20);
        c.insert(CacheKey(0), payload("a"));
        let hot = CacheKey(u128::MAX);
        c.record_alias(hot, CacheKey(0));
        let mut filler = 0;
        for generation in 0..10 {
            // A generation's worth of one-off aliases: at least one
            // rotation, never two, passes between touches.
            for _ in 0..MAX_ALIASES {
                filler += 1;
                c.record_alias(CacheKey(filler), CacheKey(0));
            }
            assert!(
                c.get_raw_alias_fields(hot).is_some(),
                "lost in generation {generation}"
            );
        }
        assert_eq!(c.hits, 10);
        assert!(c.alias_len() <= 2 * MAX_ALIASES);
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
    fn raw_alias_keys_delimit_options_from_the_program() {
        let key = CacheKey::raw_alias;
        assert_ne!(key("c", "ab"), key("bc", "a"));
        assert_ne!(key("", "abc"), key("abc", ""));
        assert_eq!(key("c", "ab"), key("c", "ab"));
    }

    #[test]
    fn raw_alias_keys_cover_the_empty_program_and_word_tails() {
        // Lengths around the 8-byte word: an empty program, a 7-byte
        // tail, one whole word and a 1-byte tail after it, each apart
        // from the same text with a zero byte appended (the padding the
        // tail word is filled with).
        let mut keys = std::collections::HashSet::new();
        for text in ["", "abcdefg", "abcdefgh", "abcdefghi"] {
            let padded = format!("{text}\0");
            for program in [text, padded.as_str()] {
                let k = CacheKey::raw_alias(program, "mode=pde");
                assert_eq!(k, CacheKey::raw_alias(program, "mode=pde"));
                assert!(keys.insert(k), "{program:?} collides");
            }
        }
    }

    #[test]
    fn stored_fields_serve_hits_and_decode_to_the_payload() {
        let mut c = PersistentCache::in_memory(1 << 20);
        let p = payload("a");
        c.insert(CacheKey(1), p.clone());
        assert_eq!(c.get_fields(CacheKey(1)), Some(&*render_fields(&p)));
        assert_eq!(c.get(CacheKey(1)), Some(p.clone()));
        assert_eq!(
            c.bytes(),
            p.cost_bytes(),
            "cost of the payload, not the text"
        );
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
