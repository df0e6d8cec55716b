//! Poison-request quarantine, and the circuit breaker kept for the
//! benchmark's replica.
//!
//! The resilience ladder makes any *single* optimization attempt total,
//! but a poison request — one whose optimization panics, blows its
//! budget, or wedges a worker every time it is seen — would otherwise
//! burn a full ladder descent (and a watchdog deadline) on every
//! repeat. The **quarantine** stops that: it counts *strikes* per
//! canonical content hash. Every request whose attempt degraded (any
//! ladder rung engaged, a watchdog deadline fired, or a failure escaped
//! the ladder) takes a strike; at `max_strikes` the hash enters the
//! quarantine set and later repeats short-circuit to a structured
//! identity answer (rung `"quarantined"`) before any optimization work.
//! The set is persisted next to the cache with the same checksummed
//! line framing, so a poison request stays quarantined across restarts.
//!
//! [`Breaker`] and [`BreakerConfig`] are not on the server's request
//! path. The frozen benchmark replica (`perfbench/src/replica.rs`)
//! still constructs and consults one, so they stay until the replica
//! drops them. The breaker watches a rolling failure window: at least
//! half of a full window failing trips it `Open`, which denies
//! admission for a cooldown; then it goes `HalfOpen`, where enough
//! consecutive successes close it and one failure re-opens it.
//!
//! Both structures are deterministic for a fixed request sequence, so
//! the tests can assert exact state transitions.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

use crate::cache::CacheKey;
use crate::wal::{replace_file, unframe, write_record};

/// On-disk header of the persisted quarantine set.
const HEADER: &str = "pdce-serve-quarantine v1";

/// The strike ledger and the persisted quarantine set.
#[derive(Debug)]
pub struct Quarantine {
    path: Option<PathBuf>,
    /// Degradation strikes per canonical content hash (only hashes
    /// below the quarantine threshold).
    strikes: HashMap<u128, u32>,
    quarantined: HashSet<u128>,
    max_strikes: u32,
    /// Requests short-circuited by the quarantine set.
    pub hits: u64,
}

impl Quarantine {
    /// An empty, unpersisted quarantine (testing and `--no-cache`
    /// servers). `max_strikes` of 0 disables quarantining entirely.
    pub fn in_memory(max_strikes: u32) -> Quarantine {
        Quarantine {
            path: None,
            strikes: HashMap::new(),
            quarantined: HashSet::new(),
            max_strikes,
            hits: 0,
        }
    }

    /// Opens (or creates) the persisted set at `path`. Damaged lines
    /// are skipped — losing a quarantine entry only means the poison
    /// hash must strike out again.
    pub fn load(path: &Path, max_strikes: u32) -> Quarantine {
        let mut q = Quarantine::in_memory(max_strikes);
        q.path = Some(path.to_path_buf());
        let Ok(text) = std::fs::read_to_string(path) else {
            return q;
        };
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return q;
        }
        for line in lines {
            let Some(body) = unframe(line) else { continue };
            if let Some(hex) = body
                .strip_prefix("{\"key\":\"")
                .and_then(|r| r.strip_suffix("\"}"))
            {
                if let Ok(key) = u128::from_str_radix(hex, 16) {
                    q.quarantined.insert(key);
                }
            }
        }
        q
    }

    pub fn len(&self) -> usize {
        self.quarantined.len()
    }

    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Whether `key` is quarantined, counting a hit if so.
    pub fn check(&mut self, key: CacheKey) -> bool {
        if self.quarantined.contains(&key.0) {
            self.hits += 1;
            return true;
        }
        false
    }

    /// Records one degradation strike against `key`. Returns `true`
    /// when this strike quarantines the hash (the set is persisted
    /// before returning).
    pub fn strike(&mut self, key: CacheKey) -> bool {
        if self.max_strikes == 0 || self.quarantined.contains(&key.0) {
            return false;
        }
        let strikes = self.strikes.entry(key.0).or_insert(0);
        *strikes += 1;
        if *strikes < self.max_strikes {
            return false;
        }
        self.strikes.remove(&key.0);
        self.quarantined.insert(key.0);
        self.persist();
        true
    }

    /// Clears the strike count for `key` (a clean, undegraded answer
    /// proves the request is not poison).
    pub fn absolve(&mut self, key: CacheKey) {
        self.strikes.remove(&key.0);
    }

    /// Atomically rewrites the persisted set (it is small — one line
    /// per poison hash — so a full rewrite per change is fine).
    fn persist(&self) {
        let Some(path) = &self.path else { return };
        let mut keys: Vec<u128> = self.quarantined.iter().copied().collect();
        keys.sort_unstable();
        let _ = replace_file(path, HEADER, |out| {
            for key in keys {
                let hex = CacheKey(key).hex_digits();
                write_record(out, &[b"{\"key\":\"", &hex, b"\"}"])?;
            }
            Ok(())
        });
    }
}

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal admission.
    Closed,
    /// Tripped: every admission is denied for the remaining cooldown
    /// (counted in requests).
    Open { cooldown: u32 },
    /// Probing: requests are admitted again; `successes` consecutive
    /// clean answers close the breaker, one failure re-opens it.
    HalfOpen { successes: u32 },
}

/// Tuning knobs for [`Breaker`]; the replica uses the defaults.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Rolling-window size; the failure rate is only consulted once
    /// the window is full.
    pub window: usize,
    /// Trip when `failures * 2 >= window` (≥50% of a full window).
    /// Kept implicit; see [`Breaker::record`].
    pub cooldown: u32,
    /// Consecutive half-open successes required to close.
    pub probes_to_close: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 16,
            cooldown: 16,
            probes_to_close: 3,
        }
    }
}

/// The rolling failure-window circuit breaker (kept for the benchmark
/// replica only; the server does not use it).
#[derive(Debug)]
pub struct Breaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Recent request outcomes, `true` = degraded/failed.
    window: VecDeque<bool>,
    /// Lifetime trips (for the health report).
    pub trips: u64,
}

impl Breaker {
    pub fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            config,
            state: BreakerState::Closed,
            window: VecDeque::with_capacity(config.window.max(1)),
            trips: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consulted at admission: `true` when the request may run, `false`
    /// while the breaker is open. `Open` counts the request against the
    /// cooldown and moves to `HalfOpen` when it expires; `HalfOpen`
    /// admits every request as a probe.
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen { .. } => true,
            BreakerState::Open { cooldown } => {
                if cooldown > 1 {
                    self.state = BreakerState::Open {
                        cooldown: cooldown - 1,
                    };
                } else {
                    self.state = BreakerState::HalfOpen { successes: 0 };
                }
                false
            }
        }
    }

    /// Records one admitted request's outcome.
    pub fn record(&mut self, failed: bool) {
        match self.state {
            BreakerState::Closed => {
                if self.window.len() == self.config.window {
                    self.window.pop_front();
                }
                self.window.push_back(failed);
                let failures = self.window.iter().filter(|&&f| f).count();
                if self.window.len() == self.config.window && failures * 2 >= self.config.window {
                    self.trip();
                }
            }
            BreakerState::HalfOpen { successes } => {
                if failed {
                    self.trip();
                } else if successes + 1 >= self.config.probes_to_close {
                    self.state = BreakerState::Closed;
                    self.window.clear();
                } else {
                    self.state = BreakerState::HalfOpen {
                        successes: successes + 1,
                    };
                }
            }
            // Denied requests while open are not samples.
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open {
            cooldown: self.config.cooldown.max(1),
        };
        self.trips += 1;
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pdce-serve-quar-{}-{name}", std::process::id()))
    }

    #[test]
    fn three_strikes_quarantine_and_persist() {
        let path = tmp("strikes");
        std::fs::remove_file(&path).ok();
        let key = CacheKey(42);
        let mut q = Quarantine::load(&path, 3);
        assert!(!q.check(key));
        assert!(!q.strike(key));
        assert!(!q.strike(key));
        assert!(q.strike(key), "third strike quarantines");
        assert!(q.check(key));
        assert_eq!(q.hits, 1);
        // Persisted: a restart still short-circuits the poison hash.
        let mut back = Quarantine::load(&path, 3);
        assert_eq!(back.len(), 1);
        assert!(back.check(key));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_answers_reset_the_strike_count() {
        let mut q = Quarantine::in_memory(3);
        let key = CacheKey(7);
        q.strike(key);
        q.strike(key);
        q.absolve(key);
        assert!(!q.strike(key));
        assert!(!q.strike(key));
        assert!(q.strike(key));
    }

    #[test]
    fn zero_max_strikes_disables_quarantine() {
        let mut q = Quarantine::in_memory(0);
        for _ in 0..10 {
            assert!(!q.strike(CacheKey(1)));
        }
        assert!(!q.check(CacheKey(1)));
    }

    #[test]
    fn damaged_quarantine_files_load_what_survives() {
        let path = tmp("damaged");
        std::fs::remove_file(&path).ok();
        let mut q = Quarantine::load(&path, 1);
        q.strike(CacheKey(1));
        q.strike(CacheKey(2));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replacen("key", "kex", 1); // break one line's checksum body
        std::fs::write(&path, &text).unwrap();
        let back = Quarantine::load(&path, 1);
        assert_eq!(back.len(), 1, "damaged line skipped, survivor kept");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn breaker_trips_on_a_failing_window_and_recovers_via_probes() {
        let mut b = Breaker::new(BreakerConfig {
            window: 4,
            cooldown: 2,
            probes_to_close: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        // Below the window size: never trips, whatever the rate.
        for _ in 0..3 {
            assert!(b.admit());
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        b.record(true); // 4/4 failed: trip
        assert_eq!(b.state(), BreakerState::Open { cooldown: 2 });
        assert_eq!(b.trips, 1);
        // Cooldown counts denied admissions, then half-opens.
        assert!(!b.admit());
        assert!(!b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen { successes: 0 });
        // Probe success × 2 closes; the window starts fresh.
        assert!(b.admit());
        b.record(false);
        assert!(b.admit());
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed);
        // A half-open failure re-opens immediately.
        for _ in 0..4 {
            b.admit();
            b.record(true);
        }
        b.admit();
        b.admit();
        assert!(matches!(b.state(), BreakerState::HalfOpen { .. }));
        b.admit();
        b.record(true);
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert_eq!(b.trips, 3);
    }

    #[test]
    fn mostly_clean_traffic_never_trips() {
        let mut b = Breaker::new(BreakerConfig::default());
        for i in 0..200 {
            assert!(b.admit());
            b.record(i % 4 == 0); // 25% failure rate: under the bar
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips, 0);
    }
}
