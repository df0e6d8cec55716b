//! The cache's crash-consistent write-ahead log.
//!
//! PR 8 persisted the result cache only on clean shutdown, so a
//! `kill -9` (or an OOM kill, or a power cut) threw away every answer
//! computed since startup. This module replaces that with an
//! append-only log sharing the cache's FNV-64 line framing: every
//! insert and every eviction is appended as one checksummed line, the
//! file is `fdatasync`ed every `fsync_every` appends, and the
//! log is compacted into a plain snapshot (atomic temp + rename) once
//! it outgrows the live set. Recovery replays the **longest valid
//! prefix**: the scan stops at the first line whose checksum, framing,
//! or JSON fails — a torn final write, a truncated tail, or a flipped
//! bit discards at most the unfsynced suffix and can never resurrect a
//! wrong answer, because every line earlier in the prefix was written
//! in full before it.
//!
//! ```text
//! pdce-serve-cache v3
//! <16-hex fnv64 of body>\t{"key":"…","program":…,…}     # insert
//! <16-hex fnv64 of body>\t{"evict":"…"}                  # evict
//! ```
//!
//! The writer assumes single ownership of the file (one daemon per
//! cache path); opening a log truncates any invalid tail in place so
//! subsequent appends extend the valid prefix.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use crate::cache::fnv64;

/// On-disk header for the WAL-backed format. Older headers are
/// deliberately not recognized: a v1 file (snapshot only) or a v2 log
/// (whose payloads counted a stable block's re-derived statements as
/// sunk and inserted) reloads as empty and is reclaimed as a v3 log.
pub const HEADER: &str = "pdce-serve-cache v3";

/// Registry handles for the log. Appends/compactions/recovery counts
/// are deterministic for a fixed request sequence; fsync cadence is a
/// pure function of the append count, so it is deterministic too.
mod wal_metrics {
    use pdce_metrics::{global, Counter, Stability};
    use std::sync::{Arc, LazyLock};

    fn counter(name: &'static str, help: &'static str) -> Arc<Counter> {
        global().counter(name, help, Stability::Deterministic, &[])
    }

    pub static APPENDS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_serve_wal_appends_total",
            "Insert/evict records appended to the cache write-ahead log",
        )
    });
    pub static FSYNCS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_serve_wal_fsyncs_total",
            "fdatasync calls issued by the cache write-ahead log",
        )
    });
    pub static COMPACTIONS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_serve_wal_compactions_total",
            "Write-ahead log compactions into a snapshot",
        )
    });
    pub static RECOVERED: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_serve_wal_recovered_total",
            "Cache entries recovered by replaying the write-ahead log",
        )
    });
    pub static DISCARDED: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        counter(
            "pdce_serve_wal_discarded_total",
            "Log lines discarded at recovery (invalid tail after the longest valid prefix)",
        )
    });
}

/// Frames `body` as one log line: checksum, tab, body, newline.
pub fn frame(body: &str) -> String {
    format!("{:016x}\t{body}\n", fnv64(body.as_bytes()))
}

/// Verifies one framed line, returning its body.
pub fn unframe(line: &str) -> Option<&str> {
    let (sum, body) = line.split_once('\t')?;
    if sum.len() != 16 || u64::from_str_radix(sum, 16).ok()? != fnv64(body.as_bytes()) {
        return None;
    }
    Some(body)
}

/// One line of the longest valid prefix found by [`scan`].
pub struct ScannedLine<'a> {
    /// The checksum-verified body (JSON, not yet decoded).
    pub body: &'a str,
    /// Byte offset of the end of this line (past its newline) — the
    /// truncation point if a *later* line turns out to be invalid.
    pub end: u64,
}

/// What a recovery scan of the log text found.
pub struct Scan<'a> {
    /// Checksum-valid lines, in append order.
    pub lines: Vec<ScannedLine<'a>>,
    /// Byte offset of the end of the header line.
    pub header_end: u64,
    /// Lines (including a torn final fragment) after the first invalid
    /// one; they are discarded by recovery.
    pub discarded: usize,
}

/// Scans `text` for the longest valid prefix of a v2 log. `None` when
/// the header is missing or torn (the cache starts fresh).
pub fn scan(text: &str) -> Option<Scan<'_>> {
    let header_end = (HEADER.len() + 1) as u64;
    if !text.starts_with(HEADER) || text.as_bytes().get(HEADER.len()) != Some(&b'\n') {
        return None;
    }
    let mut lines = Vec::new();
    let mut pos = header_end as usize;
    let mut discarded = 0;
    while pos < text.len() {
        let Some(nl) = text[pos..].find('\n') else {
            // Torn final write: no newline ever made it to disk.
            discarded += 1;
            break;
        };
        let line = &text[pos..pos + nl];
        match unframe(line) {
            Some(body) => {
                pos += nl + 1;
                lines.push(ScannedLine {
                    body,
                    end: pos as u64,
                });
            }
            None => {
                // First invalid line: everything from here on is
                // untrusted (later lines may be checksum-valid debris
                // of a previous generation).
                discarded += text[pos..].lines().count();
                break;
            }
        }
    }
    Some(Scan {
        lines,
        header_end,
        discarded,
    })
}

/// Reports `n` recovered entries and `discarded` dropped lines to the
/// metrics plane (called once per cache load).
pub fn note_recovery(recovered: usize, discarded: usize) {
    wal_metrics::RECOVERED.add(recovered as u64);
    wal_metrics::DISCARDED.add(discarded as u64);
}

/// The append handle: a file positioned at the end of its valid
/// prefix, plus the fsync ledger.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Bytes currently in the log (the compaction trigger's currency).
    pub bytes: u64,
    /// Appends since the last fsync.
    unsynced: u64,
    /// fdatasync after this many appends (min 1).
    fsync_every: u64,
    pub appends: u64,
    pub fsyncs: u64,
    pub compactions: u64,
}

impl Wal {
    /// Creates a fresh log at `path` (truncating whatever was there)
    /// with just the header, synced.
    ///
    /// # Errors
    /// Propagates file creation/write failures.
    pub fn create(path: &Path, fsync_every: u64) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(HEADER.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(Wal {
            file,
            bytes: (HEADER.len() + 1) as u64,
            unsynced: 0,
            fsync_every: fsync_every.max(1),
            appends: 0,
            fsyncs: 0,
            compactions: 0,
        })
    }

    /// Opens the log at `path` for appending after recovery, truncating
    /// the invalid tail: everything past `valid_bytes` is cut so new
    /// appends extend the valid prefix.
    ///
    /// # Errors
    /// Propagates open/truncate/seek failures.
    pub fn open_at(path: &Path, valid_bytes: u64, fsync_every: u64) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            bytes: valid_bytes,
            unsynced: 0,
            fsync_every: fsync_every.max(1),
            appends: 0,
            fsyncs: 0,
            compactions: 0,
        })
    }

    /// Appends one framed record and fsyncs if the interval is due.
    /// The line is written with a single `write_all`, so a crash leaves
    /// either the whole line or a torn tail — never an interleaving.
    ///
    /// # Errors
    /// Propagates write/sync failures (the cache degrades to in-memory
    /// operation on error).
    pub fn append(&mut self, body: &str) -> std::io::Result<()> {
        let line = frame(body);
        self.file.write_all(line.as_bytes())?;
        self.bytes += line.len() as u64;
        self.appends += 1;
        wal_metrics::APPENDS.inc();
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces the unfsynced tail to disk.
    ///
    /// # Errors
    /// Propagates the `fdatasync` failure.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file.sync_data()?;
        self.unsynced = 0;
        self.fsyncs += 1;
        wal_metrics::FSYNCS.inc();
        Ok(())
    }

    /// Replaces the log with `snapshot` (header + one insert line per
    /// live entry) atomically: temp write, sync, rename, reopen for
    /// append. On success the handle continues on the new generation.
    ///
    /// # Errors
    /// Propagates temp-write/rename/reopen failures; the old log is
    /// intact if the rename never happened.
    pub fn compact_to(&mut self, path: &Path, snapshot: &str) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut out = File::create(&tmp)?;
            out.write_all(snapshot.as_bytes())?;
            out.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.bytes = snapshot.len() as u64;
        self.unsynced = 0;
        self.compactions += 1;
        wal_metrics::COMPACTIONS.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_unframe_round_trip() {
        let line = frame(r#"{"evict":"00"}"#);
        assert!(line.ends_with('\n'));
        assert_eq!(unframe(line.trim_end()), Some(r#"{"evict":"00"}"#));
        assert_eq!(unframe("0123\tshort sum"), None);
        assert_eq!(unframe("no tab at all"), None);
        let mut bad = line.trim_end().to_string();
        bad.push('x');
        assert_eq!(unframe(&bad), None, "checksum catches the mutation");
    }

    #[test]
    fn scan_stops_at_the_first_invalid_line() {
        let mut text = format!("{HEADER}\n");
        text.push_str(&frame("one"));
        text.push_str(&frame("two"));
        let good_end = text.len() as u64;
        text.push_str("garbage line\n");
        text.push_str(&frame("three")); // valid but after the break
        let s = scan(&text).unwrap();
        assert_eq!(s.lines.len(), 2);
        assert_eq!(s.lines[1].end, good_end);
        assert_eq!(s.discarded, 2, "invalid line and the debris after it");
    }

    #[test]
    fn scan_discards_a_torn_final_write() {
        let mut text = format!("{HEADER}\n");
        text.push_str(&frame("one"));
        let good_end = text.len() as u64;
        let torn = frame("two");
        text.push_str(&torn[..torn.len() - 3]); // newline never landed
        let s = scan(&text).unwrap();
        assert_eq!(s.lines.len(), 1);
        assert_eq!(s.lines[0].end, good_end);
        assert_eq!(s.discarded, 1);
    }

    #[test]
    fn unrecognized_headers_mean_fresh() {
        assert!(scan("pdce-serve-cache v1\nwhatever").is_none());
        assert!(scan("pdce-serve-cache v2\nwhatever").is_none());
        assert!(scan("").is_none());
        assert!(scan(HEADER).is_none(), "torn header line");
    }
}
