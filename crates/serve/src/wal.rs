//! The cache's crash-consistent write-ahead log.
//!
//! PR 8 persisted the result cache only on clean shutdown, so a
//! `kill -9` (or an OOM kill, or a power cut) threw away every answer
//! computed since startup. This module replaces that with an
//! append-only log sharing the cache's FNV-64 line framing: every
//! insert and every eviction is appended as one checksummed line, the
//! file is `fdatasync`ed every `fsync_every` appends, and the
//! log is compacted into a plain snapshot (atomic temp + rename) once
//! it outgrows the live set. A snapshot is streamed record by record
//! through one fixed-size buffer, so compaction's memory does not grow
//! with the live set. Recovery replays the **longest valid
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
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Instant;

use crate::cache::{fnv64, fnv64_extend, FNV64_BASIS};

/// On-disk header for the WAL-backed format. Older headers are
/// deliberately not recognized: a v1 file (snapshot only) or a v2 log
/// (whose payloads counted a stable block's re-derived statements as
/// sunk and inserted) reloads as empty and is reclaimed as a v3 log.
pub const HEADER: &str = "pdce-serve-cache v3";

/// The compaction writer's buffer. A snapshot streams through it one
/// record at a time, so compaction holds this much of the live set in
/// memory, never all of it.
const SNAPSHOT_BUFFER: usize = 32 * 1024;

/// Writes one log line whose body is `parts` in order: the FNV-1a 64
/// checksum of the body, a tab, the body, a newline. The checksum runs
/// over the parts one after another, so a caller never concatenates
/// them.
///
/// # Errors
/// Propagates the writer's failure.
pub(crate) fn write_record<W: Write>(out: &mut W, parts: &[&[u8]]) -> std::io::Result<()> {
    let sum = parts.iter().fold(FNV64_BASIS, |h, p| fnv64_extend(h, p));
    write!(out, "{sum:016x}\t")?;
    for part in parts {
        out.write_all(part)?;
    }
    out.write_all(b"\n")
}

/// Atomically replaces the file at `path` with `header` and then the
/// records `write_records` streams: temp file, one fixed-size buffered
/// writer, `sync_data`, rename. Returns the new file's length.
///
/// # Errors
/// Propagates temp-write/sync/rename failures; the old file is intact
/// if the rename never happened.
pub(crate) fn replace_file<F>(path: &Path, header: &str, write_records: F) -> std::io::Result<u64>
where
    F: FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
{
    let tmp = path.with_extension("tmp");
    let mut out = BufWriter::with_capacity(SNAPSHOT_BUFFER, File::create(&tmp)?);
    out.write_all(header.as_bytes())?;
    out.write_all(b"\n")?;
    write_records(&mut out)?;
    let mut file = out.into_inner().map_err(|e| e.into_error())?;
    let bytes = file.stream_position()?;
    file.sync_data()?;
    std::fs::rename(&tmp, path)?;
    Ok(bytes)
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

/// Wall time a log spent in each kind of write, in nanoseconds. The
/// `report` harness reads it to split the journal's cost into appends,
/// fsyncs and compactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalTime {
    /// Framing and writing appended records (their fsyncs excluded).
    pub appends_ns: u64,
    /// `fdatasync` of appended records.
    pub fsyncs_ns: u64,
    /// Writing, syncing, renaming and reopening snapshots.
    pub compactions_ns: u64,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The append handle: a file positioned at the end of its valid
/// prefix, plus the fsync ledger.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// The record being appended; reused, so an append allocates only
    /// when a record outgrows every earlier one.
    line: Vec<u8>,
    /// Bytes currently in the log (the compaction trigger's currency).
    pub bytes: u64,
    /// Appends since the last fsync.
    unsynced: u64,
    /// fdatasync after this many appends (min 1).
    fsync_every: u64,
    pub appends: u64,
    pub fsyncs: u64,
    pub compactions: u64,
    pub time: WalTime,
}

impl Wal {
    fn on(file: File, bytes: u64, fsync_every: u64) -> Wal {
        Wal {
            file,
            line: Vec::new(),
            bytes,
            unsynced: 0,
            fsync_every: fsync_every.max(1),
            appends: 0,
            fsyncs: 0,
            compactions: 0,
            time: WalTime::default(),
        }
    }

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
        Ok(Wal::on(file, (HEADER.len() + 1) as u64, fsync_every))
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
        Ok(Wal::on(file, valid_bytes, fsync_every))
    }

    /// Appends one record (`write_record` of `parts`) and fsyncs if
    /// the interval is due. The line is written with a single
    /// `write_all`, so a crash leaves either the whole line or a torn
    /// tail — never an interleaving.
    ///
    /// # Errors
    /// Propagates write/sync failures (the cache degrades to in-memory
    /// operation on error).
    pub fn append(&mut self, parts: &[&[u8]]) -> std::io::Result<()> {
        let start = Instant::now();
        self.line.clear();
        write_record(&mut self.line, parts)?;
        self.file.write_all(&self.line)?;
        self.time.appends_ns += elapsed_ns(start);
        self.bytes += self.line.len() as u64;
        self.appends += 1;
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
        let start = Instant::now();
        self.file.sync_data()?;
        self.time.fsyncs_ns += elapsed_ns(start);
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// Replaces the log with a snapshot — the header, then the insert
    /// records `write_records` streams (`replace_file`) — and reopens
    /// it for append. On success the handle continues on the new
    /// generation.
    ///
    /// # Errors
    /// Propagates temp-write/rename/reopen failures; the old log is
    /// intact if the rename never happened.
    pub fn compact<F>(&mut self, path: &Path, write_records: F) -> std::io::Result<()>
    where
        F: FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
    {
        let start = Instant::now();
        let bytes = replace_file(path, HEADER, write_records)?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        self.time.compactions_ns += elapsed_ns(start);
        self.file = file;
        self.bytes = bytes;
        self.unsynced = 0;
        self.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &str) -> String {
        let mut line = Vec::new();
        write_record(&mut line, &[body.as_bytes()]).unwrap();
        String::from_utf8(line).unwrap()
    }

    #[test]
    fn records_checksum_their_parts_as_one_body() {
        let mut split = Vec::new();
        write_record(&mut split, &[b"{\"evict\":", b"", b"\"00\"}"]).unwrap();
        assert_eq!(split, frame(r#"{"evict":"00"}"#).into_bytes());
    }

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
