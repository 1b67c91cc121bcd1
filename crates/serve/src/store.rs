//! The framed-file store under every on-disk format: query-cache segments
//! ([`crate::disk`]), run-ledger files ([`crate::ledger`]), abstraction
//! artifacts ([`crate::artifact`]) and verdict evidence
//! ([`crate::evidence`]). Those modules are record codecs; everything about
//! files lives here. DESIGN.md §"On-disk store" covers the two per-format
//! policies and what concurrent writers and crashes can and cannot do.
//!
//! ```text
//! <magic> v<version>\n                     ← header
//! XXXXXXXX YYYYYYYYYYYYYYYY <payload>\n    ← one frame per record
//! ```
//!
//! `XXXXXXXX` is the payload byte length (8 hex digits), `YYYYYYYYYYYYYYYY`
//! the FNV-1a 64 checksum of the payload (16 hex digits).
//!
//! A publish composes the file in memory, writes and fsyncs a temp file
//! only this writer uses, then `rename`s it onto a keyed file's name (last
//! writer wins) or `hard_link`s it onto the next free sequence number
//! (which fails, rather than replaces, when another writer took that
//! number), removes the temp file and fsyncs the directory. Readers never
//! see a partial file, and a published file survives a crash.

use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use homc_metrics::{Counter, Metrics};
use homc_trace::stable_hash64;

use crate::codec::CodecError;

/// How a format names its files.
#[derive(Debug)]
pub(crate) enum Naming {
    /// `<prefix>-NNNNNN.<ext>`, numbered in publish order.
    Sequenced {
        prefix: &'static str,
        ext: &'static str,
        /// Skip a bad record and keep the rest of its file, rather than
        /// drop the whole file.
        skip_bad_records: bool,
    },
    /// `<slug≤40>-<hash16>.<ext>`, one file per key. A keyed file is
    /// trusted whole: one bad record drops it.
    Keyed { ext: &'static str },
}

/// One on-disk format: its header, its naming (which carries the
/// bad-record policy of sequenced files), and its stale-file policy.
#[derive(Debug)]
pub(crate) struct Format {
    pub(crate) magic: &'static str,
    pub(crate) version: u32,
    pub(crate) naming: Naming,
    /// Delete a file of another version (the store can be rebuilt) rather
    /// than keep it (history cannot).
    pub(crate) reclaim_stale: bool,
    /// Bumped once per quarantined file.
    pub(crate) counter: Counter,
}

/// What one file's bytes hold under a [`Format`].
pub(crate) enum Parsed<T> {
    /// The current version, every check passed.
    Good(T),
    /// Another version of the format.
    Stale,
    /// Failed a header, framing, checksum, record or structure check.
    Corrupt,
}

impl Format {
    /// The complete file: the header, then one frame per payload.
    pub(crate) fn compose<S: AsRef<str>>(&self, payloads: impl IntoIterator<Item = S>) -> String {
        let mut out = format!("{} v{}\n", self.magic, self.version);
        for p in payloads {
            let p = p.as_ref();
            let _ = writeln!(out, "{:08x} {:016x} {p}", p.len(), stable_hash64(p));
        }
        out
    }

    /// Checks the header, then walks the frames, handing each payload whose
    /// checksum matches to `record`. Returns the file's verdict and the
    /// number of records rejected. A framing break ends the walk (there is
    /// no resync); a bad record ends it too unless the format is sequenced
    /// and skips bad records.
    fn scan<E>(
        &self,
        bytes: &[u8],
        mut record: impl FnMut(&str) -> Result<(), E>,
    ) -> (Parsed<()>, usize) {
        let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
            return (Parsed::Corrupt, 0);
        };
        let version = std::str::from_utf8(&bytes[..header_end])
            .ok()
            .and_then(|h| h.strip_prefix(self.magic)?.strip_prefix(" v"));
        match version.map(str::parse::<u32>) {
            Some(Ok(v)) if v == self.version => {}
            Some(Ok(_)) => return (Parsed::Stale, 0),
            _ => return (Parsed::Corrupt, 0),
        }
        let mut pos = header_end + 1;
        let mut bad = 0;
        while pos < bytes.len() {
            let Some((payload, sum, len)) = parse_frame(&bytes[pos..]) else {
                return (Parsed::Corrupt, bad + 1);
            };
            pos += len;
            if stable_hash64(payload) != sum || record(payload).is_err() {
                bad += 1;
                if !self.skip_bad_records() {
                    return (Parsed::Corrupt, bad);
                }
            }
        }
        if bad > 0 {
            return (Parsed::Corrupt, bad);
        }
        (Parsed::Good(()), 0)
    }

    fn skip_bad_records(&self) -> bool {
        matches!(
            self.naming,
            Naming::Sequenced {
                skip_bad_records: true,
                ..
            }
        )
    }

    /// Parses a whole keyed file: `decode` folds each record into an
    /// accumulator, then `finish` checks the structure the records must
    /// form together (`None` makes the file corrupt).
    pub(crate) fn parse<A: Default, T>(
        &self,
        bytes: &[u8],
        mut decode: impl FnMut(&str, &mut A) -> Result<(), CodecError>,
        finish: impl FnOnce(A) -> Option<T>,
    ) -> Parsed<T> {
        let mut acc = A::default();
        match self.scan(bytes, |p| decode(p, &mut acc)).0 {
            Parsed::Good(()) => finish(acc).map_or(Parsed::Corrupt, Parsed::Good),
            Parsed::Stale => Parsed::Stale,
            Parsed::Corrupt => Parsed::Corrupt,
        }
    }
}

/// What a load of every sequenced file found and did (the query cache's
/// report, re-exported by [`crate::disk`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Segment files scanned (including rejected ones).
    pub segments: usize,
    /// Records loaded.
    pub records: usize,
    /// Records rejected by checksum, framing, or decode.
    pub bad_records: usize,
    /// Segments renamed to `.quarantined`.
    pub quarantined: usize,
    /// Segments from another schema version (removed: a clean cold start).
    pub stale: usize,
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records from {} segments ({} bad, {} quarantined, {} stale)",
            self.records, self.segments, self.bad_records, self.quarantined, self.stale
        )
    }
}

/// One store directory under one [`Format`].
#[derive(Clone, Debug)]
pub(crate) struct Store {
    dir: PathBuf,
    format: &'static Format,
    metrics: Metrics,
}

impl Store {
    /// A store rooted at `dir` (created on first publish).
    pub(crate) fn new(dir: impl Into<PathBuf>, format: &'static Format) -> Store {
        Store {
            dir: dir.into(),
            format,
            metrics: Metrics::disabled(),
        }
    }

    /// Attaches the registry that receives the format's counter.
    pub(crate) fn with_metrics(mut self, metrics: Metrics) -> Store {
        self.metrics = metrics;
        self
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file for `key` in a keyed format.
    pub(crate) fn path_for(&self, key: &str) -> PathBuf {
        let Naming::Keyed { ext } = self.format.naming else {
            unreachable!("{} files are sequenced, not keyed", self.format.magic)
        };
        let slug: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .take(40)
            .collect();
        self.dir
            .join(format!("{slug}-{:016x}.{ext}", stable_hash64(key)))
    }

    fn sequenced(&self) -> (&'static str, &'static str) {
        match self.format.naming {
            Naming::Sequenced { prefix, ext, .. } => (prefix, ext),
            Naming::Keyed { .. } => {
                unreachable!("{} files are keyed, not sequenced", self.format.magic)
            }
        }
    }

    /// Sequenced files in name (= publish) order, each with its number when
    /// the name carries one.
    fn files(&self) -> io::Result<Vec<(PathBuf, Option<u64>)>> {
        let (prefix, ext) = self.sequenced();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out = Vec::new();
        for entry in entries {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(seq) = name
                .strip_prefix(prefix)
                .and_then(|r| r.strip_prefix('-'))
                .and_then(|r| r.strip_suffix(ext)?.strip_suffix('.'))
            {
                let seq = seq.parse().ok();
                out.push((path, seq));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Reads every sequenced file, returning the records `decode` accepts.
    /// Never fails on file *content*, only on directory I/O errors.
    pub(crate) fn load_all<T, E>(
        &self,
        mut decode: impl FnMut(&str) -> Result<T, E>,
    ) -> io::Result<(Vec<T>, LoadReport)> {
        let mut tally = LoadReport::default();
        let mut out = Vec::new();
        for (path, _) in self.files()? {
            let mut got = Vec::new();
            let verdict = match fs::read(&path) {
                Ok(bytes) => {
                    let (verdict, bad) =
                        self.format.scan(&bytes, |p| decode(p).map(|t| got.push(t)));
                    tally.bad_records += bad;
                    verdict
                }
                // Another loader quarantined or reclaimed it first.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => Parsed::Corrupt,
            };
            tally.segments += 1;
            match verdict {
                Parsed::Good(()) => {}
                Parsed::Stale => {
                    self.set_aside_stale(&path);
                    tally.stale += 1;
                    continue;
                }
                Parsed::Corrupt => {
                    if self.quarantine(&path) {
                        tally.quarantined += 1;
                    }
                    if !self.format.skip_bad_records() {
                        continue;
                    }
                }
            }
            tally.records += got.len();
            out.append(&mut got);
        }
        Ok((out, tally))
    }

    /// Reads the file for `key` through `parse`. Returns the value, when the
    /// file was present and intact, and whether it was quarantined.
    pub(crate) fn load_key<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&[u8]) -> Parsed<T>,
    ) -> (Option<T>, bool) {
        let path = self.path_for(key);
        let parsed = match fs::read(&path) {
            Ok(bytes) => parse(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return (None, false),
            Err(_) => Parsed::Corrupt,
        };
        match parsed {
            Parsed::Good(v) => (Some(v), false),
            Parsed::Stale => {
                self.set_aside_stale(&path);
                (None, false)
            }
            Parsed::Corrupt => (None, self.quarantine(&path)),
        }
    }

    /// Renames a corrupt file aside and counts it. `false` when the file was
    /// already gone: another loader got to it first and counted it.
    fn quarantine(&self, path: &Path) -> bool {
        let mut q = path.as_os_str().to_owned();
        q.push(".quarantined");
        match fs::rename(path, PathBuf::from(q)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            _ => {
                self.metrics.incr(self.format.counter);
                true
            }
        }
    }

    fn set_aside_stale(&self, path: &Path) {
        if self.format.reclaim_stale {
            let _ = fs::remove_file(path);
        }
    }

    /// Publishes `compose(n)` as sequenced file number `n`, the first number
    /// past every existing file that no other writer takes first. Returns
    /// the file and its number.
    pub(crate) fn publish_next(
        &self,
        mut compose: impl FnMut(u64) -> Vec<u8>,
    ) -> io::Result<(PathBuf, u64)> {
        let (prefix, ext) = self.sequenced();
        fs::create_dir_all(&self.dir)?;
        let mut seq = 1 + self.files()?.iter().filter_map(|f| f.1).max().unwrap_or(0);
        loop {
            let path = self.dir.join(format!("{prefix}-{seq:06}.{ext}"));
            let tmp = self.write_tmp(&compose(seq))?;
            let linked = fs::hard_link(&tmp, &path);
            // Once linked the file is published; a temp file left by a
            // failed removal is ignored by every load.
            let _ = fs::remove_file(&tmp);
            match linked {
                Ok(()) => {
                    self.sync_dir()?;
                    return Ok((path, seq));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => seq += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Publishes `bytes` as the file for `key`, replacing any previous one.
    pub(crate) fn publish_key(&self, key: &str, bytes: &[u8]) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(key);
        let tmp = self.write_tmp(bytes)?;
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.sync_dir()?;
        Ok(path)
    }

    /// Writes and fsyncs a temp file no other writer uses: named by pid and
    /// a process-wide counter, created exclusively so a leftover of a killed
    /// writer that had the same pid is skipped, not reused.
    fn write_tmp(&self, bytes: &[u8]) -> io::Result<PathBuf> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let tmp = self.dir.join(format!(".tmp-{}-{n}", std::process::id()));
            let mut f = match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&tmp)
            {
                Ok(f) => f,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            };
            return match f.write_all(bytes).and_then(|()| f.sync_all()) {
                Ok(()) => Ok(tmp),
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    Err(e)
                }
            };
        }
    }

    fn sync_dir(&self) -> io::Result<()> {
        fs::File::open(&self.dir)?.sync_all()
    }
}

/// Parses one frame from the head of `rest` into its payload, checksum and
/// length in bytes; `None` on any framing violation (short input, bad hex,
/// missing separators or newline, length running past the end, non-UTF-8
/// payload).
pub(crate) fn parse_frame(rest: &[u8]) -> Option<(&str, u64, usize)> {
    if rest.len() < 8 + 1 + 16 + 1 {
        return None;
    }
    let len = parse_hex(&rest[0..8])? as usize;
    if rest[8] != b' ' || rest[25] != b' ' {
        return None;
    }
    let sum = parse_hex(&rest[9..25])?;
    let end = 26usize.checked_add(len)?;
    if end >= rest.len() || rest[end] != b'\n' {
        return None;
    }
    let payload = std::str::from_utf8(&rest[26..end]).ok()?;
    Some((payload, sum, end + 1))
}

fn parse_hex(digits: &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for &d in digits {
        let nib = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        v = v.checked_mul(16)?.checked_add(nib as u64)?;
    }
    Some(v)
}
