//! The versioned on-disk tier of the [`QueryCache`]: one append-only
//! segment file (`seg-NNNNNN.seg`) of the framed-file store per batch run.
//!
//! Payloads are [`codec`](crate::codec) record encodings carrying **full
//! keys**, so integrity is layered: the checksum rejects any single-byte
//! flip outright at load, and even a flip that forged a checksum could only
//! produce a record whose key no live query matches, or a decode error at
//! the one lookup that reaches it — never a wrong answer to a real query.

use std::convert::Infallible;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

use homc_metrics::{Counter, Metrics};
use homc_smt::{Atom, CacheTier, CachedSat, CubeSat, Formula, QueryCache};

use crate::codec::{
    decode_record, encode_check, encode_check_key, encode_cube, encode_cube_key, Record,
};
pub use crate::store::LoadReport;
use crate::store::{Format, Naming, Store};

/// First bytes of every segment file.
pub const MAGIC: &str = "homc-cache";
/// Schema version of the record payloads; bump on any codec change.
pub const VERSION: u32 = 1;

/// The cache can be rebuilt, so stale segments are removed, and a lost
/// record is only a lost hit, so a bad one is skipped and the rest of its
/// segment still loads.
static FORMAT: Format = Format {
    magic: MAGIC,
    version: VERSION,
    naming: Naming::Sequenced {
        prefix: "seg",
        ext: "seg",
    },
    reclaim_stale: true,
    skip_bad_records: true,
    counter: Counter::DiskQuarantine,
};

/// A deterministic fault to apply while publishing a segment (the disk
/// half of the `--inject` plan: torn writes, truncation, checksum flips).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Keep only the first `keep_bytes` bytes of the segment (a torn write
    /// that still got published).
    Torn {
        /// Bytes of the composed segment to keep.
        keep_bytes: u64,
    },
    /// Keep the header and only the first `keep_records` records.
    Truncate {
        /// Records to keep.
        keep_records: usize,
    },
    /// Overwrite one hex digit of record `record`'s checksum field.
    FlipChecksum {
        /// Zero-based record index.
        record: usize,
    },
    /// XOR the byte at `offset` with `0x01` after composing the segment.
    FlipByte {
        /// Byte offset into the segment file.
        offset: u64,
    },
}

impl FromStr for DiskFault {
    type Err = String;

    /// Parses `torn:<bytes>`, `trunc:<records>`, `flipsum:<record>`, or
    /// `flip:<offset>`.
    fn from_str(s: &str) -> Result<DiskFault, String> {
        let (kind, arg) = s
            .split_once(':')
            .ok_or_else(|| format!("bad disk fault {s:?}: expected kind:<n>"))?;
        let n: u64 = arg
            .parse()
            .map_err(|_| format!("bad disk fault {s:?}: {arg:?} is not a number"))?;
        match kind {
            "torn" => Ok(DiskFault::Torn { keep_bytes: n }),
            "trunc" => Ok(DiskFault::Truncate {
                keep_records: n as usize,
            }),
            "flipsum" => Ok(DiskFault::FlipChecksum { record: n as usize }),
            "flip" => Ok(DiskFault::FlipByte { offset: n }),
            _ => Err(format!(
                "bad disk fault {s:?}: kind must be torn|trunc|flipsum|flip"
            )),
        }
    }
}

/// What [`DiskCache::publish`] wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublishReport {
    /// Final path of the published segment.
    pub path: PathBuf,
    /// Records written.
    pub records: usize,
    /// Segment size in bytes (after any injected fault).
    pub bytes: u64,
}

/// Handle to one on-disk cache directory.
#[derive(Clone, Debug)]
pub struct DiskCache {
    store: Store,
    fault: Option<DiskFault>,
}

impl DiskCache {
    /// A cache rooted at `dir` (created on first publish).
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache {
            store: Store::new(dir, &FORMAT),
            fault: None,
        }
    }

    /// Applies a deterministic fault to the next publication.
    pub fn with_fault(mut self, fault: Option<DiskFault>) -> DiskCache {
        self.fault = fault;
        self
    }

    /// Attaches a metrics registry ([`Counter::DiskQuarantine`] etc.).
    pub fn with_metrics(mut self, metrics: Metrics) -> DiskCache {
        self.store = self.store.with_metrics(metrics);
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Reads and decodes every valid record of every valid segment. Never
    /// fails on file *content* — only on directory I/O errors; unreadable or
    /// corrupt segments are quarantined and counted, and a record that does
    /// not decode counts as bad.
    pub fn load(&self) -> io::Result<(Vec<Record>, LoadReport)> {
        self.store.load_all(decode_record)
    }

    /// Reads every checksum-valid record of every valid segment into one
    /// [`DiskTier`], decoding none of them, for any number of caches to
    /// share through [`QueryCache::attach_tier`]. Checksum and framing
    /// failures are counted and quarantined here, as by [`load`](Self::load);
    /// a payload that does not decode costs only the hit of the lookup
    /// that reaches it.
    pub fn load_tier(&self) -> io::Result<(DiskTier, LoadReport)> {
        let (payloads, report) = self.store.load_all(|p| Ok::<_, Infallible>(p.to_owned()))?;
        Ok((DiskTier::new(payloads), report))
    }

    /// [`load_tier`](Self::load_tier), attached to `cache`, for single-cache
    /// users.
    pub fn load_into(&self, cache: &QueryCache) -> io::Result<LoadReport> {
        let (tier, report) = self.load_tier()?;
        cache.attach_tier(Arc::new(tier));
        Ok(report)
    }

    /// Publishes every entry the run discovered (entries copied in from the
    /// tier excluded) as one new segment. Returns `None` when there is
    /// nothing new to write.
    pub fn publish(&self, cache: &QueryCache) -> io::Result<Option<PublishReport>> {
        let mut payloads: Vec<String> = cache
            .export_new_check()
            .iter()
            .map(|(k, v)| encode_check(k, v))
            .chain(
                cache
                    .export_new_cubes()
                    .iter()
                    .map(|(k, v)| encode_cube(k, *v)),
            )
            .collect();
        if payloads.is_empty() {
            return Ok(None);
        }
        // Table iteration order is nondeterministic; the file must not be.
        payloads.sort();
        payloads.dedup();
        let records = payloads.len();

        let kept = match self.fault {
            Some(DiskFault::Truncate { keep_records }) => keep_records.clamp(1, records),
            _ => records,
        };
        let mut bytes = FORMAT.compose(&payloads[..kept]).into_bytes();
        match self.fault {
            Some(DiskFault::Torn { keep_bytes }) => {
                bytes.truncate(keep_bytes as usize);
            }
            Some(DiskFault::FlipByte { offset }) => {
                if let Some(b) = bytes.get_mut(offset as usize) {
                    *b ^= 0x01;
                }
            }
            Some(DiskFault::FlipChecksum { record }) if record < kept => {
                // The checksum field starts 9 bytes into the record line
                // (8 hex digits of length plus one space).
                let b = &mut bytes[FORMAT.compose(&payloads[..record]).len() + 9];
                *b = if *b == b'0' { b'1' } else { b'0' };
            }
            _ => {}
        }
        let len = bytes.len() as u64;
        let (path, _) = self.store.publish_next(|_| bytes.clone())?;
        Ok(Some(PublishReport {
            path,
            records,
            bytes: len,
        }))
    }
}

/// Attaches decoded disk records to `cache` as its tier: each answers
/// the cache's first lookup of its key as a disk hit, and none is
/// published again. Where records share a key, the later one answers.
pub fn seed_cache(cache: &QueryCache, records: &[Record]) {
    let payloads = records
        .iter()
        .map(|r| match r {
            Record::Check { key, value } => encode_check(key, value),
            Record::Cube { key, value } => encode_cube(key, *value),
        })
        .collect();
    cache.attach_tier(Arc::new(DiskTier::new(payloads)));
}

/// The disk tier as a batch shares it: the record payloads of a cache
/// directory, kept undecoded. A lookup renders its key with the record
/// encoder, finds the payloads that start with it, decodes the last-loaded
/// one, and answers only if the decoded key equals the lookup key. So a
/// batch decodes only the records its queries hit.
#[derive(Debug)]
pub struct DiskTier {
    /// Every payload, in load order.
    payloads: Vec<String>,
    /// Indices into `payloads`, sorted by payload text, so the payloads
    /// that start with one key are adjacent.
    sorted: Vec<usize>,
}

impl DiskTier {
    fn new(payloads: Vec<String>) -> DiskTier {
        let mut sorted: Vec<usize> = (0..payloads.len()).collect();
        sorted.sort_unstable_by(|&a, &b| payloads[a].cmp(&payloads[b]));
        DiskTier { payloads, sorted }
    }

    /// The decoded last-loaded record whose payload starts with `key` (an
    /// encoded key), if it decodes.
    fn record(&self, mut key: String) -> Option<Record> {
        key.push(' ');
        let first = self.sorted.partition_point(|&i| self.payloads[i] < key);
        let last = self.sorted[first..]
            .iter()
            .take_while(|&&i| self.payloads[i].starts_with(&key))
            .max()?;
        decode_record(&self.payloads[*last]).ok()
    }
}

impl CacheTier for DiskTier {
    fn check(&self, key: &(Formula, u32)) -> Option<CachedSat> {
        match self.record(encode_check_key(key))? {
            Record::Check { key: k, value } if k == *key => Some(value),
            _ => None,
        }
    }

    fn cube(&self, key: &(Vec<Atom>, u32)) -> Option<CubeSat> {
        match self.record(encode_cube_key(key))? {
            Record::Cube { key: k, value } if k == *key => Some(value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homc_smt::{Atom, CachedSat, CubeSat, Formula, LinExpr};
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("homc-serve-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn warm_cache() -> QueryCache {
        let c = QueryCache::new();
        c.store_check(
            (
                Formula::Atom(Atom::le(LinExpr::var("x"), LinExpr::constant(3))),
                48,
            ),
            CachedSat::Unsat,
        );
        c.store_check((Formula::True, 48), CachedSat::Unknown);
        c.store_cube(
            (vec![Atom::le(LinExpr::var("y"), LinExpr::constant(0))], 24),
            CubeSat::Sat,
        );
        c
    }

    #[test]
    fn publish_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let disk = DiskCache::new(&dir);
        let report = disk.publish(&warm_cache()).unwrap().expect("records");
        assert_eq!(report.records, 3);

        let fresh = QueryCache::new();
        let load = disk.load_into(&fresh).unwrap();
        assert_eq!(load.records, 3);
        assert_eq!(load.bad_records, 0);
        assert_eq!(load.quarantined, 0);
        assert!(matches!(
            fresh.lookup_check(&(Formula::True, 48)),
            Some(CachedSat::Unknown)
        ));
        assert_eq!(fresh.stats().disk_hits, 1);
        // Entries copied in from the tier are not new: republication has
        // nothing to write.
        assert!(disk.publish(&fresh).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_records_answer_once_and_the_later_wins() {
        let key = (Formula::True, 48);
        let cube = (vec![Atom::le(LinExpr::var("y"), LinExpr::constant(0))], 24);
        let records = [
            Record::Check {
                key: key.clone(),
                value: CachedSat::Unsat,
            },
            Record::Cube {
                key: cube.clone(),
                value: CubeSat::Sat,
            },
            Record::Check {
                key: key.clone(),
                value: CachedSat::Unknown,
            },
        ];
        let c = QueryCache::new();
        seed_cache(&c, &records);
        assert!(matches!(c.lookup_check(&key), Some(CachedSat::Unknown)));
        assert!(matches!(c.lookup_check(&key), Some(CachedSat::Unknown)));
        assert_eq!(c.lookup_cube(&cube), Some(CubeSat::Sat));
        assert!(c.lookup_check(&(Formula::False, 48)).is_none());
        let s = c.stats();
        assert_eq!((s.disk_hits, s.check_hits, s.check_misses), (2, 2, 1));
    }

    #[test]
    fn version_mismatch_cold_starts() {
        let dir = tmpdir("version");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seg-000001.seg"), "homc-cache v999\ngarbage").unwrap();
        let disk = DiskCache::new(&dir);
        let fresh = QueryCache::new();
        let load = disk.load_into(&fresh).unwrap();
        assert_eq!(load.stale, 1);
        assert_eq!(load.records, 0);
        assert_eq!(load.quarantined, 0);
        assert!(
            !dir.join("seg-000001.seg").exists(),
            "stale segment removed"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_quarantines() {
        let dir = tmpdir("magic");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seg-000001.seg"), "not a cache\n").unwrap();
        let metrics = Metrics::new(true);
        let disk = DiskCache::new(&dir).with_metrics(metrics.clone());
        let load = disk.load_into(&QueryCache::new()).unwrap();
        assert_eq!(load.quarantined, 1);
        assert!(dir.join("seg-000001.seg.quarantined").exists());
        assert_eq!(metrics.snapshot().counter(Counter::DiskQuarantine), 1);
        // The quarantined file is never rescanned.
        let load2 = disk.load_into(&QueryCache::new()).unwrap();
        assert_eq!(load2.segments, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_quarantines_tail() {
        let dir = tmpdir("torn");
        let disk = DiskCache::new(&dir).with_fault(Some(DiskFault::Torn { keep_bytes: 40 }));
        disk.publish(&warm_cache()).unwrap().expect("records");
        let fresh = QueryCache::new();
        let load = DiskCache::new(&dir).load_into(&fresh).unwrap();
        assert_eq!(load.quarantined, 1);
        assert_eq!(load.records, 0, "40 bytes is inside the first record");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_flip_fault_skips_record_keeps_rest() {
        let dir = tmpdir("flipsum");
        let disk = DiskCache::new(&dir).with_fault(Some(DiskFault::FlipChecksum { record: 0 }));
        let report = disk.publish(&warm_cache()).unwrap().expect("records");
        assert_eq!(report.records, 3);
        let fresh = QueryCache::new();
        let load = DiskCache::new(&dir).load_into(&fresh).unwrap();
        assert_eq!(load.bad_records, 1);
        assert_eq!(load.records, 2, "later records survive a mid-file flip");
        assert_eq!(load.quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_fault_parser() {
        assert_eq!("torn:7".parse(), Ok(DiskFault::Torn { keep_bytes: 7 }));
        assert_eq!(
            "trunc:2".parse(),
            Ok(DiskFault::Truncate { keep_records: 2 })
        );
        assert_eq!(
            "flipsum:0".parse(),
            Ok(DiskFault::FlipChecksum { record: 0 })
        );
        assert_eq!("flip:33".parse(), Ok(DiskFault::FlipByte { offset: 33 }));
        assert!("nope:1".parse::<DiskFault>().is_err());
        assert!("torn".parse::<DiskFault>().is_err());
        assert!("torn:x".parse::<DiskFault>().is_err());
    }
}
