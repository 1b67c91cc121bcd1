//! One drill over all four on-disk formats — query-cache segments, run-ledger
//! files, abstraction artifacts and verdict evidence — covering what the
//! shared framed-file store promises:
//!
//! * concurrent writers lose nothing: two threads of sequenced publishes
//!   yield one file per publish, and same-key keyed publishes all succeed
//!   while interleaved loads never see a torn file;
//! * a temp file left by a killed writer is ignored by load and does not
//!   block the next publish, and a finished publish leaves no temp file;
//! * byte flips and truncation keep each format's policy (skip one record
//!   or drop the whole file), and one quarantined file bumps its counter
//!   exactly once.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, OnceLock};
use std::thread;

use homc_abs::AbsEnv;
use homc_lang::eval::Label;
use homc_lang::kernel::Program;
use homc_lang::manifest::Manifest;
use homc_metrics::{Counter, Metrics};
use homc_serve::{
    Artifact, ArtifactStore, DiskCache, Evidence, EvidenceStore, EvidenceVerdict, Ledger, RunRecord,
};
use homc_smt::{Atom, CachedSat, Formula, LinExpr, QueryCache};

/// The program key every keyed publish in this drill uses.
const KEY: &str = "drill";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Format {
    Cache,
    Ledger,
    Artifact,
    Evidence,
}

const FORMATS: [Format; 4] = [
    Format::Cache,
    Format::Ledger,
    Format::Artifact,
    Format::Evidence,
];

/// What one load of a store directory saw.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    /// Records loaded (sequenced) or 1 for a loaded keyed file.
    records: usize,
    /// Files quarantined by this load.
    quarantined: usize,
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("homc-store-drill-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn program() -> &'static Program {
    static P: OnceLock<Program> = OnceLock::new();
    P.get_or_init(|| {
        homc_lang::frontend("let f x = assert (x > 0) in let g y = f (y + 1) in g 1")
            .expect("drill program compiles")
            .cps
    })
}

impl Format {
    fn sequenced(self) -> bool {
        matches!(self, Format::Cache | Format::Ledger)
    }

    fn counter(self) -> Counter {
        match self {
            Format::Cache => Counter::DiskQuarantine,
            Format::Ledger => Counter::LedgerQuarantine,
            Format::Artifact | Format::Evidence => Counter::ArtifactQuarantine,
        }
    }

    /// Publishes one file whose content is fixed by `n`; sequenced formats
    /// write `records` records, keyed formats always write several.
    fn publish(self, dir: &Path, n: u64, records: u64) -> std::io::Result<PathBuf> {
        match self {
            Format::Cache => {
                let cache = QueryCache::new();
                for i in 0..records {
                    let k = i128::from(n * 1000 + i);
                    let f = Formula::Atom(Atom::le(LinExpr::var("x"), LinExpr::constant(k)));
                    cache.store_check((f, 48), CachedSat::Unsat);
                }
                let report = DiskCache::new(dir).publish(&cache)?;
                Ok(report.expect("the cache holds new records").path)
            }
            Format::Ledger => {
                let mut recs: Vec<RunRecord> = (0..records)
                    .map(|i| RunRecord {
                        program: format!("p{n}-{i}"),
                        verdict: "safe".into(),
                        wall_us: n,
                        ..RunRecord::default()
                    })
                    .collect();
                Ok(Ledger::new(dir).append("batch", &mut recs)?.path)
            }
            Format::Artifact => {
                let p = program();
                let artifact = Artifact {
                    manifest: Manifest::of(p),
                    env: AbsEnv::initial(p),
                    memo: Vec::new(),
                    interp: vec![((Vec::new(), Vec::new(), n as u32), None)],
                };
                ArtifactStore::new(dir).publish(KEY, &artifact)
            }
            Format::Evidence => {
                let evidence = Evidence {
                    program: KEY.into(),
                    source_hash: n,
                    iterations: 1,
                    provenance: Vec::new(),
                    verdict: EvidenceVerdict::Unsafe {
                        witness: vec![n as i64],
                        path: vec![Label::One, Label::Zero],
                    },
                };
                Ok(EvidenceStore::new(dir).publish(KEY, &evidence)?.0)
            }
        }
    }

    fn load(self, dir: &Path, metrics: &Metrics) -> Seen {
        let m = metrics.clone();
        match self {
            Format::Cache => {
                let (records, r) = DiskCache::new(dir).with_metrics(m).load().expect("load");
                assert_eq!(records.len(), r.records);
                Seen {
                    records: r.records,
                    quarantined: r.quarantined,
                }
            }
            Format::Ledger => {
                let (records, r) = Ledger::new(dir).with_metrics(m).load().expect("load");
                assert_eq!(records.len(), r.records);
                Seen {
                    records: r.records,
                    quarantined: r.quarantined,
                }
            }
            Format::Artifact => {
                let l = ArtifactStore::new(dir)
                    .with_metrics(m)
                    .load(KEY)
                    .expect("load");
                Seen {
                    records: usize::from(l.artifact.is_some()),
                    quarantined: usize::from(l.quarantined),
                }
            }
            Format::Evidence => {
                let l = EvidenceStore::new(dir)
                    .with_metrics(m)
                    .load(KEY)
                    .expect("load");
                Seen {
                    records: usize::from(l.evidence.is_some()),
                    quarantined: usize::from(l.quarantined),
                }
            }
        }
    }
}

/// File names in `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = fs::read_dir(dir)
        .expect("store directory exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    out.sort();
    out
}

fn assert_no_temp_files(dir: &Path, format: Format) {
    for name in names(dir) {
        assert!(
            !name.starts_with('.'),
            "{format:?}: publish left {name:?} behind"
        );
    }
}

#[test]
fn concurrent_sequenced_publishes_lose_nothing() {
    const THREADS: u64 = 2;
    const EACH: u64 = 100;
    for format in FORMATS.into_iter().filter(|f| f.sequenced()) {
        let dir = tmpdir(&format!("seq-{format:?}"));
        let start = Barrier::new(THREADS as usize);
        let errors: Vec<String> = thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (dir, start) = (&dir, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..EACH)
                            .filter_map(|i| format.publish(dir, t * EACH + i, 1).err())
                            .map(|e| e.to_string())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("publisher thread"))
                .collect()
        });
        assert!(errors.is_empty(), "{format:?}: publish errors {errors:?}");
        assert_eq!(
            names(&dir).len(),
            (THREADS * EACH) as usize,
            "{format:?}: one file per publish"
        );
        assert_no_temp_files(&dir, format);
        let seen = format.load(&dir, &Metrics::new(true));
        assert_eq!(
            seen,
            Seen {
                records: (THREADS * EACH) as usize,
                quarantined: 0
            },
            "{format:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_keyed_publishes_all_succeed_and_never_tear() {
    const THREADS: u64 = 2;
    const EACH: u64 = 200;
    for format in FORMATS.into_iter().filter(|f| !f.sequenced()) {
        let dir = tmpdir(&format!("keyed-{format:?}"));
        let start = Barrier::new(THREADS as usize);
        let (errors, quarantined) = thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (dir, start) = (&dir, &start);
                    s.spawn(move || {
                        start.wait();
                        let (mut errors, mut quarantined) = (Vec::new(), 0);
                        for i in 0..EACH {
                            if let Err(e) = format.publish(dir, t * EACH + i, 1) {
                                errors.push(e.to_string());
                            }
                            // Loads interleave with the other thread's
                            // publishes: each must see a whole file.
                            quarantined += format.load(dir, &Metrics::disabled()).quarantined;
                        }
                        (errors, quarantined)
                    })
                })
                .collect();
            workers.into_iter().fold((Vec::new(), 0), |(mut e, q), w| {
                let (we, wq) = w.join().expect("publisher thread");
                e.extend(we);
                (e, q + wq)
            })
        });
        assert!(errors.is_empty(), "{format:?}: publish errors {errors:?}");
        assert_eq!(quarantined, 0, "{format:?}: a load saw a torn file");
        assert_eq!(names(&dir).len(), 1, "{format:?}: last writer wins");
        assert_no_temp_files(&dir, format);
        let seen = format.load(&dir, &Metrics::new(true));
        assert_eq!(
            seen,
            Seen {
                records: 1,
                quarantined: 0
            },
            "{format:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_writers_temp_file_is_ignored() {
    for format in FORMATS {
        let dir = tmpdir(&format!("killed-{format:?}"));
        fs::create_dir_all(&dir).unwrap();
        // What a writer killed between write and publish leaves behind,
        // under this build's temp naming and the older per-name one.
        let leftovers = [".tmp-4194303-0", ".tmp-seg-000001", ".tmp-run-000001"];
        for name in leftovers {
            fs::write(dir.join(name), "torn garbage, never published").unwrap();
        }
        let metrics = Metrics::new(true);
        assert_eq!(
            format.load(&dir, &metrics),
            Seen {
                records: 0,
                quarantined: 0
            },
            "{format:?}: a temp file is not a store file"
        );
        format.publish(&dir, 7, 1).expect("publish is not blocked");
        assert_eq!(
            format.load(&dir, &metrics),
            Seen {
                records: 1,
                quarantined: 0
            },
            "{format:?}"
        );
        assert_eq!(metrics.snapshot().counter(format.counter()), 0);
        for name in leftovers {
            assert!(dir.join(name).exists(), "{format:?}: {name} left alone");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Byte offset of the first payload byte of record `index` (0-based) in a
/// store file.
fn payload_offset(bytes: &[u8], index: usize) -> usize {
    let mut at = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
    for _ in 0..index {
        let len = std::str::from_utf8(&bytes[at..at + 8]).expect("hex length");
        at += 27 + usize::from_str_radix(len, 16).expect("hex length");
    }
    at + 26
}

#[test]
fn damage_keeps_each_formats_policy_and_counts_once() {
    #[derive(Clone, Copy, Debug)]
    enum Damage {
        FlipMagic,
        FlipPayload,
        Truncate,
    }
    for format in FORMATS {
        for damage in [Damage::FlipMagic, Damage::FlipPayload, Damage::Truncate] {
            let dir = tmpdir(&format!("damage-{format:?}-{damage:?}"));
            let path = format.publish(&dir, 1, 3).expect("publish");
            let mut bytes = fs::read(&path).unwrap();
            let second = payload_offset(&bytes, 1);
            match damage {
                Damage::FlipMagic => bytes[0] ^= 0x01,
                Damage::FlipPayload => bytes[second + 1] ^= 0x01,
                Damage::Truncate => bytes.truncate(second + 1),
            }
            fs::write(&path, &bytes).unwrap();
            let metrics = Metrics::new(true);
            let seen = format.load(&dir, &metrics);
            // The cache harvests the intact records of a damaged segment:
            // all but the flipped one, or the ones before a cut. Every other
            // format trusts a file whole or not at all.
            let kept = match (format, damage) {
                (Format::Cache, Damage::FlipPayload) => 2,
                (Format::Cache, Damage::Truncate) => 1,
                _ => 0,
            };
            assert_eq!(
                seen,
                Seen {
                    records: kept,
                    quarantined: 1
                },
                "{format:?} {damage:?}"
            );
            assert_eq!(
                metrics.snapshot().counter(format.counter()),
                1,
                "{format:?} {damage:?}: one quarantined file counts once"
            );
            assert!(!path.exists(), "{format:?} {damage:?}: renamed aside");
            let mut q = path.clone().into_os_string();
            q.push(".quarantined");
            assert!(Path::new(&q).exists(), "{format:?} {damage:?}: bytes kept");
            // The quarantined file is never read again.
            assert_eq!(
                format.load(&dir, &metrics),
                Seen {
                    records: 0,
                    quarantined: 0
                }
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
