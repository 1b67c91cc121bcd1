//! The corruption drill: warm the disk tier, then flip one byte in every
//! offset class of the segment format — header magic, record length field,
//! checksum, payload — and assert that
//!
//! * the verifier's verdict is **identical** to the pristine baseline (a
//!   byte flip may cost cache hits, never correctness), and
//! * the corruption is *detected*: the load report counts a quarantined
//!   segment or bad record, and the `disk_quarantine` metrics counter is
//!   nonzero.
//!
//! The tier decodes a record only when a lookup reaches it, so a second
//! drill re-checksums tampered segments so that they load, and checks what
//! a lookup makes of them: a changed key never answers the original query,
//! an undecodable payload is a miss, and of two segments holding one key
//! the later answers. A last test reruns every suite program on the tier
//! its cold run published and finds every `check` and `cube` query there;
//! it also pins the bytes of the segments and artifacts the cold runs write.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use homc::{
    stable_hash64, suite, verify, ArtifactConfig, ArtifactStore, Counter, DiskCache, LoadReport,
    Metrics, QueryCache, Verdict, VerifierOptions, VerifyOutcome,
};
use homc_serve::{decode_record, encode_check, encode_cube, Record, MAGIC, VERSION};
use homc_smt::{Atom, CachedSat, CubeSat, Formula, LinExpr, Var};

const PROGRAM: &str = "sum";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("homc-drill-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Loads `disk`'s tier and attaches it to `cache`, as a batch does.
fn load_into(disk: &DiskCache, cache: &QueryCache) -> LoadReport {
    let (tier, report) = disk.load_tier().expect("load never hard-fails on content");
    cache.attach_tier(Arc::new(tier));
    report
}

/// Verifies `source` against `cache`.
fn verify_with(source: &str, cache: Arc<QueryCache>) -> VerifyOutcome {
    let opts = VerifierOptions {
        cache: Some(cache),
        ..VerifierOptions::default()
    };
    verify(source, &opts).expect("verification runs")
}

/// Verifies the drill program against `cache` and returns the verdict.
fn verdict_with(cache: Arc<QueryCache>) -> Verdict {
    let p = suite::find(PROGRAM).expect("suite program");
    verify_with(p.source, cache).verdict
}

/// The record payloads of a segment file, in file order.
fn payloads(bytes: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(bytes).expect("segment is UTF-8");
    let mut rest = &text[text.find('\n').expect("header line") + 1..];
    let mut out = Vec::new();
    // Frame: `<8-hex len> <16-hex checksum> <payload>\n`.
    while !rest.is_empty() {
        let len = usize::from_str_radix(&rest[..8], 16).expect("length field");
        out.push(rest[26..26 + len].to_string());
        rest = &rest[26 + len + 1..];
    }
    out
}

/// Writes `payloads` as segment `seq` of `dir`, each frame with its
/// checksum computed afresh, so a tampered payload still loads.
fn write_segment(dir: &Path, seq: u32, payloads: &[String]) {
    let mut out = format!("{MAGIC} v{VERSION}\n");
    for p in payloads {
        out.push_str(&format!("{:08x} {:016x} {p}\n", p.len(), stable_hash64(p)));
    }
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join(format!("seg-{seq:06}.seg")), out).unwrap();
}

/// A fresh cache with `dir`'s tier attached; the load must find `records`
/// valid records and nothing bad, since every checksum was recomputed.
fn tiered_cache(dir: &Path, records: usize) -> Arc<QueryCache> {
    let cache = Arc::new(QueryCache::new());
    let report = load_into(&DiskCache::new(dir), &cache);
    assert_eq!(
        (report.records, report.bad_records, report.quarantined),
        (records, 0, 0),
        "{report}"
    );
    cache
}

/// The key of a `check`-record payload.
fn check_key(payload: &str) -> (Formula, u32) {
    match decode_record(payload) {
        Ok(Record::Check { key, .. }) => key,
        other => panic!("not a check record: {other:?}"),
    }
}

/// Warms a cache on `PROGRAM`, publishes it to `dir`, and returns the
/// pristine verdict plus the published segment's bytes.
fn warm_segment(dir: &Path) -> (Verdict, Vec<u8>) {
    let cache = Arc::new(QueryCache::new());
    let baseline = verdict_with(cache.clone());
    let pub_report = DiskCache::new(dir)
        .publish(&cache)
        .expect("publish succeeds")
        .expect("the run solves queries, so the segment is non-empty");
    assert!(pub_report.records > 0);
    (
        baseline,
        fs::read(&pub_report.path).expect("segment readable"),
    )
}

#[test]
fn byte_flips_never_change_verdicts() {
    let base = tmpdir("classes");
    let (baseline, bytes) = warm_segment(&base.join("pristine"));
    let header_len = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    // One representative offset per class of the record frame
    // `<8-hex len> <16-hex checksum> <payload>\n` (checksum starts at +9,
    // payload at +26), plus the header magic.
    let classes = [
        ("header", 0),
        ("length", header_len),
        ("checksum", header_len + 9),
        ("payload", header_len + 26),
    ];
    for (class, offset) in classes {
        assert!(offset < bytes.len(), "{class}: offset in range");
        let dir = base.join(class);
        fs::create_dir_all(&dir).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x01;
        fs::write(dir.join("seg-000001.seg"), &corrupt).unwrap();

        let metrics = Metrics::new(false);
        let disk = DiskCache::new(&dir).with_metrics(metrics.clone());
        let cache = Arc::new(QueryCache::new());
        let report = load_into(&disk, &cache);
        assert!(
            report.quarantined > 0 || report.bad_records > 0,
            "{class}: the flip at offset {offset} must be detected, got {report}"
        );
        assert!(
            metrics.snapshot().counter(Counter::DiskQuarantine) > 0,
            "{class}: quarantine counter must be nonzero"
        );
        assert_eq!(
            verdict_with(cache),
            baseline,
            "{class}: a byte flip changed the verdict"
        );
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn version_mismatch_cold_starts_cleanly() {
    let base = tmpdir("version");
    let dir = base.join("store");
    let (baseline, bytes) = warm_segment(&dir);
    // The header is `homc-cache v1\n`; turn the version digit into `0`.
    let v_off = bytes
        .windows(2)
        .position(|w| w == b"v1")
        .expect("version field")
        + 1;
    let mut old = bytes.clone();
    old[v_off] = b'0';
    let seg = dir.join("seg-000001.seg");
    fs::write(&seg, &old).unwrap();

    let cache = Arc::new(QueryCache::new());
    let report = load_into(&DiskCache::new(&dir), &cache);
    // A schema bump is a clean cold start, not an integrity event: the stale
    // segment is reclaimed, nothing is quarantined, nothing is loaded.
    assert_eq!(report.stale, 1, "{report}");
    assert_eq!(report.records, 0);
    assert_eq!(report.quarantined, 0);
    assert!(!seg.exists(), "stale segment is reclaimed");
    assert_eq!(verdict_with(cache), baseline);
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn every_header_byte_flip_is_safe() {
    // Denser sweep over the whole header line: whatever byte is hit —
    // magic, space, version, newline — the verdict must hold and the load
    // must either quarantine or cold-start.
    let base = tmpdir("header-sweep");
    let (baseline, bytes) = warm_segment(&base.join("pristine"));
    let header_len = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    for offset in 0..header_len {
        let dir = base.join(format!("off{offset}"));
        fs::create_dir_all(&dir).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 0x01;
        fs::write(dir.join("seg-000001.seg"), &corrupt).unwrap();
        let cache = Arc::new(QueryCache::new());
        let report = load_into(&DiskCache::new(&dir), &cache);
        assert!(
            report.quarantined > 0 || report.stale > 0,
            "offset {offset}: corrupt header must quarantine or cold-start, got {report}"
        );
        assert_eq!(report.records, 0, "offset {offset}: nothing may load");
        assert_eq!(
            verdict_with(cache),
            baseline,
            "offset {offset}: verdict flipped"
        );
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn a_changed_constant_never_answers_the_original_query() {
    let base = tmpdir("constant");
    let (baseline, bytes) = warm_segment(&base.join("pristine"));
    let mut records = payloads(&bytes);
    // The first check record whose formula has an atom, `… a l <constant> …`
    // (or `a e`): `at` is where the constant starts.
    let (i, at) = records
        .iter()
        .enumerate()
        .find_map(|(i, p)| {
            let atom = p.starts_with("C ").then(|| p.find(" a "))??;
            Some((i, atom + " a l ".len()))
        })
        .expect("a check record with an atom");
    let key = check_key(&records[i]);
    let pristine = tiered_cache(&base.join("pristine"), records.len());
    assert!(
        pristine.lookup_check(&key).is_some(),
        "the pristine record answers"
    );
    let end = at + records[i][at..].find(' ').expect("constant token");
    let constant: i128 = records[i][at..end].parse().expect("constant");
    records[i].replace_range(at..end, &(constant + 7919).to_string());
    assert_ne!(
        check_key(&records[i]),
        key,
        "the tampered record has another key"
    );
    let dir = base.join("tampered");
    write_segment(&dir, 1, &records);

    let cache = tiered_cache(&dir, records.len());
    assert!(
        cache.lookup_check(&key).is_none(),
        "a record with a changed constant answered the original query"
    );
    assert_eq!(cache.stats().disk_hits, 0);
    assert_eq!(
        verdict_with(tiered_cache(&dir, records.len())),
        baseline,
        "a changed constant changed the verdict"
    );
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn an_undecodable_payload_costs_a_miss() {
    let base = tmpdir("undecodable");
    let (baseline, bytes) = warm_segment(&base.join("pristine"));
    let pristine = payloads(&bytes);
    let i = pristine
        .iter()
        .position(|p| p.starts_with("C "))
        .expect("a check record");
    let key = check_key(&pristine[i]);
    // The key's own head, then a verdict the decoder rejects.
    let head = encode_check(&key, &CachedSat::Unsat);
    let head = head.strip_suffix('U').expect("Unsat encodes as U");
    for (n, tail) in ["Z", "U trailing", "S 1 1:x"].into_iter().enumerate() {
        let mut records = pristine.clone();
        records[i] = format!("{head}{tail}");
        assert!(decode_record(&records[i]).is_err(), "{:?}", records[i]);
        let dir = base.join(format!("tail{n}"));
        write_segment(&dir, 1, &records);

        let cache = tiered_cache(&dir, records.len());
        assert!(cache.lookup_check(&key).is_none(), "{tail:?} answered");
        let s = cache.stats();
        assert_eq!((s.check_misses, s.disk_hits), (1, 0), "{tail:?}");
        assert_eq!(
            verdict_with(tiered_cache(&dir, records.len())),
            baseline,
            "{tail:?}: an undecodable record changed the verdict"
        );
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn the_later_segment_answers_a_key_stored_twice() {
    let base = tmpdir("two-segments");
    let check = (Formula::BVar(Var::new("p")), 48);
    let cube = (vec![Atom::le(LinExpr::var("x"), LinExpr::constant(3))], 24);
    let filler = encode_check(&(Formula::True, 48), &CachedSat::Unsat);
    let values = [
        (CachedSat::Unsat, CubeSat::Sat),
        (CachedSat::Unknown, CubeSat::Unsat),
    ];
    for (earlier, later) in [(0, 1), (1, 0)] {
        let dir = base.join(format!("later{later}"));
        for (seq, v) in [(1, earlier), (2, later)] {
            let (check_v, cube_v) = &values[v];
            let records = [
                encode_check(&check, check_v),
                filler.clone(),
                encode_cube(&cube, *cube_v),
            ];
            write_segment(&dir, seq, &records);
        }
        let cache = tiered_cache(&dir, 6);
        let (check_v, cube_v) = &values[later];
        let answer = cache
            .lookup_check(&check)
            .expect("the check key is on disk");
        assert_eq!(
            encode_check(&check, &answer),
            encode_check(&check, check_v),
            "the earlier segment answered the check key"
        );
        assert_eq!(cache.lookup_cube(&cube), Some(*cube_v));
        assert_eq!(cache.stats().disk_hits, 2);
    }
    let _ = fs::remove_dir_all(&base);
}

/// `stable_hash64` of the 30 disk-cache segments the cold runs below
/// publish, one per suite program, concatenated in suite order. A segment
/// holds every `check` and `cube` query of its run, keys and answers
/// encoded, so this pins the on-disk bytes of every formula, atom and model
/// the solver caches: a change to the solver's representation that is
/// meant to be invisible must leave it unedited.
const SUITE_SEGMENTS_HASH: u64 = 0x3b00_98ce_20af_2c89;

/// `stable_hash64` of the 30 artifact files the same cold runs write into
/// a fresh artifact store (what `homc --suite --artifacts-dir D` writes),
/// concatenated in suite order. An artifact holds the learned predicate
/// environment, the per-definition abstractions and the interpolant table.
const SUITE_ARTIFACTS_HASH: u64 = 0x8da4_c06e_c24d_08ef;

/// Verifies `source` against `cache`, writing its artifact under `key`
/// into the store at `dir`.
fn verify_publishing(source: &str, cache: Arc<QueryCache>, dir: &Path, key: &str) -> VerifyOutcome {
    let opts = VerifierOptions {
        cache: Some(cache),
        artifacts: Some(ArtifactConfig {
            dir: dir.to_path_buf(),
            key: key.to_string(),
        }),
        ..VerifierOptions::default()
    };
    verify(source, &opts).expect("verification runs")
}

/// Each suite program verified cold, published, and verified again on a
/// fresh cache with the published tier: the rerun finds every `check` and
/// `cube` query on disk, credits each published record one disk hit,
/// reaches the same verdict in as many cycles, and has nothing to publish.
/// The cold runs also write each program's artifact to a fresh store, and
/// the published segments and artifacts hash to their pinned values.
#[test]
fn a_warm_rerun_finds_every_query_on_disk() {
    let base = tmpdir("suite-rerun");
    let artifacts = base.join("artifacts");
    let (mut segments, mut arts) = (String::new(), String::new());
    for p in suite::SUITE {
        let dir = base.join(p.name);
        let cold_cache = Arc::new(QueryCache::new());
        let cold = verify_publishing(p.source, cold_cache.clone(), &artifacts, p.name);
        let cs = cold_cache.stats();
        let report = DiskCache::new(&dir)
            .publish(&cold_cache)
            .expect("publish succeeds");
        let published = report.as_ref().map_or(0, |r| r.records);
        if let Some(r) = &report {
            segments.push_str(&fs::read_to_string(&r.path).expect("segment readable"));
        }
        let art = ArtifactStore::new(&artifacts).path_for(p.name);
        arts.push_str(&fs::read_to_string(&art).expect("artifact written"));
        assert_eq!(
            published as u64,
            cs.check_misses + cs.cube_misses,
            "{}: one record per cold check and cube miss",
            p.name
        );

        let warm_cache = tiered_cache(&dir, published);
        let warm = verify_with(p.source, warm_cache.clone());
        let ws = warm_cache.stats();
        assert_eq!((ws.check_misses, ws.cube_misses), (0, 0), "{}", p.name);
        assert_eq!(ws.disk_hits, published as u64, "{}", p.name);
        assert_eq!(warm.verdict, cold.verdict, "{}", p.name);
        assert_eq!(warm.stats.cycles, cold.stats.cycles, "{}", p.name);
        assert!(
            DiskCache::new(&dir).publish(&warm_cache).unwrap().is_none(),
            "{}: the warm rerun published again",
            p.name
        );
    }
    let _ = fs::remove_dir_all(&base);
    for (what, text, pinned) in [
        ("segments", &segments, SUITE_SEGMENTS_HASH),
        ("artifacts", &arts, SUITE_ARTIFACTS_HASH),
    ] {
        let hash = stable_hash64(text);
        assert_eq!(
            hash,
            pinned,
            "suite {what} drifted: {hash:#018x} ({} bytes)",
            text.len()
        );
    }
}
