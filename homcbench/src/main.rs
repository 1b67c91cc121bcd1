//! `homcbench`: the repository benchmark.
//!
//! Drives `homc` the way its users do: one process, one client, closed
//! loop, default options, over the 30 programs of `homc::suite::SUITE` in a
//! seeded shuffled order each round. Every verdict is checked against the
//! suite's expectation. See `NOTES.md` for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path homcbench/Cargo.toml -- \
//!     --workload cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced replay with `--trace 1`.
//! End-to-end timings leave out the CPU time the hypervisor gave to other
//! tenants of the host (see `steal`).

mod alloc;
mod replay;
mod spans;
mod steal;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use homc::suite::{Expected, SuiteProgram, SUITE};
use homc::{
    check_evidence, run_batch, stable_hash64, verify, ArtifactConfig, BatchJob, BatchOptions,
    EvidenceConfig, EvidenceStore, Metrics, Verdict, VerifierOptions,
};

use crate::replay::{replay, Counts, Flow};
use crate::spans::Spans;
use crate::steal::CpuTimes;

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds per block. An untraced run measures whole blocks, at least one,
/// and reports each timing as the median over its blocks, so a burst of
/// load from other tenants of the machine moves a minority of blocks and
/// not the result. A block holds 120 submissions: at least ten samples lie
/// beyond its p90.
const BLOCK_ROUNDS: usize = 4;
/// Scratch space for stores and span files, relative to the working
/// directory.
const OUT_DIR: &str = ".homcbench";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Cold,
    Certify,
    Resubmit,
    Warm,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "cold" => Some(Workload::Cold),
            "certify" => Some(Workload::Certify),
            "resubmit" => Some(Workload::Resubmit),
            "warm" => Some(Workload::Warm),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Certify => "certify",
            Workload::Resubmit => "resubmit",
            Workload::Warm => "warm",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: homcbench --workload <cold|certify|resubmit|warm> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// xorshift64 over a splitmix64-mixed start, one stream per round, so the
/// plan of round `r` depends only on the seed and `r`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Byte ranges of the standalone integer literals of `src`: digit runs with
/// no letter, digit or `_` on either side.
fn literals(src: &str) -> Vec<(usize, usize)> {
    let b = src.as_bytes();
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !is_word(b[i - 1])) {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j == b.len() || !is_word(b[j]) {
                out.push((i, j));
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// One literal wrapped as `(0 + k)`.
struct Edit {
    /// Byte offset of the literal in the unedited source.
    at: usize,
    /// The edited source line, whitespace collapsed.
    line: String,
}

/// One program handed to the verifier.
struct Submission {
    /// Index into `SUITE`.
    prog: usize,
    source: String,
    edit: Option<Edit>,
}

impl Submission {
    fn program(&self) -> &'static SuiteProgram {
        &SUITE[self.prog]
    }

    fn label(&self) -> String {
        match &self.edit {
            Some(e) => format!("{} @{} `{}`", self.program().name, e.at, e.line),
            None => self.program().name.to_string(),
        }
    }
}

fn unedited(prog: usize) -> Submission {
    Submission {
        prog,
        source: SUITE[prog].source.to_string(),
        edit: None,
    }
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle(xs: &mut [usize], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// Which of its `nlits` literals program `prog` edits in round `round`.
/// Each program visits its literals in seeded random cycles, every literal
/// once per cycle, so all edit positions are covered equally often and the
/// share of cheap and costly edits does not depend on the seed.
fn edit_choice(seed: u64, prog: usize, nlits: usize, round: usize) -> usize {
    let mut rng = Rng::new(!seed, ((prog as u64) << 32) | (round / nlits) as u64);
    let mut cycle: Vec<usize> = (0..nlits).collect();
    shuffle(&mut cycle, &mut rng);
    cycle[round % nlits]
}

/// The program whose edits `resubmit` does not submit: seeded from its
/// unedited artifact, 4 of its 8 single-literal edits answer `safe`, where
/// a cold run answers `unsafe` (see NOTES.md). That is a soundness defect in
/// the program, and every submission of those edits would fail. `resubmit`
/// submits this program unedited instead; `probe_unsound_resubmit` tries
/// all its edits once per run, outside the measured loop, and prints what
/// they answer.
const UNSOUND_RESUBMIT: &str = "r-lock-e";

/// `src` with the literal at bytes `i..j` wrapped as `(0 + k)`.
fn wrap_literal(prog: usize, src: &str, (i, j): (usize, usize)) -> Submission {
    let source = format!("{}(0 + {}){}", &src[..i], &src[i..j], &src[j..]);
    let line_start = source[..i].rfind('\n').map_or(0, |p| p + 1);
    let line_end = source[i..].find('\n').map_or(source.len(), |p| i + p);
    let line = source[line_start..line_end]
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    Submission {
        prog,
        source,
        edit: Some(Edit { at: i, line }),
    }
}

/// Round `round`'s submissions: the suite in a seeded shuffled order, and on
/// `resubmit` one literal of each program wrapped as `(0 + k)`.
fn plan_round(workload: Workload, seed: u64, round: usize) -> Vec<Submission> {
    let mut order: Vec<usize> = (0..SUITE.len()).collect();
    shuffle(&mut order, &mut Rng::new(seed, round as u64));
    order
        .into_iter()
        .map(|prog| {
            let src = SUITE[prog].source;
            let lits = literals(src);
            if workload != Workload::Resubmit
                || lits.is_empty()
                || SUITE[prog].name == UNSOUND_RESUBMIT
            {
                return unedited(prog);
            }
            wrap_literal(prog, src, lits[edit_choice(seed, prog, lits.len(), round)])
        })
        .collect()
}

/// What one submission produced.
struct Outcome {
    /// `safe`, `unsafe`, `unknown` or `error`.
    kind: &'static str,
    cycles: usize,
    /// Digest of the exported certificate (`certify` only, else 0).
    evidence_digest: u64,
    /// Why the submission failed, if it did.
    problem: Option<String>,
}

fn kind_of(v: &Verdict) -> &'static str {
    match v {
        Verdict::Safe => "safe",
        Verdict::Unsafe { .. } => "unsafe",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// A wrong verdict, or `unknown` on a program the suite expects decided.
fn judge(p: &SuiteProgram, kind: &str) -> Option<String> {
    let ok = match p.expected {
        Expected::Safe => kind == "safe",
        Expected::Unsafe => kind == "unsafe",
        Expected::Diverges => kind == "safe" || kind == "unknown",
    };
    (!ok).then(|| format!("verdict {kind}, expected {:?}", p.expected))
}

fn outcome(sub: &Submission, result: Result<(&'static str, usize), String>) -> Outcome {
    match result {
        Ok((kind, cycles)) => Outcome {
            kind,
            cycles,
            evidence_digest: 0,
            problem: judge(sub.program(), kind),
        },
        Err(e) => Outcome {
            kind: "error",
            cycles: 0,
            evidence_digest: 0,
            problem: Some(e),
        },
    }
}

/// Runs one submission the way the workload's user does. A panic counts as
/// a failed submission; it does not end the run.
fn submit(workload: Workload, sub: &Submission, store: &Path) -> Outcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_flow(workload, sub, store)
    }))
    .unwrap_or_else(|_| outcome(sub, Err("panic".to_string())))
}

fn run_flow(workload: Workload, sub: &Submission, store: &Path) -> Outcome {
    let name = sub.program().name;
    let run =
        |opts: &VerifierOptions| verify(&sub.source, opts).map_err(|e| format!("hard error: {e}"));
    match workload {
        Workload::Cold => outcome(
            sub,
            run(&VerifierOptions::default()).map(|o| (kind_of(&o.verdict), o.stats.cycles)),
        ),
        Workload::Resubmit => {
            let opts = VerifierOptions {
                artifacts: Some(ArtifactConfig {
                    dir: store.to_path_buf(),
                    key: name.to_string(),
                }),
                ..VerifierOptions::default()
            };
            outcome(
                sub,
                run(&opts).map(|o| (kind_of(&o.verdict), o.stats.cycles)),
            )
        }
        Workload::Certify => {
            let opts = VerifierOptions {
                evidence: Some(EvidenceConfig {
                    dir: Some(store.to_path_buf()),
                    key: name.to_string(),
                    source_hash: stable_hash64(&sub.source),
                }),
                ..VerifierOptions::default()
            };
            let verified = run(&opts);
            let mut out = outcome(
                sub,
                verified
                    .as_ref()
                    .map(|o| (kind_of(&o.verdict), o.stats.cycles))
                    .map_err(Clone::clone),
            );
            let Ok(o) = verified else { return out };
            out.evidence_digest = o.stats.evidence_digest;
            if o.evidence.is_some() && out.problem.is_none() {
                let loaded = EvidenceStore::new(store).load(name);
                let checked = match loaded {
                    Ok(load) => match load.evidence {
                        Some(ev) => {
                            check_evidence(&sub.source, &ev, &Metrics::disabled()).map(|_| ())
                        }
                        None => Err("certificate missing from the store".to_string()),
                    },
                    Err(e) => Err(format!("evidence store: {e}")),
                };
                if let Err(e) = checked {
                    out.problem = Some(format!("certificate rejected: {e}"));
                }
            }
            out
        }
        Workload::Warm => {
            let opts = BatchOptions {
                workers: 1,
                cache_dir: Some(store.to_path_buf()),
                ..BatchOptions::default()
            };
            let job = BatchJob {
                name: name.to_string(),
                source: sub.source.clone(),
                expected: Some(sub.program().expected),
            };
            let result = match run_batch(vec![job], &opts) {
                Ok(r) => r
                    .jobs
                    .first()
                    .map_or(Err("batch returned no job".into()), job_kind),
                Err(e) => Err(format!("batch: {e}")),
            };
            outcome(sub, result)
        }
    }
}

/// Verdict kind and cycles of a batch job, from the verdict text
/// `run_batch` reports (`safe`, `unsafe`, `unknown (…)` or `error: …`).
fn job_kind(j: &homc::JobReport) -> Result<(&'static str, usize), String> {
    let kind = ["safe", "unsafe", "unknown"]
        .into_iter()
        .find(|k| j.verdict.starts_with(k))
        .ok_or_else(|| j.verdict.clone())?;
    Ok((kind, j.stats.as_ref().map_or(0, |s| s.cycles)))
}

/// File count and total bytes of a store directory.
fn store_size(dir: &Path) -> (usize, u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

/// A store as set-up left it, to restore between rounds.
struct Store {
    dir: PathBuf,
    files: Vec<(PathBuf, Vec<u8>)>,
}

impl Store {
    fn snapshot(dir: PathBuf) -> io::Result<Store> {
        let mut files = Vec::new();
        if dir.exists() {
            for e in fs::read_dir(&dir)? {
                let path = e?.path();
                files.push((path.clone(), fs::read(&path)?));
            }
        }
        files.sort();
        Ok(Store { dir, files })
    }

    /// File count and total bytes as set-up left them.
    fn size(&self) -> (usize, u64) {
        let bytes = self.files.iter().map(|(_, b)| b.len() as u64).sum();
        (self.files.len(), bytes)
    }

    /// Puts back the set-up state: every snapshot file rewritten, anything
    /// else removed.
    fn restore(&self) -> io::Result<()> {
        for e in fs::read_dir(&self.dir)? {
            let path = e?.path();
            if !self.files.iter().any(|(p, _)| *p == path) {
                fs::remove_file(&path)?;
            }
        }
        for (path, bytes) in &self.files {
            fs::write(path, bytes)?;
        }
        Ok(())
    }
}

/// One timed set-up: a fresh store filled by one pass over the suite, which
/// also warms the process up. Returns the store and any failures.
fn set_up(workload: Workload, dir: PathBuf) -> io::Result<(Store, Vec<String>)> {
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir)?;
    let mut problems = Vec::new();
    if workload == Workload::Warm {
        let jobs = SUITE
            .iter()
            .map(|p| BatchJob {
                name: p.name.to_string(),
                source: p.source.to_string(),
                expected: Some(p.expected),
            })
            .collect();
        let opts = BatchOptions {
            cache_dir: Some(dir.clone()),
            ..BatchOptions::default()
        };
        let report = run_batch(jobs, &opts)?;
        for (j, p) in report.jobs.iter().zip(SUITE) {
            let problem = job_kind(j).map_or_else(Some, |(kind, _)| judge(p, kind));
            if let Some(problem) = problem {
                problems.push(format!("set-up batch: {}: {problem}", p.name));
            }
        }
    } else {
        // The store-filling pass: unedited programs, so resubmit's set-up
        // publishes each program's artifact.
        for prog in 0..SUITE.len() {
            let sub = unedited(prog);
            if let Some(p) = submit(workload, &sub, &dir).problem {
                problems.push(format!("set-up: {}: {p}", sub.label()));
            }
        }
    }
    Ok((Store::snapshot(dir)?, problems))
}

/// Everything a run records about its submissions.
#[derive(Default)]
struct Tally {
    rounds: usize,
    /// Time spent on each round's submissions.
    round_s: Vec<f64>,
    /// CPU time counters at the start of each round, and after the last.
    cpu: Vec<CpuTimes>,
    attempted: usize,
    failed: usize,
    /// Latency per submission, seconds, grouped by round; a failed
    /// submission is `INFINITY`.
    latencies: Vec<Vec<f64>>,
    per_prog: BTreeMap<usize, ProgRow>,
    /// (program, edit, problem) → count.
    failures: BTreeMap<(String, String, String), usize>,
    /// Failures and integrity violations; any makes the run incorrect.
    unexpected: Vec<String>,
    /// First (verdict, cycles) seen per (program, edit offset).
    seen: BTreeMap<(usize, Option<usize>), (&'static str, usize)>,
    plan_digest: String,
    verdict_digest: String,
}

#[derive(Default)]
struct ProgRow {
    /// (round, latency in seconds) of each submission without failure.
    ok_latencies: Vec<(usize, f64)>,
    verdicts: BTreeMap<&'static str, usize>,
    cycles: Vec<usize>,
}

impl Tally {
    fn record(&mut self, round: usize, sub: &Submission, out: &Outcome, lat: f64) {
        self.attempted += 1;
        let row = self.per_prog.entry(sub.prog).or_default();
        *row.verdicts.entry(out.kind).or_insert(0) += 1;
        row.cycles.push(out.cycles);
        let at = sub.edit.as_ref().map(|e| e.at);
        // The digests cover the first block, which every untraced run
        // completes, so two runs with one seed can be compared.
        if round < BLOCK_ROUNDS {
            let _ = write!(self.plan_digest, "{round}:{}:{at:?};", sub.prog);
            let _ = write!(
                self.verdict_digest,
                "{}:{}:{};",
                sub.prog, out.kind, out.cycles
            );
        }
        let first = *self
            .seen
            .entry((sub.prog, at))
            .or_insert((out.kind, out.cycles));
        if first != (out.kind, out.cycles) {
            self.unexpected.push(format!(
                "nondeterministic: {} gave {} in {} cycles, earlier {} in {}",
                sub.label(),
                out.kind,
                out.cycles,
                first.0,
                first.1
            ));
        }
        match &out.problem {
            None => {
                row.ok_latencies.push((round, lat));
                self.latencies[round].push(lat);
            }
            Some(problem) => {
                self.failed += 1;
                self.latencies[round].push(f64::INFINITY);
                self.unexpected.push(format!("{}: {problem}", sub.label()));
                let edit = sub
                    .edit
                    .as_ref()
                    .map_or(String::new(), |e| format!("@{} `{}`", e.at, e.line));
                *self
                    .failures
                    .entry((sub.program().name.to_string(), edit, problem.clone()))
                    .or_insert(0) += 1;
            }
        }
    }

    /// Factor that takes stolen time out of round `round`'s wall times: the
    /// share of CPU time its block kept (see `steal`).
    fn kept(&self, round: usize) -> f64 {
        let block = round / BLOCK_ROUNDS * BLOCK_ROUNDS;
        let end = (block + BLOCK_ROUNDS).min(self.cpu.len() - 1);
        self.cpu[end].kept_since(&self.cpu[block])
    }

    /// Each program's median latency over its submissions without failure,
    /// in seconds, without stolen time with `scaled`.
    fn program_medians(&self, scaled: bool) -> BTreeMap<usize, f64> {
        self.per_prog
            .iter()
            .filter(|(_, row)| !row.ok_latencies.is_empty())
            .map(|(&prog, row)| {
                let mut lat: Vec<f64> = row
                    .ok_latencies
                    .iter()
                    .map(|&(round, l)| if scaled { l * self.kept(round) } else { l })
                    .collect();
                (prog, median(&mut lat))
            })
            .collect()
    }

    /// Checks that the store holds what set-up left: the same files, and on
    /// every workload but `resubmit` (whose edits republish artifacts of
    /// other sizes) the same bytes.
    fn check_store(&mut self, workload: Workload, store: &Store, round: usize) {
        let (now, then) = (store_size(&store.dir), store.size());
        let grew = if workload == Workload::Resubmit {
            now.0 != then.0
        } else {
            now != then
        };
        if grew {
            self.unexpected.push(format!(
                "store changed in round {round}: {then:?} (files, bytes) after set-up, {now:?} now"
            ));
        }
    }
}

/// Nearest-rank quantile of sorted `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // A latency is infinite only when most submissions failed; JSON
            // has no infinity, so it reads as missing.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-program rows, in Table 1 layout and suite order. Latencies leave
/// stolen time out with `scaled`.
fn print_rows(tally: &Tally, scaled: bool) {
    println!(
        "{:<12} {:>11} {:<18} {:>6} {:>7}",
        "program", "median_ms", "verdict", "cycles", "samples"
    );
    let medians = tally.program_medians(scaled);
    for (prog, row) in &tally.per_prog {
        let med = medians
            .get(prog)
            .map_or("-".to_string(), |m| format!("{:.3}", m * 1e3));
        let verdict: Vec<String> = row
            .verdicts
            .iter()
            .map(|(k, n)| {
                if row.verdicts.len() == 1 {
                    k.to_string()
                } else {
                    format!("{k}x{n}")
                }
            })
            .collect();
        let mut cycles: Vec<f64> = row.cycles.iter().map(|&c| c as f64).collect();
        println!(
            "{:<12} {:>11} {:<18} {:>6} {:>7}",
            SUITE[*prog].name,
            med,
            verdict.join("/"),
            median(&mut cycles),
            row.cycles.len()
        );
    }
    for ((prog, edit, problem), n) in &tally.failures {
        println!("fail {prog} {edit}: {problem} x{n}");
    }
    for u in tally.unexpected.iter().take(20) {
        println!("unexpected: {u}");
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cpu_at_start = CpuTimes::read();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("homcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = bench(&args, (started, cpu_at_start), &run_dir);
    let _ = fs::remove_dir_all(&run_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("homcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Submits each single-literal edit of `UNSOUND_RESUBMIT` once, seeded from
/// the unedited program's artifact in `store`, and describes what they
/// answer. Runs after the measured loop; the edits are not submissions of
/// the workload and do not count in `attempted` or `failed`.
fn probe_unsound_resubmit(store: &Store) -> io::Result<String> {
    let prog = SUITE
        .iter()
        .position(|p| p.name == UNSOUND_RESUBMIT)
        .expect("the suite holds the probed program");
    let src = SUITE[prog].source;
    let lits = literals(src);
    let mut wrong = Vec::new();
    for &lit in &lits {
        let sub = wrap_literal(prog, src, lit);
        let out = submit(Workload::Resubmit, &sub, &store.dir);
        store.restore()?;
        if let Some(problem) = out.problem {
            wrong.push(format!("@{} ({problem})", lit.0));
        }
    }
    Ok(if wrong.is_empty() {
        format!(
            "known defect gone: all {} seeded edits of {UNSOUND_RESUBMIT} answer as expected; \
             its edits can rejoin resubmit",
            lits.len()
        )
    } else {
        format!(
            "known defect reproduced, not counted: {} of {} seeded edits of {UNSOUND_RESUBMIT} \
             answer wrongly: {}",
            wrong.len(),
            lits.len(),
            wrong.join(", ")
        )
    })
}

/// Replays `sub` through the traced copy of its flow and compares the
/// result with `out`, the untraced call's.
fn replay_faithfully(
    w: Workload,
    sub: &Submission,
    out: &Outcome,
    store: &Store,
    sub_id: u64,
    spans: &Spans,
    counts: &mut Counts,
) -> Result<(), String> {
    let flow = match w {
        Workload::Cold => Flow::Cold,
        Workload::Certify => Flow::Certify(&store.dir),
        Workload::Resubmit => Flow::Resubmit(&store.dir),
        Workload::Warm => Flow::Warm(&store.dir),
    };
    spans.set_submission(sub_id);
    let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        spans.span("submission", || {
            replay(sub.program().name, &sub.source, &flow, spans, counts)
        })
    }));
    match replayed {
        Ok(Ok(r)) => {
            let same = (kind_of(&r.verdict), r.cycles) == (out.kind, out.cycles)
                && r.evidence_digest == out.evidence_digest
                && r.check_ok != Some(false);
            same.then_some(()).ok_or(format!(
                "replay gave {} in {} cycles (digest {:016x}, check {:?}), untraced {} in {} (digest {:016x})",
                kind_of(&r.verdict),
                r.cycles,
                r.evidence_digest,
                r.check_ok,
                out.kind,
                out.cycles,
                out.evidence_digest
            ))
        }
        Ok(Err(e)) => (out.kind == "error")
            .then_some(())
            .ok_or(format!("replay failed: {e}")),
        Err(_) => Err("replay panicked".to_string()),
    }
}

/// Runs the benchmark and returns the result line. `start` is the process
/// start, when the first set-up's time begins.
fn bench(args: &Args, start: (Instant, CpuTimes), run_dir: &Path) -> io::Result<String> {
    let (started, cpu_at_start) = start;
    let w = args.workload;
    let threads = VerifierOptions::default().abs.threads;
    println!(
        "homcbench workload={} seed={} seconds={} trace={} abstraction_threads={threads}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up, timed from process start for the first one.
    let setups = if args.trace { 1 } else { SETUPS };
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut setup_problems = Vec::new();
    let mut store = None;
    for k in 0..setups {
        let (t, cpu) = if k == 0 {
            (started, cpu_at_start)
        } else {
            (Instant::now(), CpuTimes::read())
        };
        let (s, problems) = set_up(w, run_dir.join(format!("store-{k}")))?;
        let wall = t.elapsed().as_secs_f64();
        setup_wall_s.push(wall);
        setup_s.push(wall * CpuTimes::read().kept_since(&cpu));
        setup_problems.extend(problems);
        if let Some(old) = store.replace(s) {
            fs::remove_dir_all(&old.dir)?;
        }
    }
    let store = store.expect("at least one set-up ran");

    let mut tally = Tally {
        unexpected: setup_problems,
        ..Tally::default()
    };
    let spans = Spans::new();
    let mut counts = Counts::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut sub_id = 0u64;
    alloc::reset_peak();
    let measure = Instant::now();
    loop {
        let round = tally.rounds;
        let plan = plan_round(w, args.seed, round);
        tally.cpu.push(CpuTimes::read());
        let t_round = Instant::now();
        tally.latencies.push(Vec::new());
        for sub in &plan {
            let t = Instant::now();
            let out = submit(w, sub, &store.dir);
            let lat = t.elapsed().as_secs_f64();
            if args.trace {
                untraced_s += lat;
                if w == Workload::Resubmit {
                    store.restore()?;
                }
                if w == Workload::Warm {
                    tally.check_store(w, &store, round);
                }
                sub_id += 1;
                let t = Instant::now();
                let faithful = replay_faithfully(w, sub, &out, &store, sub_id, &spans, &mut counts);
                traced_s += t.elapsed().as_secs_f64();
                if let Err(e) = faithful {
                    tally
                        .unexpected
                        .push(format!("traced run unfaithful on {}: {e}", sub.label()));
                }
            }
            tally.record(round, sub, &out, lat);
        }
        tally.round_s.push(t_round.elapsed().as_secs_f64());
        tally.rounds += 1;
        // Untimed between rounds: store checks and the resubmit restore.
        tally.check_store(w, &store, round);
        if w == Workload::Resubmit {
            store.restore()?;
        }
        let block = if args.trace { 1 } else { BLOCK_ROUNDS };
        if tally.rounds.is_multiple_of(block) && measure.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tally.cpu.push(CpuTimes::read());
    let peak_mb = alloc::peak_bytes() as f64 / (1024.0 * 1024.0);
    let probe = if w == Workload::Resubmit {
        Some(probe_unsound_resubmit(&store)?)
    } else {
        None
    };

    print_rows(&tally, !args.trace);
    if let Some(probe) = probe {
        println!("{probe}");
    }
    println!(
        "digest rounds={} plan={:016x} verdicts={:016x}",
        tally.rounds.min(BLOCK_ROUNDS),
        stable_hash64(&tally.plan_digest),
        stable_hash64(&tally.verdict_digest)
    );

    let metrics = if args.trace {
        fs::create_dir_all(OUT_DIR)?;
        let span_file = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        spans.write_jsonl(&span_file)?;
        println!("spans written to {}", span_file.display());
        layer_metrics(&spans, &counts, tally.rounds as f64, traced_s, untraced_s)
    } else {
        let per_block = SUITE.len() * BLOCK_ROUNDS;
        println!(
            "samples={} blocks={} samples_per_block={per_block} beyond_p90_per_block={}",
            tally.attempted,
            tally.rounds / BLOCK_ROUNDS,
            per_block - (0.9 * per_block as f64).ceil() as usize
        );
        let stolen: Vec<String> = (0..tally.rounds)
            .step_by(BLOCK_ROUNDS)
            .map(|r| format!("{:.3}", 1.0 - tally.kept(r)))
            .collect();
        println!("stolen share of CPU time per block: {}", stolen.join(" "));
        let wall = timings(&tally, false);
        println!(
            "wall clock, unscaled: setup_s={:.4} throughput_pps={:.2} latency_p50_ms={:.3} \
             latency_p90_ms={:.3} latency_geomean_ms={:.3}",
            median(&mut setup_wall_s),
            wall.throughput_pps,
            wall.p50_s * 1e3,
            wall.p90_s * 1e3,
            wall.geomean_s * 1e3
        );
        let scaled = timings(&tally, true);
        let metrics: Vec<(&str, f64, &str)> = vec![
            ("setup_s", median(&mut setup_s), "s"),
            ("throughput_pps", scaled.throughput_pps, "1/s"),
            ("latency_p50_ms", scaled.p50_s * 1e3, "ms"),
            ("latency_p90_ms", scaled.p90_s * 1e3, "ms"),
            ("latency_geomean_ms", scaled.geomean_s * 1e3, "ms"),
            (
                "pass_share",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
                "ratio",
            ),
            ("peak_heap_mb", peak_mb, "MB"),
        ];
        json_metrics(&metrics)
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.unexpected.is_empty(),
        tally.attempted,
        tally.failed
    ))
}

/// The timing metrics of an untraced run.
struct Timings {
    throughput_pps: f64,
    p50_s: f64,
    p90_s: f64,
    geomean_s: f64,
}

/// Throughput, p50 and p90 per block, each the median over blocks, and the
/// geometric mean over programs of each program's median latency; without
/// stolen time with `scaled`, else wall clock.
fn timings(tally: &Tally, scaled: bool) -> Timings {
    let (mut tput, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for (b, (times, lats)) in tally
        .round_s
        .chunks(BLOCK_ROUNDS)
        .zip(tally.latencies.chunks(BLOCK_ROUNDS))
        .enumerate()
    {
        let k = if scaled {
            tally.kept(b * BLOCK_ROUNDS)
        } else {
            1.0
        };
        let mut lat: Vec<f64> = lats.concat();
        lat.sort_by(f64::total_cmp);
        tput.push(lat.len() as f64 / (times.iter().sum::<f64>() * k));
        p50.push(quantile(&lat, 0.5) * k);
        p90.push(quantile(&lat, 0.9) * k);
    }
    // A program whose every submission failed has no latency to enter the
    // geometric mean; its failures show in `pass_share`.
    let medians = tally.program_medians(scaled);
    let geomean = (medians.values().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    Timings {
        throughput_pps: median(&mut tput),
        p50_s: median(&mut p50),
        p90_s: median(&mut p90),
        geomean_s: geomean,
    }
}

/// Per-layer metrics of the traced run, per pass over the suite.
fn layer_metrics(
    spans: &Spans,
    counts: &Counts,
    passes: f64,
    traced_s: f64,
    untraced_s: f64,
) -> String {
    let secs = spans.self_seconds();
    let s = |name: &str| secs.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, f64, &str)> = Vec::new();
    for name in [
        "lang.frontend",
        "abs.abstract",
        "abs.oracle_abstract",
        "hbp.saturate",
        "hbp.path",
        "cegar.trace",
        "cegar.feas",
        "cegar.interp",
        "smt.prove",
        "evcheck.check",
        "serve.evidence_publish",
        "serve.evidence_load",
        "serve.artifact_load",
        "serve.artifact_publish",
        "core.seed",
        "serve.disk_load",
        "serve.disk_seed",
        "serve.disk_publish",
    ] {
        m.push((format!("{name}_s"), s(name) / passes, "s/pass"));
    }
    for name in [
        "abs.calls",
        "abs.smt_queries",
        "abs.defs_reused",
        "abs.defs_rebuilt",
        "abs.hbp_nodes",
        "hbp.typings",
        "hbp.worklist_pops",
        "cegar.preds_added",
        "cegar.cuts_sliced",
        "smt.queries",
        "smt.hits",
        "smt.proofs",
        "smt.unproved",
        "evcheck.rejected",
        "serve.disk_records_seeded",
        "serve.disk_hits",
        "serve.quarantined",
        "core.cycles",
    ] {
        m.push((name.to_string(), c(name) / passes, "count/pass"));
    }
    m.push((
        "serve.evidence_bytes".into(),
        c("serve.evidence_bytes") / passes,
        "B/pass",
    ));
    m.push((
        "serve.artifact_bytes".into(),
        c("serve.artifact_bytes") / passes,
        "B/pass",
    ));
    m.push((
        "abs.memo_reuse_ratio".into(),
        ratio(
            c("abs.defs_reused"),
            c("abs.defs_reused") + c("abs.defs_rebuilt"),
        ),
        "ratio",
    ));
    m.push((
        "smt.hit_ratio".into(),
        ratio(c("smt.hits"), c("smt.queries")),
        "ratio",
    ));
    m.push((
        "serve.disk_hit_ratio".into(),
        ratio(c("serve.disk_hits"), c("smt.queries")),
        "ratio",
    ));
    m.push((
        "core.trace_overhead".into(),
        ratio(traced_s, untraced_s),
        "ratio",
    ));
    m.push((
        "core.unattributed_share".into(),
        ratio(s("submission"), traced_s),
        "ratio",
    ));
    let borrowed: Vec<(&str, f64, &str)> = m.iter().map(|(n, v, u)| (n.as_str(), *v, *u)).collect();
    json_metrics(&borrowed)
}
