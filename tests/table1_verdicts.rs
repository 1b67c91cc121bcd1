//! Integration test: every Table 1 program gets the paper's verdict.
//!
//! This is the headline reproduction check — each of the 30 benchmark
//! programs must verify (safe), be rejected with a genuine counterexample
//! (unsafe), or — for `apply` — at least never be rejected (the paper's
//! tool diverges; ours verifies it thanks to systematic ghost parameters).

use homc::{stable_hash64, suite, verify, EvidenceConfig, Expected, Verdict, VerifierOptions};

fn check(program: &suite::SuiteProgram, cycles: usize, digest: u64) {
    // The certificate is built in memory under the key and source hash
    // `homc --suite --evidence-dir` stamps, so its digest is the one the
    // CLI reports for the program.
    let opts = VerifierOptions {
        evidence: Some(EvidenceConfig {
            dir: None,
            key: program.name.to_string(),
            source_hash: stable_hash64(program.source),
        }),
        ..VerifierOptions::default()
    };
    let out = verify(program.source, &opts)
        .unwrap_or_else(|e| panic!("{}: hard error {e}", program.name));
    match program.expected {
        Expected::Safe => assert!(
            out.verdict.is_safe(),
            "{} must be safe, got {}",
            program.name,
            out.verdict
        ),
        Expected::Unsafe => match &out.verdict {
            Verdict::Unsafe { witness, path } => {
                // The witness must be a *real* counterexample: replay it
                // concretely and observe the failure.
                let compiled = homc_lang::frontend(program.source).expect("compiles");
                let mut driver = homc_lang::eval::ScriptDriver::new(path.clone(), witness.to_vec());
                let (outcome, _) = homc_lang::eval::run(&compiled.cps, &mut driver, 1_000_000);
                assert!(
                    outcome.is_fail(),
                    "{}: witness {witness:?} with path {path:?} does not replay to fail \
                     (got {outcome:?})",
                    program.name
                );
            }
            other => panic!("{} must be unsafe, got {other}", program.name),
        },
        Expected::Diverges => assert!(
            !out.verdict.is_unsafe(),
            "{} must not be rejected, got {}",
            program.name,
            out.verdict
        ),
    }
    // The order metric must match the paper's column O.
    assert_eq!(
        out.order, program.paper_order,
        "{}: order mismatch",
        program.name
    );
    assert_eq!(out.stats.cycles, cycles, "{}: cycle count", program.name);
    assert_eq!(
        out.stats.evidence_digest, digest,
        "{}: evidence digest {:#018x}",
        program.name, out.stats.evidence_digest
    );
}

macro_rules! suite_test {
    ($($name:ident: $cycles:expr, $digest:expr),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                let key = stringify!($name).replace('_', "-");
                let p = suite::find(&key).unwrap_or_else(|| panic!("no suite program {key}"));
                check(p, $cycles, $digest);
            }
        )*
    };
}

// Each program's CEGAR cycle count (column C) as `homc --suite --stats`
// and BENCH_table1.json report it, and the digest of its certificate as
// `homc --suite --evidence-dir D --stats` prints it. a-cppr's 1 says its
// first abstraction cannot fail. A digest pins every refutation proof's
// Farkas multipliers (safe programs) or the witness and path (unsafe
// ones) byte for byte.
suite_test!(
    intro1: 2, 0xddba_4be9_d972_9883,
    intro2: 2, 0xadcb_cbbb_a981_ae8b,
    intro3: 2, 0x226f_0932_34c5_d4a9,
    sum: 2, 0xcd89_fed8_6424_9178,
    mult: 2, 0x9cf2_b6f1_d5a1_b2d2,
    max: 2, 0x456f_3c66_76e1_bd7b,
    mc91: 2, 0x9475_2e1e_d0e0_0e71,
    ack: 2, 0xf711_b515_58dc_7a9d,
    repeat: 2, 0x04cd_e07d_d0b0_21aa,
    fhnhn: 1, 0x25e7_cbf3_bd94_b6e0,
    hrec: 2, 0xc35b_5bc4_4201_459a,
    neg: 2, 0x8261_89f5_8188_b9b3,
    apply: 2, 0x93b3_19ad_4fa9_7f2d,
    a_prod: 2, 0xbb2d_fd82_27a6_b673,
    a_cppr: 1, 0x02f6_6a20_d9f0_9bde,
    a_init: 2, 0xa016_87ac_e7a6_83db,
    a_max: 2, 0x96a3_1e85_0eb5_7f3c,
    l_zipunzip: 2, 0x30ba_e0aa_a729_587c,
    l_zipmap: 3, 0x6e1d_ffa4_f7c3_b81b,
    hors: 2, 0xfc4d_c9a3_5331_6862,
    e_simple: 2, 0x5e20_f775_a48a_25ee,
    e_fact: 3, 0xae83_d46c_6253_310a,
    r_lock: 4, 0x1590_6dcd_cde4_8502,
    r_file: 5, 0xfaa5_a790_b492_bf35,
    sum_e: 1, 0xc9cd_2e0c_e0f0_9145,
    mult_e: 1, 0x3cd9_95f1_96ee_09f4,
    mc91_e: 1, 0x26ac_6422_b463_7f6d,
    repeat_e: 1, 0x99b2_3b92_4b90_2eb9,
    a_max_e: 1, 0xd74c_8cc2_f09a_314a,
    r_lock_e: 4, 0x08a9_78e0_2ea9_13c9,
);
