//! Degradation tests: under starved budgets, expired deadlines, and
//! deterministically injected faults, the verifier must always *terminate
//! with a verdict* — `Unknown` with a structured reason — and never panic,
//! hang, or abort.

use std::time::Duration;

use homc::{
    verify, Expected, FaultKind, FaultPlan, LimitKind, Phase, UnknownReason, Verdict,
    VerifierOptions,
};
use homc_hbp::check::CheckLimits;

/// The paper's §1 example M1: safe, but only after one CEGAR refinement —
/// so a full run exercises every phase (abs, mc, feas, interp, smt).
const M1: &str = "let f x g = g (x + 1) in
                  let h y = assert (y > 0) in
                  let k n = if n > 0 then f n h else () in
                  k m";

/// Suite programs the degradation sweeps run over: a safe program needing
/// refinement, a genuinely unsafe one, and a first-order recursive one.
fn sample_programs() -> Vec<(&'static str, &'static str)> {
    let mut out = vec![("m1", M1)];
    for name in ["sum", "mc91", "repeat-e"] {
        let p = homc::suite::find(name).expect("suite program exists");
        out.push((p.name, p.source));
    }
    out
}

fn reason_of(verdict: &Verdict) -> &UnknownReason {
    match verdict {
        Verdict::Unknown { reason } => reason,
        other => panic!("expected Unknown, got {other}"),
    }
}

/// Starved model-checker limits degrade every program to `Unknown` with a
/// structured budget reason, in the first CEGAR iteration.
#[test]
fn tiny_check_limits_degrade_to_unknown() {
    let opts = VerifierOptions {
        check: CheckLimits {
            max_base_combos: 1,
            max_typings: 1,
            max_search_steps: 1,
        },
        ..VerifierOptions::default()
    };
    for (name, src) in sample_programs() {
        let out = verify(src, &opts).expect("no hard error");
        match reason_of(&out.verdict) {
            UnknownReason::Budget(e) => {
                assert_eq!(e.phase, Phase::Mc, "{name}: wrong phase: {e}");
                assert!(e.retryable(), "{name}: CheckLimits bounds are retryable");
            }
            other => panic!("{name}: expected a budget reason, got {other}"),
        }
        assert_eq!(out.stats.cycles, 1, "{name}: the first limit hit decides");
    }
}

/// An already-expired deadline degrades every program to `Unknown(deadline)`
/// — quickly, in the first CEGAR iteration.
#[test]
fn expired_deadline_degrades_to_unknown() {
    let opts = VerifierOptions {
        timeout: Some(Duration::ZERO),
        ..VerifierOptions::default()
    };
    for (name, src) in sample_programs() {
        let out = verify(src, &opts).expect("no hard error");
        match reason_of(&out.verdict) {
            UnknownReason::Budget(e) => {
                assert_eq!(e.limit, LimitKind::Deadline, "{name}: {e}");
            }
            other => panic!("{name}: expected deadline, got {other}"),
        }
        assert_eq!(
            out.stats.cycles, 1,
            "{name}: the deadline stops the first iteration"
        );
    }
}

/// A millisecond-scale deadline still terminates with a verdict on every
/// sampled program (fast programs may legitimately finish).
#[test]
fn millisecond_deadline_always_terminates() {
    let opts = VerifierOptions {
        timeout: Some(Duration::from_millis(1)),
        ..VerifierOptions::default()
    };
    for (name, src) in sample_programs() {
        let out = verify(src, &opts).expect("no hard error");
        match out.verdict {
            Verdict::Safe | Verdict::Unsafe { .. } | Verdict::Unknown { .. } => {}
        }
        let _ = name;
    }
}

/// A starved fuel pool degrades to `Unknown(fuel)`.
#[test]
fn tiny_fuel_degrades_to_unknown() {
    let opts = VerifierOptions {
        fuel: Some(5),
        ..VerifierOptions::default()
    };
    let out = verify(M1, &opts).expect("no hard error");
    match reason_of(&out.verdict) {
        UnknownReason::Budget(e) => assert_eq!(e.limit, LimitKind::Fuel, "{e}"),
        other => panic!("expected fuel exhaustion, got {other}"),
    }
}

/// An injected error fault in *each* phase turns into `Unknown(injected
/// fault)` attributed to that phase — no panic, no hang, no wrong verdict.
#[test]
fn injected_error_fault_in_every_phase_degrades() {
    for phase in homc_budget::PHASES {
        let opts = VerifierOptions {
            faults: FaultPlan::one(phase, 1, FaultKind::Error),
            ..VerifierOptions::default()
        };
        let out = verify(M1, &opts).expect("no hard error");
        match reason_of(&out.verdict) {
            UnknownReason::Budget(e) => {
                assert_eq!(e.limit, LimitKind::Injected, "{phase}: {e}");
                assert_eq!(e.phase, phase, "fault attributed to the wrong phase");
                assert!(!e.retryable(), "{phase}: injections must not retry");
            }
            other => panic!("{phase}: expected injected fault, got {other}"),
        }
    }
}

/// An injected *panic* fault is caught at the iteration boundary and
/// reported as an internal fault with the panic message preserved.
#[test]
fn injected_panic_fault_becomes_internal_fault() {
    for phase in homc_budget::PHASES {
        let opts = VerifierOptions {
            faults: FaultPlan::one(phase, 1, FaultKind::Panic),
            ..VerifierOptions::default()
        };
        let out = verify(M1, &opts).expect("panic must not escape verify");
        match reason_of(&out.verdict) {
            UnknownReason::InternalFault(msg) => {
                assert!(
                    msg.contains("injected"),
                    "{phase}: panic message lost: {msg:?}"
                );
            }
            other => panic!("{phase}: expected InternalFault, got {other}"),
        }
    }
}

/// Late injections (after the pipeline has already done real work in the
/// phase) still degrade cleanly on every sampled program.
#[test]
fn late_injections_degrade_cleanly() {
    for (name, src) in sample_programs() {
        for phase in [Phase::Smt, Phase::Mc] {
            let opts = VerifierOptions {
                faults: FaultPlan::one(phase, 100, FaultKind::Error),
                ..VerifierOptions::default()
            };
            let out = verify(src, &opts).expect("no hard error");
            // The fault may or may not fire (the phase may finish in fewer
            // than 100 checkpoints); either way the run must end in a
            // verdict, and a fired fault must surface as Unknown(injected).
            if let Verdict::Unknown { reason } = &out.verdict {
                match reason {
                    UnknownReason::Budget(e) => {
                        assert_eq!(e.limit, LimitKind::Injected, "{name}/{phase}: {e}")
                    }
                    UnknownReason::InternalFault(_) => {
                        panic!("{name}/{phase}: error fault must not panic")
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The degradation sweep over real suite expectations: with a 1-second
/// per-program deadline, every verdict is either correct or Unknown —
/// never the *wrong* decisive verdict.
#[test]
fn deadline_never_flips_a_verdict() {
    let opts = VerifierOptions {
        timeout: Some(Duration::from_secs(1)),
        ..VerifierOptions::default()
    };
    for name in ["intro1", "sum-e", "r-lock"] {
        let p = homc::suite::find(name).expect("suite program");
        let out = verify(p.source, &opts).expect("no hard error");
        match (&out.verdict, p.expected) {
            (Verdict::Unknown { .. }, _) => {}
            (v, Expected::Safe) => assert!(v.is_safe(), "{name}: flipped to {v}"),
            (v, Expected::Unsafe) => assert!(v.is_unsafe(), "{name}: flipped to {v}"),
            (v, Expected::Diverges) => assert!(!v.is_unsafe(), "{name}: flipped to {v}"),
        }
    }
}
