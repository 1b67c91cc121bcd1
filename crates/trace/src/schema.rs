//! The trace event schema and its validator.
//!
//! One table ([`EVENT_SCHEMAS`]) is the single source of truth for what the
//! tracer may emit: every event kind with its required fields and their
//! types. `homc trace-validate` (and the tier-1 `trace-smoke` stage) checks
//! every line of a trace against it — in-tree, no external tools. Extra
//! fields are allowed (forward compatibility); missing or mistyped required
//! fields, unknown event kinds, and malformed JSON are errors.

use std::fmt;

use homc_budget::TIMED_NAMES;

use crate::json::{parse_json, JsonValue};

/// The type a schema field must have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FieldTy {
    /// A non-negative integer.
    Count,
    /// Any string.
    Str,
    /// One of a fixed set of strings.
    Enum(&'static [&'static str]),
    /// An object whose values are all non-negative integers.
    CountMap,
}

/// Required fields of one event kind.
struct EventSchema {
    ev: &'static str,
    fields: &'static [(&'static str, FieldTy)],
}

/// Every event kind the tracer emits (see DESIGN.md for prose).
static EVENT_SCHEMAS: &[EventSchema] = &[
    EventSchema {
        ev: "run_start",
        fields: &[
            ("name", FieldTy::Str),
            ("clock", FieldTy::Enum(&["wall", "logical"])),
        ],
    },
    EventSchema {
        ev: "run_end",
        fields: &[("dur_us", FieldTy::Count)],
    },
    EventSchema {
        ev: "span",
        fields: &[
            ("phase", FieldTy::Enum(&TIMED_NAMES)),
            ("iter", FieldTy::Count),
            ("dur_us", FieldTy::Count),
        ],
    },
    EventSchema {
        ev: "iter",
        fields: &[
            ("iter", FieldTy::Count),
            ("outcome", FieldTy::Str),
            ("preds", FieldTy::Count),
            ("preds_by_fun", FieldTy::CountMap),
            ("hbp_rules", FieldTy::Count),
            ("hbp_terms", FieldTy::Count),
            ("typings", FieldTy::Count),
            ("pops", FieldTy::Count),
            ("rescans", FieldTy::Count),
            ("cex_len", FieldTy::Count),
            ("new_interp", FieldTy::Count),
            ("new_seeded", FieldTy::Count),
            ("new_ho", FieldTy::Count),
            ("interp_size_max", FieldTy::Count),
            ("smt_queries", FieldTy::Count),
            ("cache_hits", FieldTy::Count),
            ("cache_misses", FieldTy::Count),
            ("fuel", FieldTy::Count),
            ("dur_us", FieldTy::Count),
        ],
    },
    EventSchema {
        ev: "smt",
        fields: &[
            ("key", FieldTy::Str),
            ("size", FieldTy::Count),
            ("result", FieldTy::Enum(&["sat", "unsat", "unknown"])),
            ("dur_us", FieldTy::Count),
            ("q", FieldTy::Str),
        ],
    },
    EventSchema {
        ev: "abs_def",
        fields: &[
            ("def", FieldTy::Str),
            ("queries", FieldTy::Count),
            ("dur_us", FieldTy::Count),
        ],
    },
    EventSchema {
        // One-shot audit pointer: the `max_context_atoms` cap dropped
        // relevant context components in abstraction task `task` (the
        // `abs_ctx_truncated` counter keeps the exact total).
        ev: "abs_ctx_trunc",
        fields: &[
            ("task", FieldTy::Count),
            ("dropped", FieldTy::Count),
            ("cap", FieldTy::Count),
        ],
    },
    EventSchema {
        ev: "mc_round",
        fields: &[
            ("round", FieldTy::Count),
            ("typings", FieldTy::Count),
            ("dirty", FieldTy::Count),
        ],
    },
    EventSchema {
        ev: "interp_cut",
        fields: &[("cut", FieldTy::Count), ("size", FieldTy::Count)],
    },
    EventSchema {
        ev: "fault",
        fields: &[
            ("phase", FieldTy::Str),
            ("kind", FieldTy::Enum(&["error", "panic"])),
            ("detail", FieldTy::Str),
        ],
    },
    EventSchema {
        ev: "verdict",
        fields: &[
            ("verdict", FieldTy::Enum(&["safe", "unsafe", "unknown"])),
            ("cycles", FieldTy::Count),
        ],
    },
    // --- fleet progress events (the `--progress` sink) ---------------------
    EventSchema {
        // A batch driver announcing its plan before any job starts.
        ev: "batch_start",
        fields: &[
            ("jobs", FieldTy::Count),
            ("workers", FieldTy::Count),
            ("clock", FieldTy::Enum(&["wall", "logical"])),
        ],
    },
    EventSchema {
        // Job index -> program name mapping, one per submitted job.
        ev: "job_queued",
        fields: &[("job", FieldTy::Count), ("name", FieldTy::Str)],
    },
    EventSchema {
        // Pool-side job lifecycle transition, stamped with the worker id.
        ev: "pool_job",
        fields: &[
            ("job", FieldTy::Count),
            ("worker", FieldTy::Count),
            ("state", FieldTy::Enum(&["start", "done", "panic"])),
        ],
    },
    EventSchema {
        // Fleet heartbeat: queue depth and worker occupancy at a transition.
        ev: "pool_hb",
        fields: &[
            ("queued", FieldTy::Count),
            ("running", FieldTy::Count),
            ("done", FieldTy::Count),
        ],
    },
    EventSchema {
        // A verifier job entering a CEGAR phase (progress sink only — the
        // per-job trace keeps the end-stamped `span` events).
        ev: "job_phase",
        fields: &[
            ("job", FieldTy::Count),
            ("iter", FieldTy::Count),
            ("phase", FieldTy::Enum(&TIMED_NAMES)),
        ],
    },
    EventSchema {
        // A job settling with its verdict and its counters (the counter
        // table's `Batch` rows).
        ev: "batch_job",
        fields: &[
            ("job", FieldTy::Count),
            ("name", FieldTy::Str),
            ("status", FieldTy::Enum(&["passed", "failed", "unknown"])),
            ("verdict", FieldTy::Str),
            ("wall_us", FieldTy::Count),
            ("cache_hits", FieldTy::Count),
            ("disk_hits", FieldTy::Count),
        ],
    },
    EventSchema {
        // The batch tally; `homc top` treats this as end-of-stream.
        ev: "batch_end",
        fields: &[
            ("passed", FieldTy::Count),
            ("failed", FieldTy::Count),
            ("unknown", FieldTy::Count),
            ("dur_us", FieldTy::Count),
        ],
    },
];

/// A schema violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// The line is not valid JSON.
    BadJson(String),
    /// The line is not a JSON object.
    NotAnObject,
    /// The `ev` field is missing or not a string.
    MissingEv,
    /// The `ts` field is missing or not a non-negative integer.
    BadTs,
    /// The event kind is not in the schema table.
    UnknownEvent(String),
    /// A required field is missing or has the wrong type.
    BadField {
        /// The event kind.
        ev: String,
        /// The offending field.
        field: String,
        /// What was expected of it.
        expected: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::BadJson(e) => write!(f, "malformed JSON: {e}"),
            SchemaError::NotAnObject => write!(f, "line is not a JSON object"),
            SchemaError::MissingEv => write!(f, "missing string field \"ev\""),
            SchemaError::BadTs => write!(f, "missing or negative \"ts\""),
            SchemaError::UnknownEvent(ev) => write!(f, "unknown event kind {ev:?}"),
            SchemaError::BadField {
                ev,
                field,
                expected,
            } => {
                write!(f, "event {ev:?}: field {field:?} must be {expected}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

fn check_field(v: &JsonValue, ty: FieldTy) -> Result<(), String> {
    match ty {
        FieldTy::Count => match v.as_num() {
            Some(n) if n >= 0 => Ok(()),
            _ => Err("a non-negative integer".to_string()),
        },
        FieldTy::Str => match v.as_str() {
            Some(_) => Ok(()),
            None => Err("a string".to_string()),
        },
        FieldTy::Enum(allowed) => match v.as_str() {
            Some(s) if allowed.contains(&s) => Ok(()),
            _ => Err(format!("one of {allowed:?}")),
        },
        FieldTy::CountMap => match v.as_obj() {
            Some(fields)
                if fields
                    .iter()
                    .all(|(_, v)| matches!(v.as_num(), Some(n) if n >= 0)) =>
            {
                Ok(())
            }
            _ => Err("an object of non-negative integers".to_string()),
        },
    }
}

/// Validates one JSONL event line against the schema.
pub fn validate_line(line: &str) -> Result<(), SchemaError> {
    let v = parse_json(line).map_err(|e| SchemaError::BadJson(e.to_string()))?;
    if v.as_obj().is_none() {
        return Err(SchemaError::NotAnObject);
    }
    match v.get("ts").and_then(JsonValue::as_num) {
        Some(ts) if ts >= 0 => {}
        _ => return Err(SchemaError::BadTs),
    }
    let Some(ev) = v.get("ev").and_then(JsonValue::as_str) else {
        return Err(SchemaError::MissingEv);
    };
    let Some(schema) = EVENT_SCHEMAS.iter().find(|s| s.ev == ev) else {
        return Err(SchemaError::UnknownEvent(ev.to_string()));
    };
    for (field, ty) in schema.fields {
        let Some(fv) = v.get(field) else {
            return Err(SchemaError::BadField {
                ev: ev.to_string(),
                field: (*field).to_string(),
                expected: "present".to_string(),
            });
        };
        if let Err(expected) = check_field(fv, *ty) {
            return Err(SchemaError::BadField {
                ev: ev.to_string(),
                field: (*field).to_string(),
                expected,
            });
        }
    }
    Ok(())
}

/// Validates a whole trace; returns the number of event lines on success,
/// or the 1-based line number of the first violation. Empty lines are not
/// tolerated — every line must be an event.
pub fn validate_trace(text: &str) -> Result<usize, (usize, SchemaError)> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        validate_line(line).map_err(|e| (i + 1, e))?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_events() {
        let ok = [
            r#"{"ts":0,"ev":"run_start","name":"intro1","clock":"logical"}"#,
            r#"{"ts":1,"ev":"span","phase":"abs","iter":0,"dur_us":0}"#,
            r#"{"ts":2,"ev":"smt","key":"00ff","size":3,"result":"unsat","dur_us":5,"q":"(x > 0)"}"#,
            r#"{"ts":3,"ev":"fault","phase":"smt","kind":"error","detail":"planned"}"#,
            r#"{"ts":4,"ev":"verdict","verdict":"safe","cycles":2}"#,
            r#"{"ts":5,"ev":"run_end","dur_us":0}"#,
            r#"{"ts":6,"ev":"batch_start","jobs":4,"workers":2,"clock":"logical"}"#,
            r#"{"ts":7,"ev":"job_queued","job":0,"name":"sum"}"#,
            r#"{"ts":8,"ev":"pool_job","job":0,"worker":1,"state":"start"}"#,
            r#"{"ts":9,"ev":"pool_hb","queued":3,"running":1,"done":0}"#,
            r#"{"ts":10,"ev":"job_phase","job":0,"iter":2,"phase":"mc"}"#,
            r#"{"ts":11,"ev":"batch_job","job":0,"name":"sum","status":"passed","verdict":"safe","wall_us":0,"cache_hits":9,"disk_hits":0}"#,
            r#"{"ts":12,"ev":"batch_end","passed":4,"failed":0,"unknown":0,"dur_us":0}"#,
        ];
        for line in ok {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_events() {
        // Unknown kind.
        assert!(matches!(
            validate_line(r#"{"ts":0,"ev":"nope"}"#),
            Err(SchemaError::UnknownEvent(_))
        ));
        // Missing required field.
        assert!(matches!(
            validate_line(r#"{"ts":0,"ev":"span","phase":"abs","iter":0}"#),
            Err(SchemaError::BadField { .. })
        ));
        // Wrong enum member.
        assert!(matches!(
            validate_line(r#"{"ts":0,"ev":"span","phase":"parse","iter":0,"dur_us":1}"#),
            Err(SchemaError::BadField { .. })
        ));
        // Negative count.
        assert!(matches!(
            validate_line(r#"{"ts":0,"ev":"run_end","dur_us":-1}"#),
            Err(SchemaError::BadField { .. })
        ));
        // Unknown pool lifecycle state.
        assert!(matches!(
            validate_line(r#"{"ts":0,"ev":"pool_job","job":0,"worker":0,"state":"zzz"}"#),
            Err(SchemaError::BadField { .. })
        ));
        // No ts.
        assert!(matches!(
            validate_line(r#"{"ev":"run_end","dur_us":1}"#),
            Err(SchemaError::BadTs)
        ));
        // Not JSON.
        assert!(matches!(
            validate_line("not json"),
            Err(SchemaError::BadJson(_))
        ));
    }

    #[test]
    fn whole_trace_reports_line_numbers() {
        let text = "{\"ts\":0,\"ev\":\"run_end\",\"dur_us\":1}\nbroken\n";
        assert_eq!(validate_trace(text).map_err(|(n, _)| n), Err(2));
        let good = "{\"ts\":0,\"ev\":\"run_end\",\"dur_us\":1}\n";
        assert_eq!(validate_trace(good), Ok(1));
    }
}
