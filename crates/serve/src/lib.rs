//! `homc-serve`: the crash-safe serving and persistence layer of the homc
//! pipeline. Nothing here knows how to verify a program (the batch driver
//! lives in the `homc` crate, which depends on this one):
//!
//! * **A job pool** ([`mod@pool`]): runs each job once on a fixed set of
//!   workers under the one panic trap ([`trap_panics`]). Every submitted job
//!   yields exactly one result, its value or its panic message, in
//!   submission order — a panicking job degrades to a report entry, never a
//!   process abort. The limits a job can hit live in its own `homc-budget`
//!   budget, not in the pool.
//! * **Four on-disk stores over one framed-file container.** A private
//!   `store` module owns the container: versioned header, length+FNV-1a
//!   checksummed frames, quarantine of corrupt files, file naming, and a
//!   publish path that is atomic for readers, durable across crashes and
//!   safe under concurrent writers. The four stores are record codecs on
//!   top of it:
//!   * the **query-cache disk tier** ([`mod@disk`], records in
//!     [`mod@codec`]): one segment per batch run, records carrying **full
//!     canonical keys**, so a byte flip can cost a cache hit but can never
//!     change a verdict;
//!   * the **run ledger** ([`mod@ledger`]) with trend analytics
//!     ([`mod@trend`]): one JSONL run file per suite/batch/bench run, read
//!     by `homc history`/`homc regress`;
//!   * **abstraction artifacts** ([`mod@artifact`]): one file per program
//!     key holding a run's manifest, predicate environment, memo entries
//!     and interpolants, seeded into the next run of the same program;
//!   * **verdict evidence** ([`mod@evidence`]): one certificate per program
//!     key, replayed by `homc check`.
//!
//! Deterministic fault injection covers the failure surfaces: torn writes,
//! truncated segments, checksum flips ([`DiskFault`]) and job-thread panics
//! (injected by the batch driver through the job body).
//! See DESIGN.md §"Serving & persistence architecture" and §"On-disk store".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod codec;
pub mod disk;
pub mod evidence;
pub mod ledger;
pub mod pool;
mod store;
pub mod trend;

pub use artifact::{Artifact, ArtifactLoad, ArtifactStore, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use codec::{decode_record, encode_check, encode_cube, CodecError, Record};
pub use disk::{
    seed_cache, DiskCache, DiskFault, DiskTier, LoadReport, PublishReport, MAGIC, VERSION,
};
pub use evidence::{
    parse_evidence_bytes, Evidence, EvidenceLoad, EvidenceStore, EvidenceVerdict, ProvenanceRecord,
    SafeEvidence, EVIDENCE_MAGIC, EVIDENCE_VERSION,
};
pub use ledger::{
    AppendReport, Ledger, LedgerLoad, RunRecord, LEDGER_MAGIC, LEDGER_VERSION, RECORD_SCHEMA,
};
pub use pool::{run_jobs, trap_panics, Job, PoolConfig};
pub use trend::{regress, render_history, TrendOptions};
