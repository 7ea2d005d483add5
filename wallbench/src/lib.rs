//! Wall-clock benchmark of the xbfs query path.
//!
//! Three workloads load different layers: a cold SCALE-20 ingest with a
//! closed loop of single queries, a batched R-MAT burst through the query
//! service, and a checkpoint-heavy road-network stream that builds the
//! operator's metrics. Each run times calls into the public API of every
//! layer from outside the program; see `README.md` for the workload record.

pub mod metrics;
pub mod run;
pub mod trace;
pub mod workload;
