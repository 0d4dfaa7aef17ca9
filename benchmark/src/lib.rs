//! The whole-stack benchmark behind `BENCHMARK.json`.
//!
//! Six named workloads drive the GPUfs reproduction through its public
//! API only — the g* calls, the config builders, the fleet builders, the
//! counter `snapshot()` rows, the span tracer — and report end-to-end
//! metrics (modelled virtual time *and* measured host time, each
//! labelled), a per-layer sheet, and a traced run. See `README.md`.

pub mod check;
pub mod cli;
pub mod json;
pub mod layers;
pub mod record;
pub mod rig;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
