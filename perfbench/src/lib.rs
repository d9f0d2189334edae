//! End-to-end benchmark of the DeepFlow reproduction.
//!
//! Three workloads, each exercising a different part of the system (see
//! `README.md` beside this crate): `bookinfo-deploy` (agent + in-memory
//! server on the deployed wire path), `tiered-mixed` (concurrent store
//! with spill, page-in and the trace cache, writes beside reads) and
//! `cluster-rf2` (replicated distributed ingest and assembly).

#![forbid(unsafe_code)]

pub mod bookinfo;
pub mod check;
pub mod cluster;
pub mod corpus;
pub mod harness;
pub mod report;
pub mod tiered;
pub mod tracer;
pub mod util;
