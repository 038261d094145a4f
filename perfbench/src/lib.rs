//! The repository benchmark: three end-to-end workloads run through the
//! public library API ([`workload`]) and a traced run that times each
//! workspace crate from the outside ([`layers`]). `BENCHMARK.json` at the
//! repository root declares the workloads and every metric printed here.

#![deny(unsafe_code)]

pub mod layers;
pub mod report;
pub mod workload;
