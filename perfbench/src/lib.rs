//! End-to-end wall-clock benchmark of DEX on the simulated network.
//!
//! A single-threaded closed loop drives the library's public entry points
//! (`run_instance` for single-shot consensus, `PipelineRun::execute` for
//! the replicated log) over a seeded pool of instances. A separate traced
//! run wraps every actor in a timing shim ([`shim`]) to split the same
//! instances' wall time by layer. End-to-end times are scaled to one
//! reference machine speed measured between runs ([`speed`]). See
//! `README.md` in this directory.

pub mod bench;
pub mod codec;
pub mod exec;
pub mod report;
pub mod shim;
pub mod speed;
pub mod workload;
