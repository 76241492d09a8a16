//! # rescnn-bench
//!
//! Experiment harnesses reproducing every table and figure of the paper, plus the
//! pass/fail serving harnesses CI gates on. Each `bin/` target regenerates one
//! table/figure or runs one harness; sample counts are controlled by `RESCNN_*` environment variables (see
//! [`HarnessConfig`]).
//!
//! | Target | Paper artefact |
//! |---|---|
//! | `table1` | Table I — GFLOPs & accuracy vs. resolution |
//! | `fig2` | Figure 2 — progressive scan sizes |
//! | `fig6` | Figure 6 — storage-calibration curves |
//! | `fig7` | Figure 7 — tuned vs. library throughput (+ §VII-a speedups) |
//! | `table2` | Table II — ResNet-50 wall-clock latency |
//! | `fig8` | Figure 8 — accuracy vs. FLOPs on ImageNet-like data |
//! | `fig9` | Figure 9 — accuracy vs. FLOPs on Cars-like data |
//! | `table3` | Table III — ImageNet read-bandwidth savings |
//! | `table4` | Table IV — Cars read-bandwidth savings |
//! | `scale_overhead` | §VII-c — scale-model runtime overhead |
//! | `slo_load` | SLO serving core under trace-driven load + fault injection |
//! | `slo_chaos` | cross-layer chaos drill of the resilient lifecycle (retry, breaker, watchdog, memory budget) |
//! | `slo_server` | real-clock async front-end under paced load + record/replay determinism check |

#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod experiments;
pub mod load;
pub mod report;
pub mod server_load;

pub use config::HarnessConfig;
