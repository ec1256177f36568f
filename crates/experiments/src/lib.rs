//! `experiments` — the per-figure experiment catalog, parallel sweep
//! runner, and paper-shape checks for the `eventscale` reproduction.
//!
//! * [`mod@sweep`] — run many testbed configurations in parallel;
//! * [`figure`] — figure/series representation, table rendering, JSON;
//! * [`catalog`] — every figure of the paper mapped to concrete sweeps;
//! * [`checks`] — who-wins/crossover assertions per figure;
//! * [`tables`] — the §4.1/§5.1 best-configuration determinations;
//! * [`sensitivity`] — do the conclusions survive cost perturbations?
//! * [`capacity`] — the USL capacity observatory behind
//!   `repro observe capacity` and its `CAPACITY_baseline.json` σ/κ gate;
//! * [`resilience`] — the adversarial-client survival harness and Fig-3
//!   lifecycle-policy sweep behind `repro resilience`;
//! * [`scale`] — the connection-count frontier harness behind
//!   `repro scale` and its `SCALE_baseline.json` memory-per-connection
//!   gate;
//! * [`conformance`] — the model-based protocol conformance sweep behind
//!   `repro conformance`: generated client sequences diffed across the
//!   virtual-time oracle and every live server variant, with shrinking,
//!   a regression corpus, and mutation teeth checks.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod catalog;
pub mod checks;
pub mod conformance;
pub mod figure;
pub mod observe;
pub mod resilience;
pub mod scale;
pub mod sensitivity;
pub mod sweep;
pub mod tables;

pub use capacity::{
    capacity_checks, capacity_to_json, parse_capacity_json, render_capacity, run_capacity,
    CapacityCurve, CapacityReport, CAPACITY_BASELINE_PATH, CAPACITY_SCHEMA, KAPPA_TOLERANCE,
    SIGMA_TOLERANCE,
};
pub use catalog::{Campaign, LinkSetup, Scale, ALL_FIGURE_IDS};
pub use checks::{check_figure, render_checks, Check};
pub use conformance::{
    conformance_checks, corpus_entries, render_conformance, run_conformance, ConformanceReport,
    ConformanceRig, CoverageRow, Divergence, MutationFinding, FULL_SEQUENCES, SMOKE_SEQUENCES,
};
pub use figure::{Figure, Metric, Series};
pub use observe::{observe, Observation};
pub use resilience::{
    render_resilience, run_resilience, PolicyRun, ResilienceReport, ResilienceRun, GOODPUT_FLOOR,
};
pub use scale::{
    parse_scale_json, render_scale, run_scale, scale_checks, scale_to_json, ScaleCurve, ScalePoint,
    ScaleReport, MEM_PER_CONN_TOLERANCE, SCALE_BASELINE_PATH, SCALE_SCHEMA,
};
pub use sensitivity::{render_sensitivity, run_sensitivity, SensitivityRow, PERTURBATIONS};
pub use sweep::sweep;
pub use tables::{best_config_table, BestConfigTable, ConfigSummary};
