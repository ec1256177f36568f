//! `hostsim` — the SUT's processors and cost model.
//!
//! * [`cpu`] — a multi-processor, multi-lane CPU: jobs run when their lane
//!   (thread group) is under its parallelism cap and a processor is free;
//! * [`costs`] — the calibrated per-request CPU cost model for the threaded
//!   and event-driven architectures, including SMP contention, pool
//!   management overhead, and worker-synchronisation penalties.

pub mod costs;
pub mod cpu;

pub use costs::{CpuCosts, SplitService};
pub use cpu::{CompletedJob, Cpu, CpuStats, JobToken, LaneId, Started};
