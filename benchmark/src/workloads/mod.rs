//! The four workloads. Each is a closed loop: the caller waits for one
//! op's reply before sending the next. `parallelism` is always the
//! explicit number 1, never `0` or the environment: an op runs on its
//! caller's thread, where the caller's probes read the clock it ran at
//! (see `harness::Sample`). Concurrency comes from `service-mix`'s two
//! clients.

pub mod batch;
pub mod edit;
pub mod library;
pub mod service;

use crate::harness::{Config, Metrics, Section, Until};

/// Span name for a pipeline stage reported in `stage_profile`: the four
/// stages that carry the work by name, the rest as `stage.small`.
fn stage_span(name: &str) -> &'static str {
    match name {
        "instantiate" => "stage.instantiate",
        "connections" => "stage.connections",
        "netlist" => "stage.netlist",
        "interactions" => "stage.interactions",
        _ => "stage.small",
    }
}

/// The fixed facts of a workload.
#[derive(Debug)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The percentile `op_tail_ms` reports: the highest round one that
    /// keeps ten samples beyond it at `min_ops`.
    pub tail_pct: f64,
    /// Timed ops a full-scale run never goes below.
    pub min_ops: usize,
    /// What `throughput_per_s` counts.
    pub unit: &'static str,
}

/// All workloads, in `--all` order.
pub const SPECS: [Spec; 4] = [batch::SPEC, library::SPEC, edit::SPEC, service::SPEC];

/// A set-up workload instance.
pub trait Workload {
    /// Runs a closed loop of ops until `until` says stop; with `trace`
    /// the section carries the spans of every op.
    fn run(&mut self, until: Until, trace: bool) -> Section;

    /// End-state gates, after the last timed section. An error fails
    /// every op of the run: a fast wrong checker must not score. The
    /// batch workloads gate every op as it completes and have none.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer metrics from a traced section plus this workload's
    /// leaf-layer calls.
    fn layer_metrics(&mut self, traced: &Section, out: &mut Metrics);
}

/// Generates inputs, builds the technology, opens sessions and runs the
/// warm-up ops of workload `name`. Returns the workload and the time
/// all that took, in seconds corrected for the core clock: `setup_s`.
///
/// # Panics
///
/// Panics on a name that is not in [`SPECS`] (the command line is
/// checked before this is called).
pub fn setup(name: &str, cfg: &Config) -> (Box<dyn Workload>, f64) {
    fn boxed<W: Workload + 'static>((workload, seconds): (W, f64)) -> (Box<dyn Workload>, f64) {
        (Box::new(workload), seconds)
    }
    match name {
        "batch-100k" => boxed(batch::Batch::setup(cfg)),
        "library-batch" => boxed(library::Library::setup(cfg)),
        "edit-session" => boxed(edit::EditSession::setup(cfg)),
        "service-mix" => boxed(service::Service::setup(cfg)),
        other => panic!("unknown workload {other}"),
    }
}
