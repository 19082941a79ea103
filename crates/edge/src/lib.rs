//! Discrete-event simulation of the paper's smart-video-surveillance
//! edge scenario (Sec. V).
//!
//! Twenty cameras offload frames to an edge server whose FPGA runs one
//! AdaPEx accelerator at a time. The request rate fluctuates (±30 %
//! every 5 s); a [`adapex::RuntimeManager`] monitors the rate and
//! adapts the confidence threshold or reconfigures the FPGA. The
//! simulator accounts for queueing, buffer-overflow **inference loss**,
//! reconfiguration downtime, power/energy integration, and the paper's
//! quality metrics (accuracy, latency, EDP, QoE).
//!
//! An episode is a [`RunSpec`] — a [`Traffic`] recipe, a [`FaultPlan`]
//! and a seed — and there is one way to run it per model:
//! [`EdgeSimulation::run`] for one server (`run_many` for the paper's
//! seeded repetitions), [`Fleet::run`] for N of them, and
//! [`ServeScenario::run`] for the per-request serve twin of one server.
//!
//! # Example
//!
//! ```no_run
//! use adapex::baselines::{manager_for, System};
//! use adapex::generator::{GeneratorConfig, LibraryGenerator};
//! use adapex_dataset::DatasetKind;
//! use adapex_edge::{EdgeSimulation, RunSpec, SimConfig};
//!
//! let artifacts =
//!     LibraryGenerator::new(GeneratorConfig::fast(DatasetKind::Cifar10Like)).generate();
//! let mut manager = manager_for(System::AdaPEx, &artifacts, 0.10);
//! let sim = EdgeSimulation::new(SimConfig::paper_default(artifacts.reconfig_time_ms));
//! let result = sim.run(&mut manager, &RunSpec::synthetic(1));
//! println!("loss {:.2}% accuracy {:.3}", result.inference_loss_pct(), result.mean_accuracy);
//! ```

mod buffer;
mod des;
mod downtime;
mod engine;
mod fault;
mod fleet;
mod scenario;
mod sampling;
mod scenario_file;
pub mod serve_sim;
mod sim;
mod workload;
mod workload_gen;

pub use engine::DesStats;
pub use fault::{
    AccuracyFault, CameraDropout, FaultCounters, FaultPlan, FaultState, FaultWindow,
    ReconfigOutcome, StaleFlood, FAULT_STREAM_SALT,
};
pub use fleet::{
    Fleet, FleetConfig, FleetResult, FleetSummary, PlacementPolicy, ServerAssignment,
    DEFAULT_CAMERA_SPREAD, DEFAULT_PLACEMENT, FLEET_SALT,
};
pub use scenario::Scenario;
pub use scenario_file::{
    builtin_library, builtin_scenario, FleetOverrides, ScenarioFile, ServeOverrides, SimOverrides,
    SCENARIO_SCHEMA_VERSION,
};
pub use serve_sim::{ServeScenario, ServeScenarioConfig, ServeSimResult, SERVE_SIM_SALT};
pub use sim::{mean_of, EdgeSimulation, RunSpec, SimConfig, SimResult, TraceSample, Traffic};
pub use workload::{WorkloadConfig, WorkloadTrace};
pub use workload_gen::{
    ClusterReplayWorkload, CorrelatedBurstWorkload, DiurnalWorkload, FlashCrowdWorkload,
    PiecewiseWorkload, SyntheticWorkload, WorkloadGenerator, WorkloadSpec, WORKLOAD_EVENT_SALT,
};
