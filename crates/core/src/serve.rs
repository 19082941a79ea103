//! Serving data plane: bounded per-SLO-class queues, a
//! latency-budgeted dynamic batcher, and early-exit-aware admission.
//!
//! This module is the **engine-agnostic** half of the serving runtime —
//! pure queueing/batching/admission state, stepped on an integer
//! virtual clock (microseconds). Three drivers share it:
//!
//! - [`ServeSim`] runs it against a deterministic [`ServiceModel`] on
//!   virtual time (the sim-first validation path; the edge crate hosts
//!   the same engine as a DES component);
//! - the `bench-serving` bin drives it with the real
//!   [`adapex_nn::serve::BatchExecutor`], measuring wall-clock
//!   throughput while the data plane does admission;
//! - the CLI `serve` subcommand replays generated arrival traces.
//!
//! # Batcher state machine
//!
//! The server alternates between **idle** and **in-batch**:
//!
//! 1. *Open*: the batch opens at `t_open = max(server_free, first
//!    pending arrival)`.
//! 2. *Fill*: requests join until `t_open + batch_deadline_us`, or
//!    until `max_batch` requests are queued — whichever is first (the
//!    classic latency-budgeted window).
//! 3. *Close/admit*: at close time the admission policy picks batch
//!    members from the class queues (see below); the batch dispatches
//!    and the server is busy until its service completes.
//!
//! # Early-exit-aware admission law
//!
//! [`AdmissionPolicy::ExitAware`] keeps exact running counts of which
//! exit every completed request took. The expected per-sample service
//! is the count-weighted mean of the per-exit service costs (seeded by
//! the operating point's exit fractions as a prior), so **when exit-1
//! rate is high the estimated cost drops and deeper queues become
//! feasible** — exit-1 completions literally return capacity that the
//! controller immediately re-admits against. Admission visits classes
//! by descending priority and sheds requests that cannot finish inside
//! their latency budget even if dispatched now (deadline-infeasible
//! work is dropped *before* it wastes service). The FIFO baseline
//! admits strictly in arrival order and never sheds, so under burst
//! overload it spends service on requests that are already doomed.
//!
//! # Determinism
//!
//! Every decision is a pure function of the arrival trace and the
//! config on the virtual clock: no wall time, no ambient RNG. Worker
//! count enters only through the (deterministic) service-time model
//! and the real executor's chunking — which is verdict-invariant — so
//! serving results are byte-identical at any `--workers`. Pinned by
//! `tests/serving_determinism.rs`.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One SLO class: a latency budget and a scheduling priority.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloClass {
    /// Class name (reports, CLI `--slo gold:20000:2`).
    pub name: String,
    /// End-to-end latency budget in microseconds.
    pub budget_us: u64,
    /// Admission priority; higher is served first under `ExitAware`.
    pub priority: u8,
    /// Bounded queue capacity; arrivals beyond it are dropped (counted,
    /// never silent).
    pub queue_capacity: usize,
}

impl SloClass {
    /// A class with the given name/budget, default priority 1 and a
    /// 64-deep queue.
    pub fn new(name: impl Into<String>, budget_us: u64) -> Self {
        SloClass {
            name: name.into(),
            budget_us,
            priority: 1,
            queue_capacity: 64,
        }
    }
}

/// Batch admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Strict arrival order across classes; no shedding. The baseline.
    Fifo,
    /// Priority order with exit-rate-informed feasibility shedding.
    ExitAware,
}

/// Serving configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// SLO classes (at least one).
    pub classes: Vec<SloClass>,
    /// Maximum batch size.
    pub max_batch: usize,
    /// Batch assembly window in microseconds.
    pub batch_deadline_us: u64,
    /// Worker lanes the executor splits a batch across (scales the
    /// modeled batch service time; the real executor chunks the same
    /// way).
    pub workers: usize,
    /// Admission policy.
    pub admission: AdmissionPolicy,
    /// Fixed per-batch dispatch overhead in microseconds (modeled).
    pub dispatch_overhead_us: u64,
}

impl ServeConfig {
    /// Two-class default (`gold` 20 ms, `best-effort` 100 ms), batch 16
    /// assembled for at most 2 ms, exit-aware admission.
    pub fn paper_default() -> Self {
        ServeConfig {
            classes: vec![
                SloClass {
                    name: "gold".into(),
                    budget_us: 20_000,
                    priority: 2,
                    queue_capacity: 64,
                },
                SloClass {
                    name: "best-effort".into(),
                    budget_us: 100_000,
                    priority: 1,
                    queue_capacity: 256,
                },
            ],
            max_batch: 16,
            batch_deadline_us: 2_000,
            workers: 1,
            admission: AdmissionPolicy::ExitAware,
            dispatch_overhead_us: 20,
        }
    }
}

/// One request arrival (id is the caller's request index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival time, microseconds.
    pub at_us: u64,
    /// SLO class index.
    pub class: usize,
}

/// A queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Caller request id.
    pub id: u64,
    /// SLO class index.
    pub class: usize,
    /// Arrival time, microseconds.
    pub arrival_us: u64,
    /// Global arrival sequence number (FIFO ordering across classes).
    pub seq: u64,
}

/// Deterministic service behavior: which exit a request takes and what
/// each exit costs. Implementations must be pure functions of the id.
pub trait ServiceModel {
    /// Total exits (early + final).
    fn num_exits(&self) -> usize;
    /// Exit taken by request `id` (deterministic).
    fn exit_of(&self, id: u64) -> usize;
    /// Per-sample service cost of a request retiring at `exit`,
    /// microseconds.
    fn service_us(&self, exit: usize) -> u64;
}

/// [`ServiceModel`] derived from an operating point: exit fractions
/// drive a seeded hash split, per-exit staged costs drive service
/// times. This is the virtual twin of the staged
/// [`adapex_nn::serve::BatchExecutor`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointServiceModel {
    /// Cumulative exit fractions (last element 1.0).
    pub cumulative_fractions: Vec<f64>,
    /// Per-exit per-sample service cost, microseconds (monotone
    /// non-decreasing: deeper exits cost more).
    pub service_us: Vec<u64>,
    /// Seed for the exit-assignment hash.
    pub seed: u64,
}

impl PointServiceModel {
    /// Builds the model from per-exit fractions (normalized) and costs.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, are empty, or fractions sum to zero.
    pub fn new(exit_fractions: &[f64], service_us: Vec<u64>, seed: u64) -> Self {
        assert_eq!(exit_fractions.len(), service_us.len(), "one cost per exit");
        assert!(!service_us.is_empty(), "at least one exit");
        let total: f64 = exit_fractions.iter().sum();
        assert!(total > 0.0, "exit fractions must sum to > 0");
        let mut acc = 0.0;
        let mut cumulative = Vec::with_capacity(exit_fractions.len());
        for &f in exit_fractions {
            acc += f / total;
            cumulative.push(acc);
        }
        // Guard against rounding leaving the last fraction < 1.
        *cumulative.last_mut().expect("non-empty") = 1.0;
        PointServiceModel {
            cumulative_fractions: cumulative,
            service_us,
            seed,
        }
    }
}

/// SplitMix64 finalizer: uniform, deterministic id → u64 hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ServiceModel for PointServiceModel {
    fn num_exits(&self) -> usize {
        self.service_us.len()
    }

    fn exit_of(&self, id: u64) -> usize {
        let h = splitmix64(id ^ self.seed);
        // 53-bit mantissa → exact f64 in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        self.cumulative_fractions
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative_fractions.len() - 1)
    }

    fn service_us(&self, exit: usize) -> u64 {
        self.service_us[exit]
    }
}

/// Log-spaced latency histogram: 8 sub-buckets per power of two,
/// constant memory at any request count, exact bucket lower bounds for
/// percentile readout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

const HIST_SUB: u64 = 8;
const HIST_BUCKETS: usize = 8 * 64;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket(v: u64) -> usize {
        if v < HIST_SUB {
            return v as usize;
        }
        let b = 63 - v.leading_zeros() as u64;
        let sub = (v >> (b.saturating_sub(3))) & (HIST_SUB - 1);
        ((b * HIST_SUB + sub) as usize).min(HIST_BUCKETS - 1)
    }

    /// Lower bound of a bucket (the value percentiles report).
    fn bucket_floor(i: usize) -> u64 {
        let i = i as u64;
        if i < HIST_SUB {
            return i;
        }
        let b = i / HIST_SUB;
        let sub = i % HIST_SUB;
        (1u64 << b) + (sub << b.saturating_sub(3))
    }

    /// Records one latency.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Latency at quantile `q` in `[0, 1]` — the lower bound of the
    /// bucket holding the q-th sample. `None` when empty (zero-division
    /// safe, like [`SimResult::edp`]).
    ///
    /// [`SimResult::edp`]: https://docs.rs/adapex-edge
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_floor(i));
            }
        }
        Some(Self::bucket_floor(HIST_BUCKETS - 1))
    }
}

/// Per-class serving statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Class name.
    pub name: String,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed (any latency).
    pub completed: u64,
    /// Completions inside the class latency budget (goodput numerator).
    pub completed_in_budget: u64,
    /// Arrivals dropped on a full queue.
    pub dropped_full: u64,
    /// Requests shed at admission as deadline-infeasible.
    pub shed_infeasible: u64,
    /// Queue-depth high-water mark.
    pub queue_high_water: u64,
    /// Latency sum over completions, microseconds (mean = sum/completed).
    pub latency_sum_us: u64,
    /// Completion-latency histogram.
    pub histogram: LatencyHistogram,
}

impl ClassStats {
    /// Median completion latency; `None` when nothing completed.
    pub fn p50_us(&self) -> Option<u64> {
        self.histogram.quantile(0.50)
    }

    /// 99th-percentile completion latency; `None` when nothing
    /// completed.
    pub fn p99_us(&self) -> Option<u64> {
        self.histogram.quantile(0.99)
    }

    /// Mean completion latency; `None` when nothing completed.
    pub fn mean_latency_us(&self) -> Option<f64> {
        if self.completed == 0 {
            None
        } else {
            Some(self.latency_sum_us as f64 / self.completed as f64)
        }
    }
}

/// Whole-run serving report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions inside their class budget.
    pub completed_in_budget: u64,
    /// Arrivals dropped on full queues.
    pub dropped_full: u64,
    /// Requests shed at admission as deadline-infeasible.
    pub shed_infeasible: u64,
    /// Requests still queued when the run ended.
    pub residual: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batch-deferral count: assembly windows that closed while the
    /// server was still busy, deferring dispatch (backpressure signal).
    pub deferrals: u64,
    /// Sum of batch sizes (mean fill = `batch_fill_sum / batches`).
    pub batch_fill_sum: u64,
    /// Completions per exit index.
    pub exit_counts: Vec<u64>,
    /// Virtual end-of-run time, microseconds.
    pub horizon_us: u64,
    /// Per-class statistics.
    pub per_class: Vec<ClassStats>,
}

impl ServeReport {
    /// Completed inferences per virtual second; `None` on an empty
    /// horizon.
    pub fn throughput_rps(&self) -> Option<f64> {
        if self.horizon_us == 0 {
            None
        } else {
            Some(self.completed as f64 / (self.horizon_us as f64 / 1e6))
        }
    }

    /// In-budget completions per virtual second; `None` on an empty
    /// horizon.
    pub fn goodput_rps(&self) -> Option<f64> {
        if self.horizon_us == 0 {
            None
        } else {
            Some(self.completed_in_budget as f64 / (self.horizon_us as f64 / 1e6))
        }
    }

    /// Mean batch fill; `None` when no batch dispatched.
    pub fn mean_batch_fill(&self) -> Option<f64> {
        if self.batches == 0 {
            None
        } else {
            Some(self.batch_fill_sum as f64 / self.batches as f64)
        }
    }

    /// Every offered request is accounted for exactly once.
    pub fn conservation_holds(&self) -> bool {
        self.offered == self.completed + self.dropped_full + self.shed_infeasible + self.residual
    }
}

/// The serving engine: queues + batcher + admission + accounting.
/// Drivers own the clock and the service mechanism; the engine owns
/// every scheduling decision. See the module docs for the state
/// machine.
#[derive(Debug, Clone)]
pub struct ServeEngine {
    config: ServeConfig,
    queues: Vec<VecDeque<QueuedRequest>>,
    /// Admission order: class indices by (priority desc, index asc).
    admit_order: Vec<usize>,
    /// Per-exit service costs used for admission estimates.
    est_service_us: Vec<u64>,
    /// Prior exit weights (operating-point fractions) + observed counts.
    exit_prior: Vec<f64>,
    exit_observed: Vec<u64>,
    seq: u64,
    report: ServeReport,
}

impl ServeEngine {
    /// Builds an engine; `est_service_us`/`exit_prior` seed the
    /// admission estimator (one entry per exit).
    ///
    /// # Panics
    ///
    /// Panics on empty classes/exits or mismatched estimator lengths.
    pub fn new(config: ServeConfig, est_service_us: Vec<u64>, exit_prior: Vec<f64>) -> Self {
        assert!(!config.classes.is_empty(), "at least one SLO class");
        assert!(!est_service_us.is_empty(), "at least one exit");
        assert_eq!(est_service_us.len(), exit_prior.len(), "estimator lengths");
        assert!(config.max_batch > 0, "max_batch must be positive");
        let mut admit_order: Vec<usize> = (0..config.classes.len()).collect();
        admit_order.sort_by_key(|&c| (std::cmp::Reverse(config.classes[c].priority), c));
        let queues = config.classes.iter().map(|_| VecDeque::new()).collect();
        let per_class = config
            .classes
            .iter()
            .map(|c| ClassStats {
                name: c.name.clone(),
                ..ClassStats::default()
            })
            .collect();
        let exits = est_service_us.len();
        ServeEngine {
            config,
            queues,
            admit_order,
            est_service_us,
            exit_prior,
            exit_observed: vec![0; exits],
            seq: 0,
            report: ServeReport {
                exit_counts: vec![0; exits],
                per_class,
                ..ServeReport::default()
            },
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Swaps the admission estimator's service profile (an
    /// operating-point change; observed exit counts are kept).
    pub fn set_service_profile(&mut self, est_service_us: Vec<u64>, exit_prior: Vec<f64>) {
        assert_eq!(est_service_us.len(), self.est_service_us.len(), "exit count");
        assert_eq!(exit_prior.len(), self.exit_prior.len(), "exit count");
        self.est_service_us = est_service_us;
        self.exit_prior = exit_prior;
    }

    /// Offers a request; returns `false` when the class queue is full
    /// (the drop is counted — bounded loss, never silent).
    pub fn offer(&mut self, id: u64, class: usize, now_us: u64) -> bool {
        let stats = &mut self.report.per_class[class];
        self.report.offered += 1;
        stats.offered += 1;
        let q = &mut self.queues[class];
        if q.len() >= self.config.classes[class].queue_capacity {
            self.report.dropped_full += 1;
            stats.dropped_full += 1;
            return false;
        }
        q.push_back(QueuedRequest {
            id,
            class,
            arrival_us: now_us,
            seq: self.seq,
        });
        self.seq += 1;
        stats.queue_high_water = stats.queue_high_water.max(q.len() as u64);
        true
    }

    /// Total queued requests.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Expected per-sample service given the prior and observed exit
    /// counts (microseconds). This is the early-exit admission law: a
    /// high observed exit-1 rate pulls the estimate toward the cheap
    /// stage-1 cost, admitting deeper queues.
    pub fn estimated_sample_service_us(&self) -> f64 {
        let mut weight = 0.0f64;
        let mut cost = 0.0f64;
        for e in 0..self.est_service_us.len() {
            let w = self.exit_prior[e] + self.exit_observed[e] as f64;
            weight += w;
            cost += w * self.est_service_us[e] as f64;
        }
        if weight <= 0.0 {
            return *self.est_service_us.last().expect("non-empty") as f64;
        }
        cost / weight
    }

    /// Modeled service time of a `b`-sample batch under the estimator.
    pub fn estimated_batch_service_us(&self, b: usize) -> u64 {
        let lanes = self.config.workers.max(1);
        let per_lane = b.div_ceil(lanes) as f64;
        self.config.dispatch_overhead_us + (per_lane * self.estimated_sample_service_us()).ceil() as u64
    }

    /// Counts a deferred assembly window (server still busy at close).
    pub fn note_deferral(&mut self) {
        self.report.deferrals += 1;
    }

    /// Closes the assembly window at `t_close`: admits up to
    /// `max_batch` members from the queues per the policy. `Fifo` pops
    /// strictly in arrival order; `ExitAware` pops in priority order
    /// and sheds requests that cannot complete inside their budget even
    /// if dispatched in this batch.
    pub fn close_batch(&mut self, t_close: u64) -> Vec<QueuedRequest> {
        let mut members = Vec::with_capacity(self.config.max_batch);
        match self.config.admission {
            AdmissionPolicy::Fifo => {
                while members.len() < self.config.max_batch {
                    let next = self
                        .queues
                        .iter()
                        .enumerate()
                        .filter_map(|(c, q)| q.front().map(|r| (r.seq, c)))
                        .min();
                    let Some((_, c)) = next else { break };
                    members.push(self.queues[c].pop_front().expect("front just seen"));
                }
            }
            AdmissionPolicy::ExitAware => {
                for oi in 0..self.admit_order.len() {
                    let c = self.admit_order[oi];
                    while members.len() < self.config.max_batch {
                        let Some(&front) = self.queues[c].front() else { break };
                        let est_finish =
                            t_close + self.estimated_batch_service_us(members.len() + 1);
                        let deadline = front.arrival_us + self.config.classes[c].budget_us;
                        if est_finish > deadline {
                            // Deadline-infeasible: shed now, with
                            // accounting, instead of burning service.
                            self.queues[c].pop_front();
                            self.report.shed_infeasible += 1;
                            self.report.per_class[c].shed_infeasible += 1;
                            continue;
                        }
                        members.push(self.queues[c].pop_front().expect("front just seen"));
                    }
                    if members.len() >= self.config.max_batch {
                        break;
                    }
                }
            }
        }
        if !members.is_empty() {
            self.report.batches += 1;
            self.report.batch_fill_sum += members.len() as u64;
        }
        members
    }

    /// Records a dispatched batch's completions: every member finished
    /// at `finish_us`, member `i` retired at `exits[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `exits.len() != members.len()` or an exit index is out
    /// of range.
    pub fn complete_batch(&mut self, members: &[QueuedRequest], finish_us: u64, exits: &[usize]) {
        assert_eq!(members.len(), exits.len(), "one exit per member");
        for (m, &e) in members.iter().zip(exits) {
            self.exit_observed[e] += 1;
            self.report.exit_counts[e] += 1;
            self.report.completed += 1;
            let stats = &mut self.report.per_class[m.class];
            stats.completed += 1;
            let latency = finish_us.saturating_sub(m.arrival_us);
            stats.latency_sum_us += latency;
            stats.histogram.record(latency);
            if latency <= self.config.classes[m.class].budget_us {
                self.report.completed_in_budget += 1;
                stats.completed_in_budget += 1;
            }
        }
    }

    /// Finalizes the report at `horizon_us`; queued leftovers are
    /// counted as residual (conservation: offered = completed +
    /// dropped + shed + residual).
    pub fn finish(mut self, horizon_us: u64) -> ServeReport {
        self.report.residual = self.queued() as u64;
        self.report.horizon_us = horizon_us;
        self.report
    }

    /// Observed exit counts so far (admission estimator state).
    pub fn exit_observed(&self) -> &[u64] {
        &self.exit_observed
    }
}

/// Virtual-time serving simulation: replays an arrival trace against a
/// [`ServiceModel`] with the batcher state machine from the module
/// docs. Fully deterministic; drains every queue before finishing.
pub struct ServeSim;

impl ServeSim {
    /// Runs `arrivals` (must be sorted by `at_us`) through the engine.
    ///
    /// # Panics
    ///
    /// Panics if the trace is unsorted or a class index is out of
    /// range.
    pub fn run<M: ServiceModel>(
        config: ServeConfig,
        model: &M,
        arrivals: &[Arrival],
    ) -> ServeReport {
        let exits = model.num_exits();
        let est: Vec<u64> = (0..exits).map(|e| model.service_us(e)).collect();
        // Uniform prior: one pseudo-observation split across exits.
        let prior = vec![1.0 / exits as f64; exits];
        let mut engine = ServeEngine::new(config.clone(), est, prior);

        assert!(
            arrivals.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "arrival trace must be sorted"
        );
        let mut next_arrival = 0usize;
        let mut free_at = 0u64;
        let mut now = 0u64;
        let mut horizon = 0u64;
        let mut id = 0u64;

        loop {
            // Ingest everything that has already arrived.
            while next_arrival < arrivals.len() && arrivals[next_arrival].at_us <= now {
                let a = arrivals[next_arrival];
                engine.offer(id, a.class, a.at_us);
                id += 1;
                next_arrival += 1;
            }
            if engine.queued() == 0 {
                if next_arrival >= arrivals.len() {
                    break;
                }
                now = arrivals[next_arrival].at_us;
                continue;
            }

            // Open the assembly window.
            let t_open = now.max(free_at);
            let deadline_close = t_open + config.batch_deadline_us;
            let mut t_close = deadline_close;
            // Fill: later arrivals may join until the window closes or
            // the batch is full.
            while engine.queued() < config.max_batch
                && next_arrival < arrivals.len()
                && arrivals[next_arrival].at_us <= deadline_close
            {
                let a = arrivals[next_arrival];
                engine.offer(id, a.class, a.at_us);
                id += 1;
                next_arrival += 1;
                if engine.queued() >= config.max_batch {
                    t_close = t_close.min(a.at_us.max(t_open));
                }
            }
            if engine.queued() >= config.max_batch {
                t_close = t_close.min(t_open);
            }
            if t_close > free_at && free_at > t_open {
                engine.note_deferral();
            }

            let members = engine.close_batch(t_close);
            if members.is_empty() {
                // Everything queued was shed; advance past the window.
                now = t_close.max(now + 1);
                horizon = horizon.max(t_close);
                continue;
            }
            // Lane-chunked service, exactly like the real executor:
            // member j runs on lane j % workers; the batch completes
            // when the slowest lane finishes.
            let lanes = config.workers.max(1);
            let mut lane_time = vec![0u64; lanes];
            let mut member_exits = Vec::with_capacity(members.len());
            for (j, m) in members.iter().enumerate() {
                let e = model.exit_of(m.id);
                lane_time[j % lanes] += model.service_us(e);
                member_exits.push(e);
            }
            let service = config.dispatch_overhead_us
                + lane_time.iter().copied().max().unwrap_or(0);
            let finish = t_close + service;
            engine.complete_batch(&members, finish, &member_exits);
            free_at = finish;
            horizon = horizon.max(finish);
            now = t_close;
        }

        engine.finish(horizon)
    }
}

/// Synthetic arrival patterns for benches, the CLI and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalPattern {
    /// Poisson arrivals at a constant rate.
    Steady,
    /// Steady with a mid-run burst at `burst_x` times the base rate
    /// over the middle fifth of the run.
    Burst {
        /// Burst multiplier.
        burst_x: f64,
    },
    /// Sinusoidal diurnal ramp between `0.25×` and `1.75×` the base
    /// rate over the run.
    DiurnalRamp,
}

impl ArrivalPattern {
    /// Parses `steady`, `burst`, `ramp`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "steady" => Some(ArrivalPattern::Steady),
            "burst" => Some(ArrivalPattern::Burst { burst_x: 4.0 }),
            "ramp" => Some(ArrivalPattern::DiurnalRamp),
            _ => None,
        }
    }

    /// Instantaneous rate multiplier at fraction `f` of the run.
    fn multiplier(&self, f: f64) -> f64 {
        match self {
            ArrivalPattern::Steady => 1.0,
            ArrivalPattern::Burst { burst_x } => {
                if (0.4..0.6).contains(&f) {
                    *burst_x
                } else {
                    1.0
                }
            }
            ArrivalPattern::DiurnalRamp => {
                1.0 + 0.75 * (2.0 * std::f64::consts::PI * (f - 0.25)).sin()
            }
        }
    }
}

/// Generates a sorted arrival trace: a thinned Poisson process at
/// `rate_rps` shaped by the pattern, classes assigned by hashed weights.
/// Deterministic in `seed`; exponential gaps come from the splitmix
/// stream, never ambient RNG.
pub fn generate_arrivals(
    pattern: ArrivalPattern,
    rate_rps: f64,
    duration_s: f64,
    class_weights: &[f64],
    seed: u64,
) -> Vec<Arrival> {
    assert!(!class_weights.is_empty(), "at least one class weight");
    let total_w: f64 = class_weights.iter().sum();
    assert!(total_w > 0.0, "class weights must sum to > 0");
    let mut cumulative = Vec::with_capacity(class_weights.len());
    let mut acc = 0.0;
    for &w in class_weights {
        acc += w / total_w;
        cumulative.push(acc);
    }
    *cumulative.last_mut().expect("non-empty") = 1.0;

    let horizon_us = (duration_s * 1e6) as u64;
    // Peak rate bounds the homogeneous process we thin.
    let peak = match pattern {
        ArrivalPattern::Steady => 1.0,
        ArrivalPattern::Burst { burst_x } => burst_x.max(1.0),
        ArrivalPattern::DiurnalRamp => 1.75,
    };
    let lambda_peak = rate_rps * peak / 1e6; // arrivals per microsecond
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut ctr = seed;
    let mut draw = || {
        ctr = ctr.wrapping_add(1);
        (splitmix64(ctr) >> 11) as f64 / (1u64 << 53) as f64
    };
    if lambda_peak <= 0.0 {
        return out;
    }
    loop {
        let u = draw().max(f64::MIN_POSITIVE);
        t += -u.ln() / lambda_peak;
        let at = t as u64;
        if at >= horizon_us {
            break;
        }
        // Thin to the instantaneous rate.
        let f = at as f64 / horizon_us as f64;
        if draw() * peak > pattern.multiplier(f) {
            continue;
        }
        let uc = draw();
        let class = cumulative
            .iter()
            .position(|&c| uc < c)
            .unwrap_or(cumulative.len() - 1);
        out.push(Arrival { at_us: at, class });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PointServiceModel {
        // 70 % exit-1 at 300 µs, 20 % exit-2 at 600 µs, 10 % final at
        // 1000 µs.
        PointServiceModel::new(&[0.7, 0.2, 0.1], vec![300, 600, 1000], 42)
    }

    fn config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            ..ServeConfig::paper_default()
        }
    }

    #[test]
    fn conservation_and_determinism() {
        let arrivals = generate_arrivals(ArrivalPattern::Burst { burst_x: 6.0 }, 4000.0, 2.0, &[0.3, 0.7], 7);
        assert!(arrivals.len() > 1000);
        let m = model();
        let a = ServeSim::run(config(), &m, &arrivals);
        let b = ServeSim::run(config(), &m, &arrivals);
        assert!(a.conservation_holds(), "offered {} != accounted", a.offered);
        assert_eq!(a.residual, 0, "virtual sim drains its queues");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same trace, same config → byte-identical report"
        );
    }

    #[test]
    fn worker_model_scales_throughput() {
        let arrivals = generate_arrivals(ArrivalPattern::Steady, 6000.0, 1.0, &[1.0], 3);
        let m = model();
        let r1 = ServeSim::run(ServeConfig { workers: 1, ..config() }, &m, &arrivals);
        let r4 = ServeSim::run(ServeConfig { workers: 4, ..config() }, &m, &arrivals);
        assert!(
            r4.horizon_us < r1.horizon_us,
            "4 lanes should finish sooner: {} vs {}",
            r4.horizon_us,
            r1.horizon_us
        );
    }

    #[test]
    fn bounded_queues_drop_with_accounting() {
        let mut cfg = config();
        for c in &mut cfg.classes {
            c.queue_capacity = 4;
        }
        // Overload far beyond service capacity.
        let arrivals = generate_arrivals(ArrivalPattern::Steady, 50_000.0, 0.5, &[0.5, 0.5], 11);
        let m = model();
        let r = ServeSim::run(cfg, &m, &arrivals);
        assert!(r.dropped_full > 0, "overload must hit the bounded queues");
        assert!(r.conservation_holds());
        for c in &r.per_class {
            assert!(c.queue_high_water <= 4, "{}: high water {}", c.name, c.queue_high_water);
        }
    }

    #[test]
    fn exit_aware_beats_fifo_goodput_under_burst() {
        let arrivals =
            generate_arrivals(ArrivalPattern::Burst { burst_x: 8.0 }, 3000.0, 2.0, &[0.3, 0.7], 5);
        let m = model();
        let fifo = ServeSim::run(
            ServeConfig { admission: AdmissionPolicy::Fifo, ..config() },
            &m,
            &arrivals,
        );
        let aware = ServeSim::run(
            ServeConfig { admission: AdmissionPolicy::ExitAware, ..config() },
            &m,
            &arrivals,
        );
        assert!(
            aware.completed_in_budget > fifo.completed_in_budget,
            "exit-aware {} vs fifo {} in-budget completions",
            aware.completed_in_budget,
            fifo.completed_in_budget
        );
    }

    #[test]
    fn empty_run_is_option_safe() {
        let r = ServeSim::run(config(), &model(), &[]);
        assert_eq!(r.offered, 0);
        assert_eq!(r.throughput_rps(), None);
        assert_eq!(r.goodput_rps(), None);
        assert_eq!(r.mean_batch_fill(), None);
        for c in &r.per_class {
            assert_eq!(c.p50_us(), None);
            assert_eq!(c.p99_us(), None);
            assert_eq!(c.mean_latency_us(), None);
        }
    }

    #[test]
    fn histogram_quantiles_bracket_values() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((400..=512).contains(&p50), "p50 {p50}");
        assert!((900..=1000).contains(&p99), "p99 {p99}");
        assert!(h.quantile(0.0).unwrap() <= p50);
    }

    #[test]
    fn point_model_fractions_are_respected() {
        let m = model();
        let mut counts = [0usize; 3];
        for id in 0..100_000u64 {
            counts[m.exit_of(id)] += 1;
        }
        let f1 = counts[0] as f64 / 1e5;
        assert!((f1 - 0.7).abs() < 0.01, "exit-1 fraction {f1}");
    }
}
