//! The reconfiguration-downtime machine both edge-server twins share
//! (DESIGN.md §12 has the transition table).
//!
//! A full reconfiguration withholds service from the monitor decision
//! that starts it until its settle event. A decision *during* a
//! downtime appends its length to the pending settle — the FPGA loads
//! one bitstream at a time — and thereby supersedes the settle event
//! already queued, which is ignored when it pops. The settle event that
//! is still the pending one ends the downtime and tells the manager,
//! once, whether the last attempt completed or aborted.
//!
//! Times are the caller's queue keys (ticks for the frame engine, µs for
//! the serve twin) and saturate: a downtime too long for the key space
//! settles at `u64::MAX`, which neither twin's run loop reaches.

use adapex::runtime::RuntimeManager;

/// Reconfiguration-downtime state of one edge server.
#[derive(Debug, Default)]
pub(crate) struct Downtime {
    /// Key the current downtime began at.
    since: Option<u64>,
    /// Key of the settle event that ends it.
    settle_at: Option<u64>,
    /// The attempt settling last aborts (old bitstream stays loaded).
    aborting: bool,
}

impl Downtime {
    /// Key the current downtime began at; `None` while the FPGA is up.
    pub fn since(&self) -> Option<u64> {
        self.since
    }

    /// Begins a reconfiguration of `length` at `now`, or extends the
    /// pending one by `length`; returns the key to schedule the settle
    /// event at.
    pub fn begin(&mut self, now: u64, length: u64, aborted: bool) -> u64 {
        let settle = self.settle_at.unwrap_or(now).saturating_add(length);
        self.since.get_or_insert(now);
        self.settle_at = Some(settle);
        self.aborting = aborted;
        settle
    }

    /// Handles the settle event popped at `now`: `None` when a later
    /// decision superseded it, otherwise the downtime ends, `manager`
    /// hears its outcome and the key it began at is returned.
    pub fn settle(&mut self, now: u64, manager: &mut RuntimeManager) -> Option<u64> {
        if self.settle_at != Some(now) {
            return None;
        }
        self.settle_at = None;
        manager.settle(std::mem::take(&mut self.aborting));
        self.since.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex::library::{Library, LibraryEntry, OperatingPoint};
    use adapex::runtime::SelectionPolicy;
    use finn_dataflow::ResourceUsage;

    /// Two entries: an accurate one at 500 IPS and a fast one at 2000,
    /// so a load of 100 selects entry 0 and a load of 1000 entry 1.
    fn manager() -> RuntimeManager {
        let entry = |id: usize, accuracy: f64, ips: f64| LibraryEntry {
            id,
            pruning_rate: 0.5 * id as f64,
            achieved_rate: 0.5 * id as f64,
            prune_exits: false,
            mean_exit_accuracy: accuracy,
            final_exit_accuracy: accuracy,
            resources: ResourceUsage::zero(),
            exit_resources: ResourceUsage::zero(),
            utilization: (0.1, 0.1, 0.1, 0.0),
            static_ips: ips,
            latency_to_exit_ms: vec![1.0],
            points: vec![OperatingPoint {
                confidence_threshold: 1.0,
                accuracy,
                exit_fractions: vec![1.0],
                ips,
                avg_latency_ms: 1.0,
                power_w: 1.2,
                energy_per_inference_mj: 1.2,
            }],
        };
        let library = Library { entries: vec![entry(0, 0.9, 500.0), entry(1, 0.8, 2_000.0)] };
        RuntimeManager::new(library, 0.0, SelectionPolicy::Oblivious)
    }

    /// The same decisions through the machine in ticks (1 ms) and in
    /// µs: begin, extend, superseded event, abort, complete, saturate —
    /// and the manager's selection after each settle, which the
    /// manager's own tests cannot reach through `Downtime`.
    #[test]
    fn both_twins_key_units_settle_at_the_same_instant() {
        #[derive(Clone, Copy)]
        enum Step {
            /// Decision at `ms` under `load` (it must reconfigure) with a
            /// downtime of `len_ms`; expects the settle at `settle_ms`
            /// (`None`: saturated).
            Begin { ms: u64, load: f64, len_ms: u64, aborted: bool, settle_ms: Option<u64> },
            /// Settle event at `ms`; expects the downtime that began at
            /// `since_ms` to end, or the event to be ignored.
            Settle { ms: u64, since_ms: Option<u64> },
        }
        use Step::*;
        let table = [
            // 1.5 s reconfig decided at 2.0 s, again (back) at 3.0 s.
            Begin { ms: 2_000, load: 1_000.0, len_ms: 1_500, aborted: false, settle_ms: Some(3_500) },
            Begin { ms: 3_000, load: 100.0, len_ms: 1_500, aborted: false, settle_ms: Some(5_000) },
            Settle { ms: 3_500, since_ms: None }, // superseded
            Settle { ms: 5_000, since_ms: Some(2_000) },
            Settle { ms: 5_000, since_ms: None }, // nothing pending
            // An aborted attempt: one failure reported, at its settle.
            Begin { ms: 7_000, load: 1_000.0, len_ms: 100, aborted: true, settle_ms: Some(7_100) },
            Settle { ms: 7_100, since_ms: Some(7_000) },
            // Too long for the key space: pinned at the last key.
            Begin { ms: 9_000, load: 1_000.0, len_ms: u64::MAX, aborted: false, settle_ms: None },
            Begin { ms: 9_500, load: 100.0, len_ms: 100, aborted: true, settle_ms: None },
        ];
        for per_ms in [1u64, 1_000] {
            let key = |ms: u64| ms.saturating_mul(per_ms);
            let mut manager = manager();
            manager.decide(100.0);
            let mut downtime = Downtime::default();
            let mut failures = 0;
            // What the manager must select once the pending downtime
            // settles: the newest attempt's target, or — aborted — the
            // point that attempt left.
            let mut settled_at = manager.current();
            for step in table {
                match step {
                    Begin { ms, load, len_ms, aborted, settle_ms } => {
                        let pre_reconfig = manager.current();
                        assert!(manager.decide(load).reconfig, "decision at {ms} ms");
                        settled_at = if aborted { pre_reconfig } else { manager.current() };
                        let settle = downtime.begin(key(ms), key(len_ms), aborted);
                        assert_eq!(settle, settle_ms.map_or(u64::MAX, key), "begin at {ms} ms");
                        assert!(downtime.since().is_some());
                    }
                    Settle { ms, since_ms } => {
                        let (before, aborting) = (downtime.since(), downtime.aborting);
                        let selected = manager.current();
                        let ended = downtime.settle(key(ms), &mut manager);
                        assert_eq!(ended, since_ms.map(key), "settle at {ms} ms");
                        failures += usize::from(ended.is_some() && aborting);
                        // An ignored event leaves service withheld and
                        // the selection alone.
                        assert_eq!(downtime.since(), before.filter(|_| ended.is_none()));
                        let expected = if ended.is_some() { settled_at } else { selected };
                        assert_eq!(manager.current(), expected, "selection after the settle at {ms} ms");
                    }
                }
                assert_eq!(manager.failed_reconfig_count, failures, "one report per downtime");
            }
            assert_eq!(failures, 1);
            assert_eq!(downtime.since(), Some(key(9_000)), "a saturated downtime never ends");
        }
    }
}
