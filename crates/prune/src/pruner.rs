use crate::constraint::{dataflow_aware_keep_count, ConstraintMap};
use crate::ranking::rank_filters_l1;
use crate::surgery::{prune_batchnorm, prune_conv_inputs, prune_conv_outputs, prune_linear_inputs};
use adapex_nn::layers::Layer;
use adapex_nn::network::{EarlyExitNetwork, ExitBranch};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What to prune and how much.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruneConfig {
    /// Requested pruning rate in `[0, 1]` (fraction of filters removed
    /// from every conv; the dataflow constraints may round it down
    /// per layer).
    pub rate: f64,
    /// Whether exit-branch convs are pruned too — the paper's `pruned`
    /// flag (Sec. IV-A2). `false` keeps exits at full capacity.
    pub prune_exits: bool,
}

/// Which convolution a pruning record refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvSite {
    /// Backbone conv at this backbone layer index.
    Backbone(usize),
    /// The conv of this exit (ordinal in attachment order).
    Exit(usize),
}

/// One convolution's pruning outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerPruneRecord {
    /// Which conv.
    pub site: ConvSite,
    /// Filters before pruning.
    pub original: usize,
    /// Filters kept (constraint-adjusted).
    pub kept: usize,
}

impl LayerPruneRecord {
    /// Achieved pruning rate at this conv.
    pub fn achieved_rate(&self) -> f64 {
        1.0 - self.kept as f64 / self.original as f64
    }
}

/// Outcome of pruning a whole network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PruneReport {
    /// Requested rate.
    pub requested_rate: f64,
    /// Per-conv outcomes.
    pub records: Vec<LayerPruneRecord>,
}

impl PruneReport {
    /// Filter-weighted achieved pruning rate over every pruned conv.
    pub fn overall_rate(&self) -> f64 {
        let original: usize = self.records.iter().map(|r| r.original).sum();
        let kept: usize = self.records.iter().map(|r| r.kept).sum();
        if original == 0 {
            0.0
        } else {
            1.0 - kept as f64 / original as f64
        }
    }
}

/// Dataflow-aware ℓ1 filter pruner (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pruner {
    config: PruneConfig,
}

impl Pruner {
    /// New pruner.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn new(config: PruneConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.rate),
            "pruning rate must be in [0, 1]"
        );
        Pruner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> PruneConfig {
        self.config
    }

    /// Prunes `net` (non-destructively), returning the pruned network and
    /// a per-layer report. Filters are ranked on the input network's
    /// full-precision weights; the caller is expected to retrain the
    /// result (the paper retrains for 40 epochs).
    ///
    /// # Panics
    ///
    /// Panics if the network shape is unsupported (an exit whose first
    /// layer is not a conv, or a dangling channel-keep propagation).
    pub fn prune(&self, net: &EarlyExitNetwork, constraints: &ConstraintMap) -> (EarlyExitNetwork, PruneReport) {
        let mut out = net.clone();
        let mut records = Vec::new();

        // Phase 1: decide keep sets from the *original* trained weights.
        let mut backbone_plan: HashMap<usize, Vec<usize>> = HashMap::new();
        for (j, layer) in net.backbone.iter().enumerate() {
            if let Layer::Conv(c) = layer {
                let keep_count =
                    dataflow_aware_keep_count(c.c_out, self.config.rate, constraints.for_backbone(j));
                let keep = rank_filters_l1(c, keep_count);
                records.push(LayerPruneRecord {
                    site: ConvSite::Backbone(j),
                    original: c.c_out,
                    kept: keep.len(),
                });
                backbone_plan.insert(j, keep);
            }
        }
        let mut exit_plan: HashMap<usize, Vec<usize>> = HashMap::new();
        if self.config.prune_exits {
            for (e, exit) in net.exits.iter().enumerate() {
                let Some(Layer::Conv(c)) = exit.layers.first() else {
                    panic!("exit {e} must start with a conv layer");
                };
                let keep_count =
                    dataflow_aware_keep_count(c.c_out, self.config.rate, constraints.for_exit(e));
                let keep = rank_filters_l1(c, keep_count);
                records.push(LayerPruneRecord {
                    site: ConvSite::Exit(e),
                    original: c.c_out,
                    kept: keep.len(),
                });
                exit_plan.insert(e, keep);
            }
        }

        // Phase 2: apply the surgeries in one forward sweep, propagating
        // each conv's keep set to its consumers (BatchNorm channels, the
        // next conv's input channels or the next linear's input features,
        // and the input of every exit branching off in between).
        let mut dims = out.input_dims.clone();
        let mut pending: Option<Vec<usize>> = None;
        let mut flat_spatial = 1usize;
        let backbone_len = out.backbone.len();
        for j in 0..backbone_len {
            if pending.is_some() {
                if let Layer::Flatten = out.backbone[j] {
                    // dims entering a flatten are [c, h, w].
                    flat_spatial = dims[1] * dims[2];
                }
            }
            if let Some(keep) = pending.clone() {
                match &mut out.backbone[j] {
                    Layer::Conv(c) => {
                        prune_conv_inputs(c, &keep);
                        pending = None;
                    }
                    Layer::Linear(l) => {
                        prune_linear_inputs(l, &keep, flat_spatial);
                        pending = None;
                    }
                    Layer::Norm(b) => prune_batchnorm(b, &keep),
                    Layer::Pool(_) | Layer::Act(_) | Layer::Flatten => {}
                }
            }
            if let Some(keep) = backbone_plan.get(&j) {
                if let Layer::Conv(c) = &mut out.backbone[j] {
                    if keep.len() < c.c_out {
                        prune_conv_outputs(c, keep);
                        pending = Some(keep.clone());
                    }
                }
            }
            dims = out.backbone[j].out_dims(&dims);

            // Exits whose junction is the output of layer j.
            for e in 0..out.exits.len() {
                if out.exits[e].attach_after != j {
                    continue;
                }
                if let Some(keep) = &pending {
                    match out.exits[e].layers.first_mut() {
                        Some(Layer::Conv(c)) => prune_conv_inputs(c, keep),
                        _ => panic!("exit {e} must start with a conv layer"),
                    }
                }
                if let Some(keep_e) = exit_plan.get(&e) {
                    let attach_dims = dims.clone();
                    prune_exit_branch(&mut out.exits[e], keep_e, &attach_dims);
                }
            }
        }
        assert!(
            pending.is_none(),
            "channel-keep propagation was never consumed; unsupported topology"
        );

        (
            out,
            PruneReport {
                requested_rate: self.config.rate,
                records,
            },
        )
    }
}

/// Prunes one exit's conv filters and propagates within the branch.
fn prune_exit_branch(exit: &mut ExitBranch, keep: &[usize], attach_dims: &[usize]) {
    let mut dims = attach_dims.to_vec();
    let mut pending: Option<Vec<usize>> = None;
    let mut flat_spatial = 1usize;
    for i in 0..exit.layers.len() {
        if pending.is_some() {
            if let Layer::Flatten = exit.layers[i] {
                flat_spatial = dims[1] * dims[2];
            }
        }
        if let Some(k) = pending.clone() {
            match &mut exit.layers[i] {
                Layer::Conv(c) => {
                    prune_conv_inputs(c, &k);
                    pending = None;
                }
                Layer::Linear(l) => {
                    prune_linear_inputs(l, &k, flat_spatial);
                    pending = None;
                }
                Layer::Norm(b) => prune_batchnorm(b, &k),
                Layer::Pool(_) | Layer::Act(_) | Layer::Flatten => {}
            }
        }
        if i == 0 {
            if let Layer::Conv(c) = &mut exit.layers[0] {
                if keep.len() < c.c_out {
                    prune_conv_outputs(c, keep);
                    pending = Some(keep.to_vec());
                }
            }
        }
        dims = exit.layers[i].out_dims(&dims);
    }
    assert!(
        pending.is_none(),
        "exit channel-keep propagation was never consumed"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_nn::cnv::{CnvConfig, ExitsConfig};
    use adapex_nn::layers::Activation;

    fn count_params(net: &mut EarlyExitNetwork) -> usize {
        net.param_count()
    }

    fn conv_out_channels(net: &EarlyExitNetwork) -> Vec<usize> {
        net.backbone
            .iter()
            .filter_map(|l| match l {
                Layer::Conv(c) => Some(c.c_out),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn zero_rate_is_identity() {
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let pruner = Pruner::new(PruneConfig {
            rate: 0.0,
            prune_exits: true,
        });
        let (mut pruned, report) = pruner.prune(&net, &ConstraintMap::uniform(2, 2));
        assert_eq!(report.overall_rate(), 0.0);
        assert_eq!(count_params(&mut pruned), count_params(&mut net.clone()));
    }

    #[test]
    fn pruned_network_still_runs_and_matches_shapes() {
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
        for rate in [0.25, 0.5, 0.85] {
            let pruner = Pruner::new(PruneConfig {
                rate,
                prune_exits: false,
            });
            let (mut pruned, _) = pruner.prune(&net, &ConstraintMap::uniform(2, 2));
            let x = Activation::zeros(2, &[3, 32, 32]);
            let outs = pruned.forward(&x, false);
            assert_eq!(outs.len(), 3);
            for o in &outs {
                assert_eq!(o.dims, vec![10], "rate {rate}");
            }
        }
    }

    /// A pruned copy quantizes its own, pruned weights. Surgery gives
    /// every pruned layer fresh [`adapex_nn::layers::Param`]s at the
    /// version a freshly built net's weights have, so a quantized view
    /// that came along with the copy from an evaluated fresh net would
    /// pass for current; a clone carries no such view.
    #[test]
    fn pruning_an_evaluated_net_requantizes_the_copy() {
        let mut net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let x = Activation::new(
            (0..2 * 3 * 32 * 32).map(|v| (v as f32 * 0.01).sin()).collect(),
            2,
            vec![3, 32, 32],
        );
        net.forward(&x, false);
        let (mut pruned, _) = Pruner::new(PruneConfig {
            rate: 0.5,
            prune_exits: true,
        })
        .prune(&net, &ConstraintMap::uniform(2, 2));
        // Touching every param forces a fresh quantized view.
        let mut reference = pruned.clone();
        reference.for_each_param(|p| p.touch());
        assert_eq!(pruned.forward(&x, false), reference.forward(&x, false));
    }

    #[test]
    fn pruned_network_trains() {
        // Backward must work on the re-stitched structure too.
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let (mut pruned, _) = Pruner::new(PruneConfig {
            rate: 0.5,
            prune_exits: true,
        })
        .prune(&net, &ConstraintMap::uniform(2, 2));
        let x = Activation::new(
            (0..2 * 3 * 32 * 32).map(|v| (v as f32 * 0.01).sin()).collect(),
            2,
            vec![3, 32, 32],
        );
        let outs = pruned.forward(&x, true);
        let grads: Vec<Activation> = outs
            .iter()
            .map(|o| Activation::new(vec![0.1; o.data.len()], o.n, o.dims.clone()))
            .collect();
        pruned.zero_grad();
        pruned.backward(&grads);
    }

    #[test]
    fn higher_rate_removes_more_parameters() {
        let net = CnvConfig::tiny().build(10, 1);
        let params_at = |rate: f64| {
            let (mut p, _) = Pruner::new(PruneConfig {
                rate,
                prune_exits: false,
            })
            .prune(&net, &ConstraintMap::uniform(2, 2));
            count_params(&mut p)
        };
        let p0 = params_at(0.0);
        let p4 = params_at(0.4);
        let p8 = params_at(0.8);
        assert!(p0 > p4 && p4 > p8, "{p0} > {p4} > {p8} expected");
    }

    #[test]
    fn constraints_hold_on_every_pruned_conv() {
        let net = CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let constraints = ConstraintMap::uniform(4, 8);
        let (pruned, report) = Pruner::new(PruneConfig {
            rate: 0.55,
            prune_exits: true,
        })
        .prune(&net, &constraints);
        for ch in conv_out_channels(&pruned) {
            assert_eq!(ch % 4, 0, "PE must divide kept filters");
            assert_eq!(ch % 8, 0, "next-layer SIMD must divide kept filters");
        }
        // Achieved rate never exceeds requested at any conv.
        for r in &report.records {
            assert!(r.achieved_rate() <= 0.55 + 1e-9, "{r:?}");
        }
    }

    #[test]
    fn unpruned_exits_keep_their_capacity() {
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let exit_c_out = |n: &EarlyExitNetwork, e: usize| match &n.exits[e].layers[0] {
            Layer::Conv(c) => c.c_out,
            _ => unreachable!(),
        };
        let (pruned, _) = Pruner::new(PruneConfig {
            rate: 0.75,
            prune_exits: false,
        })
        .prune(&net, &ConstraintMap::uniform(2, 2));
        assert_eq!(exit_c_out(&pruned, 0), exit_c_out(&net, 0));
        assert_eq!(exit_c_out(&pruned, 1), exit_c_out(&net, 1));
        // But their input channels track the pruned backbone.
        let exit_c_in = |n: &EarlyExitNetwork, e: usize| match &n.exits[e].layers[0] {
            Layer::Conv(c) => c.c_in,
            _ => unreachable!(),
        };
        assert!(exit_c_in(&pruned, 0) < exit_c_in(&net, 0));
    }

    #[test]
    fn pruned_exits_shrink_when_flagged() {
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let (pruned, report) = Pruner::new(PruneConfig {
            rate: 0.5,
            prune_exits: true,
        })
        .prune(&net, &ConstraintMap::uniform(2, 2));
        match &pruned.exits[0].layers[0] {
            Layer::Conv(c) => assert!(c.c_out < 4),
            _ => unreachable!(),
        }
        assert!(report
            .records
            .iter()
            .any(|r| matches!(r.site, ConvSite::Exit(_))));
    }

    #[test]
    fn plain_backbone_prunes_without_exits() {
        let net = CnvConfig::tiny().build(10, 2);
        let (mut pruned, report) = Pruner::new(PruneConfig {
            rate: 0.5,
            prune_exits: false,
        })
        .prune(&net, &ConstraintMap::uniform(2, 2));
        assert!(report.overall_rate() > 0.3);
        let x = Activation::zeros(1, &[3, 32, 32]);
        let outs = pruned.forward(&x, false);
        assert_eq!(outs[0].dims, vec![10]);
    }

    #[test]
    #[should_panic(expected = "pruning rate must be in [0, 1]")]
    fn rejects_bad_rate() {
        Pruner::new(PruneConfig {
            rate: 1.5,
            prune_exits: false,
        });
    }
}
