//! The early-exit network container.
//!
//! An [`EarlyExitNetwork`] is a **backbone** (the original CNN's layers)
//! plus zero or more [`ExitBranch`]es attached after chosen backbone
//! layers, exactly as the paper sketches in Fig. 2/3. Forward passes
//! produce one logit vector per exit (early exits first, final backbone
//! exit last); the backward pass merges branch gradients back into the
//! backbone at their junctions, implementing the joint-loss training of
//! Sec. IV-A1.

use crate::layers::{Activation, Layer, LayerSpec, Param};
pub use crate::layers::LayerInfo;
use serde::{Deserialize, Serialize};

/// A side branch that turns an intermediate feature map into logits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitBranch {
    /// Index of the backbone layer whose *output* feeds this exit.
    pub attach_after: usize,
    /// The exit's own layers (conv + pool + FCs in the paper's setup).
    pub layers: Vec<Layer>,
}

/// A CNN backbone with early-exit branches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyExitNetwork {
    /// Backbone layers, in execution order. The final backbone layer
    /// produces the last exit's logits.
    pub backbone: Vec<Layer>,
    /// Early-exit branches, sorted by `attach_after`.
    pub exits: Vec<ExitBranch>,
    /// Per-sample input shape, e.g. `[3, 32, 32]`.
    pub input_dims: Vec<usize>,
    /// Number of classes every exit predicts.
    pub num_classes: usize,
}

/// Structural summary handed to the FPGA compiler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSummary {
    /// Backbone layer descriptions in execution order.
    pub backbone: Vec<LayerInfo>,
    /// For each early exit: the backbone layer index it attaches after and
    /// its own layer descriptions.
    pub exits: Vec<(usize, Vec<LayerInfo>)>,
    /// Per-sample input shape.
    pub input_dims: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl EarlyExitNetwork {
    /// Creates a network, validating exit attachment points.
    ///
    /// # Panics
    ///
    /// Panics if an exit attaches past the end of the backbone or exits
    /// are not sorted by attachment point.
    pub fn new(
        backbone: Vec<Layer>,
        exits: Vec<ExitBranch>,
        input_dims: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        for e in &exits {
            assert!(
                e.attach_after < backbone.len(),
                "exit attaches after layer {} but backbone has {} layers",
                e.attach_after,
                backbone.len()
            );
        }
        assert!(
            exits.windows(2).all(|w| w[0].attach_after <= w[1].attach_after),
            "exits must be sorted by attachment point"
        );
        EarlyExitNetwork {
            backbone,
            exits,
            input_dims,
            num_classes,
        }
    }

    /// Total number of exits (early branches + the final backbone exit).
    pub fn num_exits(&self) -> usize {
        self.exits.len() + 1
    }

    /// Runs the network, returning one logit activation per exit: early
    /// exits in attachment order, then the final backbone exit.
    pub fn forward(&mut self, x: &Activation, train: bool) -> Vec<Activation> {
        let mut outputs: Vec<Option<Activation>> = vec![None; self.exits.len()];
        // Owned forward: each layer consumes its input activation, so the
        // buffers recirculate through the workspace pool (or move straight
        // into backward caches) instead of being reallocated. Exit branches
        // fork from a *clone* of layer j's output, so handing `cur` to
        // layer j+1 by value is safe.
        let mut cur = x.clone();
        for (j, layer) in self.backbone.iter_mut().enumerate() {
            cur = layer.forward_owned(cur, train);
            for (idx, exit) in self.exits.iter_mut().enumerate() {
                if exit.attach_after == j {
                    let mut branch = cur.clone();
                    for l in &mut exit.layers {
                        branch = l.forward_owned(branch, train);
                    }
                    outputs[idx] = Some(branch);
                }
            }
        }
        let mut result: Vec<Activation> = outputs
            .into_iter()
            .map(|o| o.expect("every exit attachment point is < backbone length"))
            .collect();
        result.push(cur);
        result
    }

    /// Backpropagates one gradient per exit (same order as
    /// [`EarlyExitNetwork::forward`] outputs), accumulating parameter
    /// gradients throughout the network. Nothing reads the gradient with
    /// respect to the input images, so the stem (backbone layer 0)
    /// computes its parameter gradients only.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len() != self.num_exits()` or no training-mode
    /// forward preceded this call.
    pub fn backward(&mut self, grads: &[Activation]) {
        assert_eq!(grads.len(), self.num_exits(), "one gradient per exit");
        // Gradient w.r.t. the output of the last backbone layer.
        let mut grad = grads[self.exits.len()].clone();
        for j in (0..self.backbone.len()).rev() {
            // Merge exit-branch gradients whose junction is the output of
            // layer j before stepping through layer j itself.
            for (idx, exit) in self.exits.iter_mut().enumerate() {
                if exit.attach_after == j {
                    let mut g = grads[idx].clone();
                    for l in exit.layers.iter_mut().rev() {
                        g = l.backward(&g);
                    }
                    assert_eq!(
                        g.data.len(),
                        grad.data.len(),
                        "junction gradient length at backbone layer {j}"
                    );
                    for (a, &b) in grad.data.iter_mut().zip(&g.data) {
                        *a += b;
                    }
                }
            }
            if j == 0 {
                self.backbone[0].backward_params(&grad);
            } else {
                grad = self.backbone[j].backward(&grad);
            }
        }
    }

    /// Visits every trainable parameter (backbone first, then exits).
    pub fn for_each_param(&mut self, mut f: impl FnMut(&mut Param)) {
        for layer in &mut self.backbone {
            layer.for_each_param(&mut f);
        }
        for exit in &mut self.exits {
            for layer in &mut exit.layers {
                layer.for_each_param(&mut f);
            }
        }
    }

    /// Frees every layer's backward cache; [`crate::train::Trainer::fit`]
    /// calls this when it returns, so a trained network holds its
    /// weights and no batch of training state.
    pub(crate) fn release_caches(&mut self) {
        let exits = self.exits.iter_mut().flat_map(|e| &mut e.layers);
        for layer in self.backbone.iter_mut().chain(exits) {
            layer.release_cache();
        }
    }

    /// Clears all gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.for_each_param(|p| p.zero_grad());
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.for_each_param(|p| count += p.len());
        count
    }

    /// Structural summary for the FPGA compiler: every layer's shape
    /// information, derived by propagating `input_dims`.
    ///
    /// # Panics
    ///
    /// Panics if a layer rejects the propagated shape (network is
    /// malformed).
    pub fn summarize(&self) -> NetworkSummary {
        let specs = |layers: &[Layer]| layers.iter().map(Layer::spec).collect::<Vec<_>>();
        let exits: Vec<(usize, Vec<LayerSpec>)> = self
            .exits
            .iter()
            .map(|e| (e.attach_after, specs(&e.layers)))
            .collect();
        NetworkSummary::from_specs(
            &specs(&self.backbone),
            &exits,
            self.input_dims.clone(),
            self.num_classes,
        )
    }
}

impl NetworkSummary {
    /// Summarizes a topology given as layer specs: propagates
    /// `input_dims` through the backbone, and through each exit from
    /// the output shape of the backbone layer it attaches after. `exits`
    /// are `(attach_after, layers)` pairs; the summary lists them by
    /// attachment point, ties in their given order (the order
    /// [`EarlyExitNetwork::new`] requires).
    ///
    /// # Panics
    ///
    /// Panics if a layer rejects the propagated shape (the topology is
    /// malformed).
    pub fn from_specs(
        backbone: &[LayerSpec],
        exits: &[(usize, Vec<LayerSpec>)],
        input_dims: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let mut infos = Vec::with_capacity(backbone.len());
        let mut exit_infos: Vec<(usize, Vec<LayerInfo>)> = Vec::with_capacity(exits.len());
        let mut dims = input_dims.clone();
        for (j, layer) in backbone.iter().enumerate() {
            infos.push(layer.info(&dims));
            dims = layer.out_dims(&dims);
            for (attach_after, layers) in exits {
                if *attach_after == j {
                    let mut e_dims = dims.clone();
                    let mut e_infos = Vec::with_capacity(layers.len());
                    for l in layers {
                        e_infos.push(l.info(&e_dims));
                        e_dims = l.out_dims(&e_dims);
                    }
                    exit_infos.push((j, e_infos));
                }
            }
        }
        NetworkSummary {
            backbone: infos,
            exits: exit_infos,
            input_dims,
            num_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm, MaxPool2d, QuantConv2d, QuantLinear, QuantReLU};
    use crate::quant::QuantSpec;
    use adapex_tensor::conv::ConvGeometry;
    use adapex_tensor::rng::rng_from_seed;

    fn tiny_net() -> EarlyExitNetwork {
        let mut rng = rng_from_seed(1);
        let spec = QuantSpec::signed(8);
        let backbone = vec![
            Layer::Conv(QuantConv2d::new(1, 2, ConvGeometry::new(3), spec, &mut rng)),
            Layer::Norm(BatchNorm::new(2)),
            Layer::Act(QuantReLU::a2()),
            Layer::Pool(MaxPool2d::new(2)),
            Layer::Flatten,
            Layer::Linear(QuantLinear::new(2 * 3 * 3, 4, spec, &mut rng)),
        ];
        let exit = ExitBranch {
            attach_after: 2, // after the activation, on the 2x6x6 map
            layers: vec![
                Layer::Pool(MaxPool2d::new(3)),
                Layer::Flatten,
                Layer::Linear(QuantLinear::new(2 * 2 * 2, 4, spec, &mut rng)),
            ],
        };
        EarlyExitNetwork::new(backbone, vec![exit], vec![1, 8, 8], 4)
    }

    #[test]
    fn forward_yields_one_logit_set_per_exit() {
        let mut net = tiny_net();
        let x = Activation::zeros(3, &[1, 8, 8]);
        let outs = net.forward(&x, false);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].dims, vec![4]);
        assert_eq!(outs[1].dims, vec![4]);
        assert_eq!(outs[0].n, 3);
    }

    #[test]
    fn backward_accumulates_gradients_everywhere() {
        let mut net = tiny_net();
        let x = Activation::new((0..64).map(|v| (v as f32 * 0.1).sin()).collect(), 1, vec![1, 8, 8]);
        let outs = net.forward(&x, true);
        let grads: Vec<Activation> = outs
            .iter()
            .map(|o| Activation::new(vec![0.5; o.data.len()], o.n, o.dims.clone()))
            .collect();
        net.zero_grad();
        net.backward(&grads);
        let mut nonzero = 0;
        net.for_each_param(|p| {
            if p.grad.iter().any(|&g| g != 0.0) {
                nonzero += 1;
            }
        });
        // conv w+b, bn gamma+beta, backbone fc w+b, exit fc w+b = 8 params.
        assert!(nonzero >= 7, "only {nonzero} params received gradient");
    }

    #[test]
    fn exit_gradient_reaches_shared_backbone() {
        let mut net = tiny_net();
        let x = Activation::new((0..64).map(|v| (v as f32 * 0.3).cos()).collect(), 1, vec![1, 8, 8]);
        let outs = net.forward(&x, true);
        // Gradient only on the early exit; conv weights must still move.
        let mut grads: Vec<Activation> = outs
            .iter()
            .map(|o| Activation::zeros(o.n, &o.dims))
            .collect();
        grads[0].data.fill(1.0);
        net.zero_grad();
        net.backward(&grads);
        let conv_grad_norm = match &net.backbone[0] {
            Layer::Conv(c) => c.weight.grad.iter().map(|g| g.abs()).sum::<f32>(),
            _ => unreachable!(),
        };
        assert!(conv_grad_norm > 0.0, "exit gradient did not reach the backbone conv");
    }

    #[test]
    fn summary_walks_shapes() {
        let net = tiny_net();
        let s = net.summarize();
        assert_eq!(s.backbone.len(), 6);
        assert_eq!(s.exits.len(), 1);
        assert_eq!(s.exits[0].0, 2);
        match &s.backbone[0] {
            LayerInfo::Conv { out_hw, .. } => assert_eq!(*out_hw, (6, 6)),
            other => panic!("expected conv, got {other:?}"),
        }
        match &s.exits[0].1[0] {
            LayerInfo::MaxPool { out_hw, .. } => assert_eq!(*out_hw, (2, 2)),
            other => panic!("expected pool, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exit attaches after layer")]
    fn rejects_out_of_range_exit() {
        let mut rng = rng_from_seed(2);
        let backbone = vec![Layer::Flatten];
        let exit = ExitBranch {
            attach_after: 5,
            layers: vec![Layer::Linear(QuantLinear::new(
                4,
                2,
                QuantSpec::signed(2),
                &mut rng,
            ))],
        };
        EarlyExitNetwork::new(backbone, vec![exit], vec![4], 2);
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let mut net = tiny_net();
        let c1 = net.param_count();
        let c2 = net.param_count();
        assert_eq!(c1, c2);
        assert!(c1 > 0);
    }
}
