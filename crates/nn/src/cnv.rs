//! The CNV topology (FINN's VGG-like CNN) with configurable width and the
//! paper's early-exit placement.
//!
//! Full CNV is `2x(conv-BN-act) pool` twice, `2x(conv-BN-act)`, then three
//! FC layers, with 64/128/256 conv channels and 512-wide FCs. The
//! reproduction keeps the exact block structure but scales all channel
//! counts by a **width multiplier** so CPU training stays tractable
//! (DESIGN.md §1). `CnvConfig { width: 64 }` is bit-for-bit the paper's
//! CNVW2A2 topology.

use crate::layers::LayerSpec;
use crate::network::{EarlyExitNetwork, ExitBranch, NetworkSummary};
use crate::quant::QuantSpec;
use adapex_tensor::conv::ConvGeometry;
use adapex_tensor::rng::rng_from_seed;
use serde::{Deserialize, Serialize};

/// Per-sample input shape: 32x32 RGB images.
const INPUT_DIMS: [usize; 3] = [3, 32, 32];

/// Width/precision configuration of a CNV instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CnvConfig {
    /// Channel multiplier: conv blocks get `w, w, 2w, 2w, 4w, 4w`
    /// channels and FCs are `8w` wide. Full CNV is `width = 64`.
    pub width: usize,
    /// Weight bit width (2 for CNVW2A2).
    pub weight_bits: u32,
    /// Activation bit width (2 for CNVW2A2).
    pub act_bits: u32,
}

impl CnvConfig {
    /// The paper's full CNVW2A2 (64/128/256 channels, 512-wide FCs).
    pub fn cnv_w2a2() -> Self {
        CnvConfig {
            width: 64,
            weight_bits: 2,
            act_bits: 2,
        }
    }

    /// Width-scaled CNVW2A2.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn scaled(width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        CnvConfig {
            width,
            weight_bits: 2,
            act_bits: 2,
        }
    }

    /// The reproduction's default training scale (width 16).
    pub fn repro_default() -> Self {
        CnvConfig::scaled(16)
    }

    /// Minimal scale for unit tests (width 4).
    pub fn tiny() -> Self {
        CnvConfig::scaled(4)
    }

    /// Conv-block output channel counts `[w, w, 2w, 2w, 4w, 4w]`.
    pub fn conv_channels(&self) -> [usize; 6] {
        let w = self.width;
        [w, w, 2 * w, 2 * w, 4 * w, 4 * w]
    }

    /// FC hidden width (`8w`; 512 for full CNV).
    pub fn fc_width(&self) -> usize {
        8 * self.width
    }

    /// Builds the plain (no-early-exit) CNV backbone.
    pub fn build(&self, num_classes: usize, seed: u64) -> EarlyExitNetwork {
        self.instantiate(num_classes, None, seed)
    }

    /// Builds CNV with early exits attached per `exits`.
    ///
    /// # Panics
    ///
    /// Panics if `exits.after_blocks` names a block other than 1 or 2
    /// (block 3's 1x1 maps cannot host the paper's 3x3 exit conv).
    pub fn build_early_exit(
        &self,
        num_classes: usize,
        exits: &ExitsConfig,
        seed: u64,
    ) -> EarlyExitNetwork {
        self.instantiate(num_classes, Some(exits), seed)
    }

    /// The structural summary `build*(…).summarize()` would return
    /// (`exits = None` for [`CnvConfig::build`]), derived from the layer
    /// table without instantiating a layer or drawing a weight.
    ///
    /// # Panics
    ///
    /// Panics on the exit blocks [`CnvConfig::build_early_exit`] rejects.
    pub fn summary(&self, num_classes: usize, exits: Option<&ExitsConfig>) -> NetworkSummary {
        let (backbone, branches) = self.table(num_classes, exits);
        NetworkSummary::from_specs(&backbone, &branches, INPUT_DIMS.to_vec(), num_classes)
    }

    /// Instantiates the layer table. Weights are drawn from one stream
    /// seeded by `seed`: backbone first, then the exits in
    /// `after_blocks` order.
    fn instantiate(
        &self,
        num_classes: usize,
        exits: Option<&ExitsConfig>,
        seed: u64,
    ) -> EarlyExitNetwork {
        let mut rng = rng_from_seed(seed);
        let (backbone, branches) = self.table(num_classes, exits);
        let backbone = backbone.iter().map(|l| l.instantiate(&mut rng)).collect();
        let mut branches: Vec<ExitBranch> = branches
            .into_iter()
            .map(|(attach_after, layers)| ExitBranch {
                attach_after,
                layers: layers.iter().map(|l| l.instantiate(&mut rng)).collect(),
            })
            .collect();
        branches.sort_by_key(|b| b.attach_after);
        EarlyExitNetwork::new(backbone, branches, INPUT_DIMS.to_vec(), num_classes)
    }

    /// The topology, written once: the backbone's layers and, per entry
    /// of `exits.after_blocks` (in that order), an exit's attachment
    /// index and layers.
    fn table(
        &self,
        num_classes: usize,
        exits: Option<&ExitsConfig>,
    ) -> (Vec<LayerSpec>, Vec<(usize, Vec<LayerSpec>)>) {
        let branches = exits
            .map(|e| {
                e.after_blocks
                    .iter()
                    .map(|&b| self.exit_table(b, num_classes))
                    .collect()
            })
            .unwrap_or_default();
        (self.backbone_table(num_classes), branches)
    }

    fn conv(&self, c_in: usize, c_out: usize) -> LayerSpec {
        LayerSpec::Conv {
            c_in,
            c_out,
            geom: ConvGeometry::new(3), // CNV uses unpadded 3x3 convs
            weight_spec: QuantSpec::signed(self.weight_bits),
        }
    }

    fn linear(&self, in_features: usize, out_features: usize) -> LayerSpec {
        LayerSpec::Linear {
            in_features,
            out_features,
            weight_spec: QuantSpec::signed(self.weight_bits),
        }
    }

    fn act(&self) -> LayerSpec {
        LayerSpec::Act {
            spec: QuantSpec::unsigned(self.act_bits),
            clip: 2.0,
        }
    }

    /// Backbone layers. Indices (documented because exits attach by
    /// index): conv activations after conv2 and conv4 sit at 5 and 12.
    fn backbone_table(&self, num_classes: usize) -> Vec<LayerSpec> {
        let ch = self.conv_channels();
        let fc = self.fc_width();
        let conv_block = |cin: usize, cout: usize| {
            [self.conv(cin, cout), LayerSpec::Norm { channels: cout }, self.act()]
        };
        let pool = LayerSpec::Pool { kernel: 2 };
        let fc_block = |fin: usize| {
            [self.linear(fin, fc), LayerSpec::Norm { channels: fc }, self.act()]
        };
        [
            // Block 1: 32 -> 30 -> 28 -> pool -> 14
            &conv_block(3, ch[0])[..],
            &conv_block(ch[0], ch[1]),
            &[pool],
            // Block 2: 14 -> 12 -> 10 -> pool -> 5
            &conv_block(ch[1], ch[2]),
            &conv_block(ch[2], ch[3]),
            &[pool],
            // Block 3: 5 -> 3 -> 1
            &conv_block(ch[3], ch[4]),
            &conv_block(ch[4], ch[5]),
            // Classifier.
            &[LayerSpec::Flatten],
            &fc_block(ch[5]),
            &fc_block(fc),
            &[self.linear(fc, num_classes)],
        ]
        .concat()
    }

    /// One exit branch per the paper's recipe (Sec. IV-A1): a conv with
    /// the host block's configuration, a `k = ⌊DIM/2⌋` max-pool that
    /// shrinks the map to 2x2 (making FPGA synthesis of the following FCs
    /// feasible), then two FC layers configured like CNV's own.
    fn exit_table(&self, block: usize, num_classes: usize) -> (usize, Vec<LayerSpec>) {
        let ch = self.conv_channels();
        let fc = self.fc_width();
        // (attach index, channels, conv output DIM) per host block; see
        // backbone_table for the index layout.
        let (attach_after, c, dim_after_conv) = match block {
            1 => (5usize, ch[1], 26usize),  // 28x28 map -> conv -> 26
            2 => (12, ch[3], 8),            // 10x10 map -> conv -> 8
            other => panic!("exits are supported after blocks 1 and 2, not {other}"),
        };
        let layers = vec![
            self.conv(c, c),
            LayerSpec::Norm { channels: c },
            self.act(),
            // paper: k = floor(DIM/2) -> 2x2 map
            LayerSpec::Pool { kernel: dim_after_conv / 2 },
            LayerSpec::Flatten,
            self.linear(c * 2 * 2, fc),
            LayerSpec::Norm { channels: fc },
            self.act(),
            self.linear(fc, num_classes),
        ];
        (attach_after, layers)
    }
}

/// Where and how early exits attach — the paper's "Exits Configuration"
/// input to the library generator (Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitsConfig {
    /// Host blocks (1-based). The paper's case study uses `[1, 2]`.
    pub after_blocks: Vec<usize>,
    /// Joint-loss weight of the first exit (paper: 1.0).
    pub first_exit_weight: f32,
    /// Joint-loss weight of every later exit including the final one
    /// (paper: 0.3).
    pub other_exit_weight: f32,
    /// Whether dataflow-aware pruning should also prune the exits' conv
    /// layers — the paper's `pruned` flag (Sec. IV-A2).
    pub prune_exits: bool,
}

impl ExitsConfig {
    /// The paper's case-study configuration: exits after blocks 1 and 2,
    /// loss weights 1.0/0.3, exits not pruned.
    pub fn paper_default() -> Self {
        ExitsConfig {
            after_blocks: vec![1, 2],
            first_exit_weight: 1.0,
            other_exit_weight: 0.3,
            prune_exits: false,
        }
    }

    /// Joint-loss weights for a network with `num_exits` total exits
    /// (early + final), first exit weighted `first_exit_weight`.
    pub fn loss_weights(&self, num_exits: usize) -> Vec<f32> {
        (0..num_exits)
            .map(|i| {
                if i == 0 && num_exits > 1 {
                    self.first_exit_weight
                } else {
                    self.other_exit_weight
                }
            })
            .collect()
    }
}

impl Default for ExitsConfig {
    fn default() -> Self {
        ExitsConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;

    #[test]
    fn full_cnv_has_paper_channel_counts() {
        let cfg = CnvConfig::cnv_w2a2();
        assert_eq!(cfg.conv_channels(), [64, 64, 128, 128, 256, 256]);
        assert_eq!(cfg.fc_width(), 512);
    }

    #[test]
    fn backbone_shapes_propagate_to_logits() {
        let mut net = CnvConfig::tiny().build(10, 3);
        let x = Activation::zeros(2, &[3, 32, 32]);
        let outs = net.forward(&x, false);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].dims, vec![10]);
    }

    #[test]
    fn early_exit_build_matches_paper_layout() {
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 3);
        assert_eq!(net.num_exits(), 3);
        assert_eq!(net.exits[0].attach_after, 5);
        assert_eq!(net.exits[1].attach_after, 12);
        // Exit branch: conv, bn, act, pool, flatten, fc, bn, act, fc.
        assert_eq!(net.exits[0].layers.len(), 9);
    }

    #[test]
    fn early_exit_forward_shapes() {
        let mut net = CnvConfig::tiny().build_early_exit(43, &ExitsConfig::paper_default(), 3);
        let x = Activation::zeros(1, &[3, 32, 32]);
        let outs = net.forward(&x, false);
        assert_eq!(outs.len(), 3);
        for o in &outs {
            assert_eq!(o.dims, vec![43]);
        }
    }

    #[test]
    fn loss_weights_follow_paper() {
        let cfg = ExitsConfig::paper_default();
        assert_eq!(cfg.loss_weights(3), vec![1.0, 0.3, 0.3]);
        assert_eq!(cfg.loss_weights(1), vec![0.3]);
    }

    #[test]
    #[should_panic(expected = "exits are supported after blocks 1 and 2")]
    fn rejects_block_three_exit() {
        let cfg = ExitsConfig {
            after_blocks: vec![3],
            ..ExitsConfig::paper_default()
        };
        CnvConfig::tiny().build_early_exit(10, &cfg, 1);
    }

    #[test]
    fn seeding_reproduces_weights() {
        let mut a = CnvConfig::tiny().build(10, 9);
        let mut b = CnvConfig::tiny().build(10, 9);
        assert_eq!(a.param_count(), b.param_count());
        let x = Activation::new((0..3 * 32 * 32).map(|v| (v as f32 * 0.01).sin()).collect(), 1, vec![3, 32, 32]);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya[0].data, yb[0].data);
    }
}
