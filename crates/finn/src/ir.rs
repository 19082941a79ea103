//! ONNX-like intermediate representation and the streamlining pass.
//!
//! Real FINN imports a Brevitas ONNX export and runs *streamlining*
//! transformations that absorb BatchNorm and quantized activations into
//! the thresholds of the preceding matrix layer (so the FPGA executes a
//! Matrix-Vector-**Threshold** Unit rather than separate normalization
//! hardware). [`ModelIr::from_summary`] performs the same folding on the
//! training engine's structural summary.

use adapex_nn::network::{LayerInfo, NetworkSummary};
use serde::{Deserialize, Serialize};

/// Operation of one IR node (post-streamlining).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IrOp {
    /// Convolution (lowered on hardware to SWU + MVTU).
    Conv {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Square kernel.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
        /// Input feature-map height/width.
        in_hw: (usize, usize),
        /// Output feature-map height/width.
        out_hw: (usize, usize),
        /// Weight bit width.
        weight_bits: u32,
        /// Output activation bit width (from the absorbed quantizer;
        /// `None` for a raw-logit output layer).
        act_bits: Option<u32>,
        /// Whether BatchNorm/activation thresholds were absorbed.
        thresholds: bool,
    },
    /// Fully-connected layer (lowered to one MVTU).
    Fc {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Weight bit width.
        weight_bits: u32,
        /// Output activation bit width.
        act_bits: Option<u32>,
        /// Whether thresholds were absorbed.
        thresholds: bool,
    },
    /// Max pooling.
    MaxPool {
        /// Window size (stride equals window).
        kernel: usize,
        /// Channels.
        channels: usize,
        /// Input feature-map height/width.
        in_hw: (usize, usize),
        /// Output feature-map height/width.
        out_hw: (usize, usize),
    },
}

impl IrOp {
    /// Multiply-accumulate operations per inference.
    pub fn macs(&self) -> u64 {
        match self {
            IrOp::Conv {
                c_in,
                c_out,
                kernel,
                out_hw,
                ..
            } => (c_in * c_out * kernel * kernel * out_hw.0 * out_hw.1) as u64,
            IrOp::Fc {
                in_features,
                out_features,
                ..
            } => (in_features * out_features) as u64,
            IrOp::MaxPool { .. } => 0,
        }
    }

    /// Weight storage bits (0 for pooling).
    pub fn weight_storage_bits(&self) -> u64 {
        match self {
            IrOp::Conv {
                c_in,
                c_out,
                kernel,
                weight_bits,
                ..
            } => (c_in * c_out * kernel * kernel) as u64 * u64::from(*weight_bits),
            IrOp::Fc {
                in_features,
                out_features,
                weight_bits,
                ..
            } => (in_features * out_features) as u64 * u64::from(*weight_bits),
            IrOp::MaxPool { .. } => 0,
        }
    }

    /// `true` for ops that map to an MVTU (and thus take a folding entry).
    pub fn is_matrix_op(&self) -> bool {
        matches!(self, IrOp::Conv { .. } | IrOp::Fc { .. })
    }

    /// Popcount word-operations per inference when this op runs on the
    /// software int2 engine (`adapex_tensor::int2`): each output element
    /// costs 4 AND+popcount streams over `ceil(k/64)` packed words,
    /// where `k` is the reduction depth. The padding words make this an
    /// over-count of `macs() / 16` by exactly the word-granularity
    /// rounding (equality when `k % 64 == 0`); the cross-check test pins
    /// both counters so the cycle model and the engine can't silently
    /// diverge.
    ///
    /// The count covers the **direct windowed conv path** exactly as
    /// well: its gather materializes, per output pixel, the same
    /// `ceil(k/64)` plane words packing im2col columns would (window
    /// rows that fall in padding stay zero words, included in the
    /// padding-tail over-coverage above), and it then streams them
    /// through the same GEMM — so no windowed-read formula is needed.
    pub fn int2_popcount_ops(&self) -> u64 {
        match self {
            IrOp::Conv {
                c_in,
                c_out,
                kernel,
                out_hw,
                ..
            } => {
                let k = c_in * kernel * kernel;
                (4 * k.div_ceil(64) * c_out * out_hw.0 * out_hw.1) as u64
            }
            IrOp::Fc {
                in_features,
                out_features,
                ..
            } => (4 * in_features.div_ceil(64) * out_features) as u64,
            IrOp::MaxPool { .. } => 0,
        }
    }
}

/// A named IR node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IrNode {
    /// Stable name, e.g. `bb2_conv` or `exit0_fc1`.
    pub name: String,
    /// The operation.
    pub op: IrOp,
}

/// One early-exit branch in the IR.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExitIr {
    /// Index of the backbone IR node whose output feeds this exit.
    pub attach_after: usize,
    /// The branch's nodes in execution order.
    pub nodes: Vec<IrNode>,
}

/// The streamlined network graph: a backbone chain plus exit branches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelIr {
    /// Backbone nodes in execution order.
    pub backbone: Vec<IrNode>,
    /// Early-exit branches, sorted by attachment node.
    pub exits: Vec<ExitIr>,
    /// Per-sample input shape.
    pub input_dims: Vec<usize>,
    /// Classes per output vector.
    pub num_classes: usize,
}

impl ModelIr {
    /// Builds IR from a training-engine summary, running the
    /// streamlining pass (BatchNorm + QuantAct fold into the preceding
    /// matrix node's thresholds; Flatten disappears — it is free on a
    /// stream).
    ///
    /// # Panics
    ///
    /// Panics if a BatchNorm/QuantAct appears before any matrix layer
    /// (nothing to absorb it into).
    pub fn from_summary(summary: &NetworkSummary) -> Self {
        let (backbone, index_map) = streamline(&summary.backbone, "bb");
        let exits = summary
            .exits
            .iter()
            .enumerate()
            .map(|(e, (attach_layer, layers))| {
                let (nodes, _) = streamline(layers, &format!("exit{e}"));
                ExitIr {
                    attach_after: index_map[*attach_layer]
                        .expect("exit must attach after a layer that produced an IR node"),
                    nodes,
                }
            })
            .collect();
        ModelIr {
            backbone,
            exits,
            input_dims: summary.input_dims.clone(),
            num_classes: summary.num_classes,
        }
    }

    /// Total exits including the final backbone output.
    pub fn num_exits(&self) -> usize {
        self.exits.len() + 1
    }

    /// Total MACs per full-depth inference (backbone only).
    pub fn backbone_macs(&self) -> u64 {
        self.backbone.iter().map(|n| n.op.macs()).sum()
    }

    /// Total weight storage bits across backbone and exits.
    pub fn weight_storage_bits(&self) -> u64 {
        self.backbone
            .iter()
            .chain(self.exits.iter().flat_map(|e| e.nodes.iter()))
            .map(|n| n.op.weight_storage_bits())
            .sum()
    }

    /// Expected per-sample `(MACs, popcount word-ops)` from the software
    /// int2 engine's `op_counters` when a full all-exits inference runs
    /// in eval mode: every matrix node **except the first backbone node**
    /// (the stem consumes the raw, unquantized image, so it stays on the
    /// f32 path) executes on the engine. The direct windowed gather
    /// materializes `ceil(k/64)` plane words per output pixel, exactly
    /// what packing im2col columns would, so the word-granularity model
    /// needs no formula of its own (`mac_crosscheck` pins the equality).
    pub fn int2_engine_profile(&self) -> (u64, u64) {
        let mut macs = 0u64;
        let mut pops = 0u64;
        for (idx, node) in self.matrix_nodes().into_iter().enumerate() {
            if idx == 0 {
                continue;
            }
            macs += node.op.macs();
            pops += node.op.int2_popcount_ops();
        }
        (macs, pops)
    }

    /// All matrix nodes (the ones that need folding), backbone first,
    /// then exits in order, each with its stable name.
    pub fn matrix_nodes(&self) -> Vec<&IrNode> {
        self.backbone
            .iter()
            .chain(self.exits.iter().flat_map(|e| e.nodes.iter()))
            .filter(|n| n.op.is_matrix_op())
            .collect()
    }
}

/// Streamlines one layer chain; returns IR nodes plus a map from input
/// layer index to the IR node index whose output carries that layer's
/// output (used to re-anchor exit attachment points).
fn streamline(layers: &[LayerInfo], prefix: &str) -> (Vec<IrNode>, Vec<Option<usize>>) {
    let mut nodes: Vec<IrNode> = Vec::new();
    let mut index_map: Vec<Option<usize>> = Vec::with_capacity(layers.len());
    let mut matrix_count = 0usize;
    let mut pool_count = 0usize;
    for layer in layers {
        match layer {
            LayerInfo::Conv {
                c_in,
                c_out,
                kernel,
                stride,
                padding,
                in_hw,
                out_hw,
                weight_bits,
            } => {
                matrix_count += 1;
                nodes.push(IrNode {
                    name: format!("{prefix}_conv{matrix_count}"),
                    op: IrOp::Conv {
                        c_in: *c_in,
                        c_out: *c_out,
                        kernel: *kernel,
                        stride: *stride,
                        padding: *padding,
                        in_hw: *in_hw,
                        out_hw: *out_hw,
                        weight_bits: *weight_bits,
                        act_bits: None,
                        thresholds: false,
                    },
                });
            }
            LayerInfo::Linear {
                in_features,
                out_features,
                weight_bits,
            } => {
                matrix_count += 1;
                nodes.push(IrNode {
                    name: format!("{prefix}_fc{matrix_count}"),
                    op: IrOp::Fc {
                        in_features: *in_features,
                        out_features: *out_features,
                        weight_bits: *weight_bits,
                        act_bits: None,
                        thresholds: false,
                    },
                });
            }
            LayerInfo::MaxPool {
                kernel,
                channels,
                in_hw,
                out_hw,
            } => {
                pool_count += 1;
                nodes.push(IrNode {
                    name: format!("{prefix}_pool{pool_count}"),
                    op: IrOp::MaxPool {
                        kernel: *kernel,
                        channels: *channels,
                        in_hw: *in_hw,
                        out_hw: *out_hw,
                    },
                });
            }
            LayerInfo::BatchNorm { .. } => {
                absorb_threshold(&mut nodes, None);
            }
            LayerInfo::QuantAct { bits } => {
                absorb_threshold(&mut nodes, Some(*bits));
            }
            LayerInfo::Flatten => { /* free on a stream */ }
        }
        index_map.push(if nodes.is_empty() { None } else { Some(nodes.len() - 1) });
    }
    (nodes, index_map)
}

/// Marks the most recent matrix node as threshold-bearing, recording the
/// activation bit width when given.
fn absorb_threshold(nodes: &mut [IrNode], act_bits: Option<u32>) {
    let node = nodes
        .iter_mut()
        .rev()
        .find(|n| n.op.is_matrix_op())
        .expect("BatchNorm/QuantAct must follow a matrix layer");
    match &mut node.op {
        IrOp::Conv {
            thresholds,
            act_bits: slot,
            ..
        }
        | IrOp::Fc {
            thresholds,
            act_bits: slot,
            ..
        } => {
            *thresholds = true;
            if act_bits.is_some() {
                *slot = act_bits;
            }
        }
        IrOp::MaxPool { .. } => unreachable!("filtered to matrix ops"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_nn::cnv::{CnvConfig, ExitsConfig};

    fn tiny_ir() -> ModelIr {
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
        ModelIr::from_summary(&net.summarize())
    }

    #[test]
    fn streamlining_folds_norm_and_act() {
        let ir = tiny_ir();
        // CNV backbone: 6 convs + 2 pools + 3 FCs = 11 nodes (BN/Act gone).
        assert_eq!(ir.backbone.len(), 11);
        match &ir.backbone[0].op {
            IrOp::Conv {
                thresholds,
                act_bits,
                ..
            } => {
                assert!(*thresholds);
                assert_eq!(*act_bits, Some(2));
            }
            other => panic!("expected conv, got {other:?}"),
        }
        // Final FC keeps raw logits (no act to absorb).
        match &ir.backbone[10].op {
            IrOp::Fc { act_bits, thresholds, .. } => {
                assert_eq!(*act_bits, None);
                assert!(!*thresholds);
            }
            other => panic!("expected fc, got {other:?}"),
        }
    }

    #[test]
    fn exits_reanchor_to_conv_nodes() {
        let ir = tiny_ir();
        assert_eq!(ir.exits.len(), 2);
        // Exit 0 attaches after backbone layer 5 (act of conv2), which
        // streamlines into node 1 (the second conv).
        assert_eq!(ir.exits[0].attach_after, 1);
        // Exit 1: act of conv4 = node 4 (conv1, conv2, pool, conv3, conv4).
        assert_eq!(ir.exits[1].attach_after, 4);
        // Exit branch: conv + pool + 2 fc = 4 nodes.
        assert_eq!(ir.exits[0].nodes.len(), 4);
    }

    #[test]
    fn macs_match_hand_count() {
        let op = IrOp::Conv {
            c_in: 3,
            c_out: 8,
            kernel: 3,
            stride: 1,
            padding: 0,
            in_hw: (32, 32),
            out_hw: (30, 30),
            weight_bits: 2,
            act_bits: Some(2),
            thresholds: true,
        };
        assert_eq!(op.macs(), 3 * 8 * 9 * 30 * 30);
        assert_eq!(op.weight_storage_bits(), 3 * 8 * 9 * 2);
        let ir = tiny_ir();
        assert!(ir.backbone_macs() > 0);
        assert!(ir.weight_storage_bits() > 0);
    }

    #[test]
    fn matrix_nodes_cover_backbone_and_exits() {
        let ir = tiny_ir();
        // Backbone: 6 conv + 3 fc; each exit: 1 conv + 2 fc.
        assert_eq!(ir.matrix_nodes().len(), 9 + 2 * 3);
        assert_eq!(ir.num_exits(), 3);
    }

    #[test]
    fn ir_serde_roundtrip() {
        let ir = tiny_ir();
        let json = serde_json::to_string(&ir).expect("serialize");
        let back: ModelIr = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(ir, back);
    }

    #[test]
    fn plain_network_has_no_exits() {
        let net = CnvConfig::tiny().build(10, 1);
        let ir = ModelIr::from_summary(&net.summarize());
        assert!(ir.exits.is_empty());
        assert_eq!(ir.num_exits(), 1);
    }
}
