use super::{Activation, BackwardCache, Derived, Param};
use crate::quant::{self, QuantSpec};
use super::norm::add_channel_sums;
use adapex_tensor::conv::{im2col_into, ConvGeometry};
use adapex_tensor::conv_grad::{conv_input_grad, conv_weight_grad};
use adapex_tensor::gemm::gemm_st;
use adapex_tensor::int2;
use adapex_tensor::parallel::{num_threads, parallel_for_chunks};
use adapex_tensor::rng::kaiming_tensor;
use adapex_tensor::workspace::{
    recycle_f32, recycle_usize, take_f32_from, take_f32_uninit, with_workspace, Workspace,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Output spatial extent of a conv with `c_in` input channels and
/// geometry `geom` on a per-sample CHW input, shared by
/// [`super::LayerSpec`]'s shape propagation and the allocation-free
/// forward path.
///
/// # Panics
///
/// Panics unless `in_dims` is CHW with `c_in` channels and the window fits.
pub(super) fn out_hw(c_in: usize, geom: ConvGeometry, in_dims: &[usize]) -> (usize, usize) {
    assert_eq!(in_dims.len(), 3, "conv input must be CHW");
    assert_eq!(in_dims[0], c_in, "conv input channels");
    let oh = geom.output_dim(in_dims[1]).expect("window must fit");
    let ow = geom.output_dim(in_dims[2]).expect("window must fit");
    (oh, ow)
}

/// 2-D convolution with fake-quantized weights.
///
/// Weights are stored full precision as `[c_out, c_in * k * k]`; the
/// forward pass derives the quantized view that the FPGA's MVTU would hold
/// in its weight memory, re-deriving it only when the underlying [`Param`]
/// version changes (an eval sweep over thresholds quantizes once, not once
/// per batch). The forward runs the int2 engine on 2-bit inputs and the
/// direct f32 conv otherwise; the training backward runs
/// [`adapex_tensor::conv_grad`]'s two kernels. None of them builds the
/// im2col matrix the textbook lowering (the software twin of FINN's
/// SWU→MVTU pipeline) would; all are bit-identical to it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantConv2d {
    /// Input channels.
    pub c_in: usize,
    /// Output channels (filters). Filter pruning shrinks this.
    pub c_out: usize,
    /// Kernel geometry.
    pub geom: ConvGeometry,
    /// Full-precision weights, `[c_out, c_in * k * k]`.
    pub weight: Param,
    /// Bias, `[c_out]`.
    pub bias: Param,
    /// Weight quantizer (2-bit signed for CNVW2A2).
    pub weight_spec: QuantSpec,
    /// Backward-pass cache (see [`BackwardCache`]).
    #[serde(skip)]
    pub(super) cache: BackwardCache<ConvCache>,
    /// Quantized-weight view, keyed by the weight [`Param`] version.
    #[serde(skip)]
    qcache: Derived<Option<QCache>>,
    /// Sends this layer's int2-eligible forwards down the f32-over-codes
    /// arm instead of the popcount engine. Both are bit-identical, and
    /// nothing in the workspace sets it outside tests: the differential
    /// suites flip it to get their reference, and the benchmark harness
    /// assigns it from [`int2::conv_engine_profitable`]. A set field on
    /// a conv the streamlined plan would fold keeps the whole net on the
    /// executor's layer path, in serving and evaluation alike. Not
    /// serialized, not part of equality.
    #[serde(skip)]
    pub prefer_f32_codes: bool,
}

impl PartialEq for QuantConv2d {
    fn eq(&self, other: &Self) -> bool {
        // Caches are derived state; equality is structural.
        self.c_in == other.c_in
            && self.c_out == other.c_out
            && self.geom == other.geom
            && self.weight == other.weight
            && self.bias == other.bias
            && self.weight_spec == other.weight_spec
    }
}

#[derive(Debug, Default)]
pub(super) struct ConvCache {
    input: Vec<f32>,
    n: usize,
    in_hw: (usize, usize),
    qweight: Vec<f32>,
    scales: Vec<f32>,
}

/// Quantized view of the weight tensor at one [`Param`] version.
#[derive(Debug, Default)]
struct QCache {
    version: u64,
    qweight: Vec<f32>,
    scales: Vec<f32>,
    /// Exact integer weight codes (`qweight / scale`, each in
    /// `{-2..1}`), derived lazily for the int2 eval path only.
    wcodes: Vec<f32>,
    /// Bit-plane packed `wcodes` for the popcount engine.
    planes: Vec<u64>,
    /// Weight version `wcodes`/`planes` were derived at (`None` until
    /// the first int2 eval forward, so training never pays for them).
    int2_version: Option<u64>,
}

impl QuantConv2d {
    /// New convolution with Kaiming-initialised weights.
    pub fn new(
        c_in: usize,
        c_out: usize,
        geom: ConvGeometry,
        weight_spec: QuantSpec,
        rng: &mut StdRng,
    ) -> Self {
        let k = geom.kernel;
        let fan_in = c_in * k * k;
        let weight = kaiming_tensor(&[c_out, fan_in], fan_in, rng).into_vec();
        QuantConv2d {
            c_in,
            c_out,
            geom,
            weight: Param::new(weight),
            bias: Param::new(vec![0.0; c_out]),
            weight_spec,
            cache: BackwardCache::default(),
            qcache: Derived::default(),
            prefer_f32_codes: false,
        }
    }

    /// Refreshes the quantized-weight view if the weight param changed
    /// since it was last derived.
    fn ensure_qweights(&mut self) {
        let version = self.weight.version();
        if self.qcache.as_ref().is_some_and(|qc| qc.version == version) {
            return;
        }
        let kk = self.geom.kernel * self.geom.kernel * self.c_in;
        let mut qc = self.qcache.take().unwrap_or_default();
        quant::quantize_weights_per_row_into(
            &self.weight.value,
            kk,
            self.weight_spec,
            &mut qc.qweight,
            &mut qc.scales,
        );
        qc.version = version;
        *self.qcache = Some(qc);
    }

    /// Extends the quantized-weight view with the int2 engine's derived
    /// forms (integer codes + packed bit planes).
    fn ensure_int2(&mut self) {
        self.ensure_qweights();
        let version = self.weight.version();
        let kk = self.geom.kernel * self.geom.kernel * self.c_in;
        let qc = self.qcache.as_mut().expect("qcache just ensured");
        if qc.int2_version == Some(version) {
            return;
        }
        int2::weight_codes_into(&qc.qweight, &qc.scales, kk, &mut qc.wcodes);
        int2::pack_weights_int2(&qc.wcodes, self.c_out, kk, &mut qc.planes);
        qc.int2_version = Some(version);
    }

    /// The f32 route's operand: fake-quantized weights,
    /// `[c_out, c_in·k²]`, at the current weight version.
    pub(crate) fn f32_weights(&mut self) -> &[f32] {
        self.ensure_qweights();
        &self.qcache.as_ref().expect("qcache just ensured").qweight
    }

    /// The popcount engine's operands at the current weight version:
    /// packed weight planes and the per-filter weight scales.
    pub(crate) fn int2_weights(&mut self) -> (&[u64], &[f32]) {
        self.ensure_int2();
        let qc = self.qcache.as_ref().expect("qcache just ensured");
        (&qc.planes, &qc.scales)
    }

    /// The activation grid step when this forward can take the
    /// code-domain int2 path: signed 2-bit weights and an input stamped
    /// as 2-bit quantized (train and eval — QuantReLU stamps both).
    fn int2_act_scale(&self, x: &Activation) -> Option<f32> {
        if !self.weight_spec.is_int2_weight() {
            return None;
        }
        let q = x.quant?;
        (q.bits == 2 && q.scale > 0.0).then_some(q.scale)
    }

    /// The GEMM core shared by both forward entry points. With
    /// `int2_scale` set (a 2-bit-quantized input), each image runs the
    /// code-domain path: the direct windowed engine
    /// ([`int2::conv_int2_direct`] — pack the image once, gather each
    /// window's packed operand), or — when `prefer_f32_codes` is set or
    /// the kernel is past the gather's word bound — the f32 GEMM over
    /// im2col'd code values; both compute the same integer sums,
    /// finished by the same requantize+bias epilogue. Any other input
    /// (the stem's raw pixels) takes the direct f32 conv
    /// ([`int2::conv_f32_acc`]), bit-identical to im2col and the f32
    /// GEMM without the column buffer. Bit-identical across backends
    /// and routes.
    fn run_forward(&mut self, x: &Activation, int2_scale: Option<f32>) -> Activation {
        let (oh, ow) = out_hw(self.c_in, self.geom, &x.dims);
        let out_dims = [self.c_out, oh, ow];
        let (h, w) = (x.dims[1], x.dims[2]);
        let pixels = oh * ow;
        let kk = self.geom.kernel * self.geom.kernel * self.c_in;
        match int2_scale {
            Some(_) => self.ensure_int2(),
            None => self.ensure_qweights(),
        }
        let qc = self.qcache.as_ref().expect("qcache just ensured");

        // Every route below ends in a GEMM that overwrites its whole
        // per-image output slice, so the buffer needs no zero-fill.
        let mut out = Activation::for_overwrite(x.n, &out_dims);
        let sample_in = x.sample_len();
        let sample_out = self.c_out * pixels;
        let geom = self.geom;
        let (c_in, c_out) = (self.c_in, self.c_out);
        let bias = &self.bias.value;
        let input = &x.data;
        let qw = &qc.qweight;
        let (wcodes, planes) = (&qc.wcodes, &qc.planes);
        // Combined per-filter requantize scale (cs = wscale * ascale),
        // shared read-only by all workers; pooled, computed once per call.
        let cs_buf = int2_scale.map(|ascale| {
            let mut v = take_f32_uninit(c_out);
            for (dst, &s) in v.iter_mut().zip(&qc.scales) {
                *dst = s * ascale;
            }
            v
        });
        let cs_ref = cs_buf.as_deref();
        // The direct path skips im2col entirely: pack the image once,
        // gather each window's operand words. Kernels past the gather's
        // word bound keep the f32-over-codes route (CNV kernels are 3).
        let use_direct = !self.prefer_f32_codes && geom.kernel <= int2::MAX_DIRECT_KERNEL;
        // Images per worker below which a scoped thread costs more than
        // it saves (a 16-image batch of a width-8 layer runs inline).
        let min_chunk = (PAR_MIN_MACS / (c_out * kk * pixels).max(1)).max(1);
        parallel_for_chunks(x.n, sample_out, &mut out.data, min_chunk, |range, chunk| {
            with_workspace(|ws| {
                for (local, i) in range.enumerate() {
                    let img = &input[i * sample_in..(i + 1) * sample_in];
                    let y = &mut chunk[local * sample_out..(local + 1) * sample_out];
                    match (int2_scale, cs_ref) {
                        (Some(ascale), Some(cs)) if use_direct => {
                            int2::conv_int2_direct(
                                img,
                                ascale,
                                c_in,
                                h,
                                w,
                                geom,
                                planes,
                                c_out,
                                cs,
                                bias,
                                y,
                                &mut ws.img_bits,
                                &mut ws.bits,
                            );
                        }
                        (Some(ascale), Some(cs)) => {
                            im2col_into(img, c_in, h, w, geom, &mut ws.cols);
                            int2::act_codes_in_place(&mut ws.cols, ascale);
                            gemm_st(c_out, kk, pixels, wcodes, &ws.cols, y);
                            int2::requantize_rows(y, pixels, cs, bias);
                        }
                        _ => {
                            int2::conv_f32_acc(
                                img,
                                c_in,
                                h,
                                w,
                                geom,
                                qw,
                                bias,
                                None,
                                y,
                                &mut ws.cols,
                            );
                        }
                    }
                }
            });
        });
        if let Some(v) = cs_buf {
            recycle_f32(v);
        }
        out
    }

    /// Snapshots everything the backward pass needs except the input,
    /// which the two forward entry points provide differently.
    fn cache_for_backward(&mut self, n: usize, in_hw: (usize, usize)) {
        let qc = self.qcache.as_ref().expect("qcache ensured by run_forward");
        let cache = self.cache.fill();
        cache.n = n;
        cache.in_hw = in_hw;
        cache.qweight.clear();
        cache.qweight.extend_from_slice(&qc.qweight);
        cache.scales.clear();
        cache.scales.extend_from_slice(&qc.scales);
    }

    /// Forward pass over a batch.
    ///
    /// Training forwards of 2-bit layers over stamped inputs take the
    /// same code-domain route as eval (train/eval forward values are
    /// bit-identical); only the backward differs — STE over the cached
    /// fake-quant weights, untouched by the routing.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward(&mut self, x: &Activation, train: bool) -> Activation {
        let int2_scale = self.int2_act_scale(x);
        let out = self.run_forward(x, int2_scale);
        if train {
            let input = &mut self.cache.fill().input;
            input.clear();
            input.extend_from_slice(&x.data);
            self.cache_for_backward(x.n, (x.dims[1], x.dims[2]));
        } else {
            self.cache.invalidate();
        }
        out
    }

    /// [`QuantConv2d::forward`] taking the input by value: in training
    /// mode the input buffer moves straight into the backward cache
    /// instead of being copied.
    pub fn forward_owned(&mut self, x: Activation, train: bool) -> Activation {
        if !train {
            return self.forward(&x, false);
        }
        let int2_scale = self.int2_act_scale(&x);
        let out = self.run_forward(&x, int2_scale);
        let (n, hw) = (x.n, (x.dims[1], x.dims[2]));
        let (data, _, dims) = x.into_parts();
        recycle_usize(dims);
        recycle_f32(std::mem::replace(&mut self.cache.fill().input, data));
        self.cache_for_backward(n, hw);
        out
    }

    /// One image's contribution to the backward pass: accumulates `dWᵀ`
    /// into `ws.dw`, `db` into `ws.db`, and — when `dx_out` is given —
    /// writes `dX` into it.
    ///
    /// The weight gradient is computed transposed, `dWᵀ = cols · dYᵀ`
    /// (`[kk, c_out]`), its `cols` operand read from the image; `dX` is a
    /// direct transposed convolution. Neither builds the im2col matrix,
    /// and both are bit-identical to the im2col/GEMM/col2im composition
    /// (see [`adapex_tensor::conv_grad`]).
    #[allow(clippy::too_many_arguments)]
    fn backward_image(
        &self,
        ws: &mut Workspace,
        img: &[f32],
        dy: &[f32],
        (h, w): (usize, usize),
        pixels: usize,
        kk: usize,
        dx_out: Option<&mut [f32]>,
    ) {
        let (c_in, c_out) = (self.c_in, self.c_out);
        // The kernel stores every element, so `dw_img` only gets the
        // right length, never a zero fill.
        ws.dw_img.resize(kk * c_out, 0.0);
        conv_weight_grad(img, c_in, h, w, self.geom, dy, c_out, &mut ws.dw_img, &mut ws.scratch);
        for (acc, &v) in ws.dw.iter_mut().zip(&ws.dw_img) {
            *acc += v;
        }
        add_channel_sums(dy, pixels, &mut ws.db, None);
        if let Some(dx_out) = dx_out {
            conv_input_grad(dy, c_out, &self.cache.qweight, c_in, h, w, self.geom, dx_out, &mut ws.scratch);
        }
    }

    /// Folds one worker's `(dWᵀ, db)` partial into the parameter
    /// gradients with the STE clipping mask (saturated weights stop
    /// receiving gradient). `dw_t` is `[kk, c_out]`; the gradient is
    /// `[c_out, kk]`.
    fn reduce_partial(&mut self, dw_t: &[f32], db: &[f32], kk: usize) {
        let spec = self.weight_spec;
        let c_out = self.c_out;
        for (co, (grads, weights)) in self
            .weight
            .grad
            .chunks_exact_mut(kk)
            .zip(self.weight.value.chunks_exact(kk))
            .enumerate()
        {
            let scale = self.cache.scales[co];
            for (t, (slot, &w0)) in grads.iter_mut().zip(weights).enumerate() {
                *slot += dw_t[t * c_out + co] * quant::ste_mask(w0, scale, spec);
            }
        }
        for (slot, &g) in self.bias.grad.iter_mut().zip(db) {
            *slot += g;
        }
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward(&mut self, grad_out: &Activation) -> Activation {
        self.backward_with_workers(grad_out, num_threads())
    }

    /// [`QuantConv2d::backward`] for a layer whose input gradient nobody
    /// reads (the network's stem): accumulates the parameter gradients
    /// only, skipping the input-gradient kernel. The parameter gradients
    /// are the same bits either way.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub(crate) fn backward_params(&mut self, grad_out: &Activation) {
        self.run_backward(grad_out, num_threads(), false);
    }

    /// [`QuantConv2d::backward`] with an explicit worker count.
    ///
    /// The batch is cut into fixed `BWD_CHUNK`-sample chunks. Each
    /// chunk's `(dW, db)` partial is accumulated sample-by-sample, and
    /// the partials are folded into the parameter gradients in
    /// chunk-index order. Chunk boundaries and the reduction order thus
    /// depend only on the batch size — never on `workers` — so the
    /// floating-point result is bit-identical for every worker count
    /// (`ADAPEX_THREADS` only changes wall-clock time). Chunk `c` is
    /// processed by worker `c % workers`; `dX` writes are per-sample
    /// disjoint and order-free.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward_with_workers(&mut self, grad_out: &Activation, workers: usize) -> Activation {
        self.run_backward(grad_out, workers, true)
            .expect("an input gradient was asked for")
    }

    /// The backward pass behind both entry points; computes and returns
    /// the input gradient only when `want_dx`.
    fn run_backward(
        &mut self,
        grad_out: &Activation,
        workers: usize,
        want_dx: bool,
    ) -> Option<Activation> {
        self.cache.consume("conv");
        let (h, w) = self.cache.in_hw;
        let oh = self.geom.output_dim(h).expect("cached geometry is valid");
        let ow = self.geom.output_dim(w).expect("cached geometry is valid");
        let pixels = oh * ow;
        let k = self.geom.kernel;
        let kk = self.c_in * k * k;
        let n = self.cache.n;
        assert_eq!(grad_out.n, n, "grad batch size");
        let sample_in = self.c_in * h * w;
        let sample_out = self.c_out * pixels;

        // Every sample's slice is overwritten by `conv_input_grad`.
        let mut grad_in = want_dx.then(|| Activation::for_overwrite(n, &[self.c_in, h, w]));
        if n == 0 {
            return grad_in;
        }
        let chunks = n.div_ceil(BWD_CHUNK);
        let workers = workers.max(1).min(chunks);

        if workers == 1 {
            // Inline path: same per-chunk accumulation and in-order
            // reduction as the threaded path, on the calling thread.
            with_workspace(|ws| {
                for c in 0..chunks {
                    let start = c * BWD_CHUNK;
                    let end = (start + BWD_CHUNK).min(n);
                    ws.dw.clear();
                    ws.dw.resize(self.c_out * kk, 0.0);
                    ws.db.clear();
                    ws.db.resize(self.c_out, 0.0);
                    for i in start..end {
                        let img = &self.cache.input[i * sample_in..(i + 1) * sample_in];
                        let dy = &grad_out.data[i * sample_out..(i + 1) * sample_out];
                        let dx = grad_in
                            .as_mut()
                            .map(|g| &mut g.data[i * sample_in..(i + 1) * sample_in]);
                        self.backward_image(ws, img, dy, (h, w), pixels, kk, dx);
                    }
                    let Workspace { dw, db, .. } = ws;
                    self.reduce_partial(dw, db, kk);
                }
            });
            return grad_in;
        }

        // Threaded path: distribute the fixed chunks round-robin, hand
        // each chunk its disjoint dX slice, then reduce the collected
        // per-chunk partials in chunk-index order.
        // One unit of work: `(chunk index, sample range, dX slice)`.
        type ChunkTask<'t> = (usize, Range<usize>, Option<&'t mut [f32]>);
        let this = &*self;
        let dy_all = &grad_out.data;
        let mut per_worker: Vec<Vec<ChunkTask<'_>>> =
            (0..workers).map(|_| Vec::new()).collect();
        {
            let mut rest = grad_in.as_mut().map(|g| &mut g.data[..]);
            for c in 0..chunks {
                let start = c * BWD_CHUNK;
                let end = (start + BWD_CHUNK).min(n);
                let head = rest.take().map(|r| {
                    let (head, tail) = r.split_at_mut((end - start) * sample_in);
                    rest = Some(tail);
                    head
                });
                per_worker[c % workers].push((c, start..end, head));
            }
        }
        let mut partials: Vec<(usize, Vec<f32>, Vec<f32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .into_iter()
                .map(|tasks| {
                    scope.spawn(move || {
                        with_workspace(|ws| {
                            let mut out = Vec::with_capacity(tasks.len());
                            for (c, range, mut head) in tasks {
                                ws.dw.clear();
                                ws.dw.resize(this.c_out * kk, 0.0);
                                ws.db.clear();
                                ws.db.resize(this.c_out, 0.0);
                                let base = range.start;
                                for i in range {
                                    let img =
                                        &this.cache.input[i * sample_in..(i + 1) * sample_in];
                                    let dy = &dy_all[i * sample_out..(i + 1) * sample_out];
                                    let local = i - base;
                                    let dx = head.as_deref_mut().map(|hd| {
                                        &mut hd[local * sample_in..(local + 1) * sample_in]
                                    });
                                    this.backward_image(ws, img, dy, (h, w), pixels, kk, dx);
                                }
                                out.push((c, take_f32_from(&ws.dw), take_f32_from(&ws.db)));
                            }
                            out
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker"))
                .collect()
        });

        partials.sort_by_key(|&(c, _, _)| c);
        for (_, dw, db) in partials {
            self.reduce_partial(&dw, &db, kk);
            recycle_f32(dw);
            recycle_f32(db);
        }
        grad_in
    }
}

/// Least work, in multiply-accumulates, worth handing a forward worker
/// thread of its own: spawning and joining a scoped thread costs tens of
/// microseconds, about what a million MACs of either GEMM take, so a
/// chunk has to be several times that. Measured on the serving path
/// before the floor existed: 16-image batches of a width-8 CNV (7 M MACs
/// in its largest conv) served 8.2 k req/s split over two threads and
/// 11.0 k inline. Chunking never changes a result bit — images are
/// independent — only who computes them.
const PAR_MIN_MACS: usize = 1 << 23;

/// Fixed width of the batch chunks [`QuantConv2d::backward`] reduces
/// over. Partial `(dW, db)` sums are accumulated per chunk and folded in
/// chunk-index order, so the gradient bits depend only on this constant
/// and the batch size, not on the worker count.
const BWD_CHUNK: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_tensor::rng::rng_from_seed;

    fn small_conv(bits: u32) -> QuantConv2d {
        let spec = if bits >= 8 {
            QuantSpec::signed(8)
        } else {
            QuantSpec::signed(bits)
        };
        QuantConv2d::new(2, 3, ConvGeometry::new(3).with_padding(1), spec, &mut rng_from_seed(1))
    }

    #[test]
    fn forward_shape() {
        let mut conv = small_conv(8);
        let x = Activation::zeros(2, &[2, 8, 8]);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims, vec![3, 8, 8]);
        assert_eq!(y.n, 2);
    }

    #[test]
    fn bias_shifts_output() {
        let mut conv = small_conv(8);
        conv.weight.value.fill(0.0);
        conv.bias.value = vec![1.0, -2.0, 0.5];
        let x = Activation::zeros(1, &[2, 4, 4]);
        let y = conv.forward(&x, false);
        assert!(y.sample(0)[..16].iter().all(|&v| v == 1.0));
        assert!(y.sample(0)[16..32].iter().all(|&v| v == -2.0));
        assert!(y.sample(0)[32..].iter().all(|&v| v == 0.5));
    }

    /// Finite-difference check of the convolution gradients (8-bit quant
    /// is near-identity, so analytic and numeric gradients must agree).
    #[test]
    fn gradients_match_finite_differences() {
        let mut conv = QuantConv2d::new(
            1,
            2,
            ConvGeometry::new(3),
            QuantSpec::signed(8),
            &mut rng_from_seed(3),
        );
        // Explicit weights instead of RNG draws: each filter's
        // max-magnitude element is negative (a positive row maximum
        // lands above `q_max * scale` and gets a zero STE mask) and is
        // not among the perturbed indices, so the per-row scale stays
        // fixed under the finite-difference probes below.
        conv.weight.value = vec![
            0.30, -0.20, 0.10, 0.25, -0.15, 0.05, 0.20, -0.55, 0.35, // filter 0
            0.15, -0.30, 0.25, -0.10, 0.40, 0.05, -0.60, 0.20, -0.25, // filter 1
        ];
        conv.weight.touch();
        let x = Activation::new(
            (0..25).map(|v| (v as f32 * 0.37).sin()).collect(),
            1,
            vec![1, 5, 5],
        );
        // Loss = sum of outputs; dL/dy = 1.
        let y = conv.forward(&x, true);
        let ones = Activation::new(vec![1.0; y.data.len()], y.n, y.dims.clone());
        let dx = conv.backward(&ones);

        // The probe must span many quantization steps (scale is about
        // 0.0045 here) or grid rounding dominates the numeric slope.
        let eps = 0.04;
        // Check a few weight gradients.
        for &wi in &[0, 5, 11] {
            let orig = conv.weight.value[wi];
            conv.weight.value[wi] = orig + eps;
            conv.weight.touch();
            let lp: f32 = conv.forward(&x, false).data.iter().sum();
            conv.weight.value[wi] = orig - eps;
            conv.weight.touch();
            let lm: f32 = conv.forward(&x, false).data.iter().sum();
            conv.weight.value[wi] = orig;
            conv.weight.touch();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.weight.grad[wi];
            assert!(
                (numeric - analytic).abs() < 0.3,
                "dW[{wi}] numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check an input gradient.
        let mut x2 = x.clone();
        let xi = 12;
        x2.data[xi] += eps;
        let lp: f32 = conv.forward(&x2, false).data.iter().sum();
        x2.data[xi] -= 2.0 * eps;
        let lm: f32 = conv.forward(&x2, false).data.iter().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - dx.data[xi]).abs() < 0.3,
            "dX numeric {numeric} vs analytic {}",
            dx.data[xi]
        );
    }

    #[test]
    fn quantized_forward_uses_grid_weights() {
        let mut conv = small_conv(2);
        let x = Activation::new(vec![1.0; 2 * 4 * 4], 1, vec![2, 4, 4]);
        conv.forward(&x, true);
        let cache_weights = &conv.cache;
        let kk = 2 * 3 * 3;
        for (i, &w) in cache_weights.qweight.iter().enumerate() {
            let code = w / cache_weights.scales[i / kk];
            assert!((code - code.round()).abs() < 1e-4);
            assert!((-2.0 - 1e-4..=1.0 + 1e-4).contains(&code));
        }
    }

    #[test]
    fn quantized_view_is_reused_until_the_param_changes() {
        let mut conv = small_conv(2);
        let x = Activation::new(vec![1.0; 2 * 4 * 4], 1, vec![2, 4, 4]);
        let y1 = conv.forward(&x, false);
        let v1 = conv.qcache.as_ref().unwrap().version;
        let y2 = conv.forward(&x, false);
        assert_eq!(conv.qcache.as_ref().unwrap().version, v1, "cache reused");
        assert_eq!(y1, y2);
        conv.weight.value[0] += 1.0;
        conv.weight.touch();
        let y3 = conv.forward(&x, false);
        assert_ne!(conv.qcache.as_ref().unwrap().version, v1, "cache refreshed");
        assert_ne!(y1, y3);
    }

    /// Params assigned in place of a layer's own (what pruning surgery
    /// does) carry a version of their own, so the quantized view of the
    /// old weights is not taken for theirs.
    #[test]
    fn assigned_params_are_quantized_afresh() {
        let mut conv = small_conv(2);
        let x = Activation::new((0..2 * 4 * 4).map(|v| (v as f32 * 0.7).sin()).collect(), 1, vec![2, 4, 4]);
        conv.forward(&x, false);
        let mut other = QuantConv2d::new(2, 3, conv.geom, conv.weight_spec, &mut rng_from_seed(9));
        conv.weight = other.weight.clone();
        assert_eq!(conv.forward(&x, false), other.forward(&x, false));
    }

    #[test]
    fn owned_forward_matches_borrowed() {
        let mut conv = small_conv(2);
        let x = Activation::new(
            (0..2 * 5 * 5).map(|v| (v as f32 * 0.31).cos()).collect(),
            1,
            vec![2, 5, 5],
        );
        let y_ref = conv.forward(&x, true);
        let dx_ref = conv.backward(&Activation::new(
            vec![1.0; y_ref.data.len()],
            y_ref.n,
            y_ref.dims.clone(),
        ));
        let grads_ref = conv.weight.grad.clone();
        conv.weight.zero_grad();
        conv.bias.zero_grad();
        let y_own = conv.forward_owned(x.clone(), true);
        let dx_own = conv.backward(&Activation::new(
            vec![1.0; y_own.data.len()],
            y_own.n,
            y_own.dims.clone(),
        ));
        assert_eq!(y_ref, y_own);
        assert_eq!(dx_ref, dx_own);
        assert_eq!(grads_ref, conv.weight.grad);
    }

    /// The bias gradient folds each channel's `Σ dy` as interleaved
    /// chains; each must equal the one-channel `Iterator::sum` (from
    /// −0.0) it replaced, bit for bit: eleven channels (one group of
    /// eight, three alone), two backward chunks, `dy` dense in ±0.0.
    #[test]
    fn bias_gradient_chains_match_the_one_channel_sums() {
        let (n, c_out, hw) = (BWD_CHUNK + 2, 11, 5);
        let mut conv = QuantConv2d::new(2, c_out, ConvGeometry::new(3), QuantSpec::signed(2), &mut rng_from_seed(4));
        let x = Activation::new((0..n * 2 * hw * hw).map(|v| (v as f32 * 0.3).sin()).collect(), n, vec![2, hw, hw]);
        let y = conv.forward(&x, true);
        let pattern = |i: usize| match (i * 5) % 7 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 37 % 101) as f32 - 50.0) / 17.0,
        };
        let dy: Vec<f32> = (0..y.data.len()).map(pattern).collect();
        conv.backward(&Activation::new(dy.clone(), n, y.dims.clone()));

        let pixels = y.sample_len() / c_out;
        for co in 0..c_out {
            let mut grad = 0.0f32;
            for chunk in (0..n).collect::<Vec<_>>().chunks(BWD_CHUNK) {
                let mut db = 0.0f32;
                for &i in chunk {
                    db += dy[(i * c_out + co) * pixels..][..pixels].iter().sum::<f32>();
                }
                grad += db;
            }
            assert_eq!(conv.bias.grad[co].to_bits(), grad.to_bits(), "channel {co}");
        }
    }

    #[test]
    #[should_panic(expected = "conv backward requires cached forward")]
    fn backward_without_forward_panics() {
        let mut conv = small_conv(8);
        let g = Activation::zeros(1, &[3, 4, 4]);
        conv.backward(&g);
    }
}
