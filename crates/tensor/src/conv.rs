//! `im2col`/`col2im` lowering for convolutions.
//!
//! A convolution over one CHW image becomes a GEMM: `im2col` unrolls every
//! receptive field into a column of a `[k*k*c_in, out_h*out_w]` matrix, the
//! `[c_out, k*k*c_in]` weight matrix multiplies it, and the product is the
//! `[c_out, out_h*out_w]` output map. This mirrors how the FINN Sliding
//! Window Unit (SWU) feeds the Matrix-Vector-Threshold Unit (MVTU) on the
//! FPGA — the SWU *is* a streaming im2col — so the software and hardware
//! models share their dataflow decomposition.

/// Spatial geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ConvGeometry {
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Unit-stride, unpadded geometry for a `kernel x kernel` window.
    pub fn new(kernel: usize) -> Self {
        ConvGeometry {
            kernel,
            stride: 1,
            padding: 0,
        }
    }

    /// Builder-style stride override.
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Builder-style padding override.
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Output extent for an input extent, or `None` when the window does
    /// not fit.
    pub fn output_dim(&self, input: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < self.kernel || self.stride == 0 {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }
}

/// Unrolls one CHW image into im2col columns.
///
/// `input` is `[channels, height, width]` flattened; the result is
/// `[kernel*kernel*channels, out_h*out_w]` flattened, with the channel
/// index varying slowest within a column (matching a `[c_out,
/// k*k*c_in]`-shaped weight matrix).
///
/// # Panics
///
/// Panics if `input.len() != channels * height * width` or the window does
/// not fit the padded input.
pub fn im2col(
    input: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    geom: ConvGeometry,
) -> Vec<f32> {
    let out_h = geom.output_dim(height).expect("window must fit input height");
    let out_w = geom.output_dim(width).expect("window must fit input width");
    // Allocate zeroed (the allocator hands back zero pages, no memset);
    // `im2col_into` sees the length already matching and only writes taps.
    let mut out = vec![0.0f32; channels * geom.kernel * geom.kernel * out_h * out_w];
    im2col_into(input, channels, height, width, geom, &mut out);
    out
}

/// [`im2col`] into a caller-provided buffer, so a reused scratch vector's
/// capacity is recycled across calls. `out` is resized to the column-matrix
/// size and every element is written (padding taps as literal zeros), so
/// prior contents are irrelevant and no separate zero-fill pass is needed.
///
/// # Panics
///
/// Panics if `input.len() != channels * height * width` or the window does
/// not fit the padded input.
pub fn im2col_into(
    input: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    geom: ConvGeometry,
    out: &mut Vec<f32>,
) {
    assert_eq!(input.len(), channels * height * width, "input length");
    let out_h = geom.output_dim(height).expect("window must fit input height");
    let out_w = geom.output_dim(width).expect("window must fit input width");
    let k = geom.kernel;
    let cols = out_h * out_w;
    let len = channels * k * k * cols;
    // Only the length is adjusted; stale contents are fully overwritten.
    if out.len() > len {
        out.truncate(len);
    } else {
        out.resize(len, 0.0);
    }
    let (kernel, stride, pad) = (geom.kernel, geom.stride, geom.padding);
    for c in 0..channels {
        let plane = &input[c * height * width..(c + 1) * height * width];
        for ky in 0..kernel {
            for kx in 0..kernel {
                let row = ((c * k + ky) * k + kx) * cols;
                for oy in 0..out_h {
                    let dst = &mut out[row + oy * out_w..row + (oy + 1) * out_w];
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= height as isize {
                        dst.fill(0.0); // the whole tap row is padding
                        continue;
                    }
                    let src_row = &plane[iy as usize * width..(iy as usize + 1) * width];
                    if stride == 1 {
                        // Unit stride: the in-bounds taps `ix = ox + kx - pad`
                        // form one contiguous run, so the row is a memcpy
                        // flanked by padding zeros.
                        // An empty run (`lo == hi`) may sit left of the
                        // row, where `lo + kx < pad`: copy only a real one.
                        let lo = pad.saturating_sub(kx).min(out_w);
                        let hi = (width + pad).saturating_sub(kx).min(out_w).max(lo);
                        dst[..lo].fill(0.0);
                        if lo < hi {
                            dst[lo..hi].copy_from_slice(&src_row[lo + kx - pad..hi + kx - pad]);
                        }
                        dst[hi..].fill(0.0);
                    } else {
                        for (ox, slot) in dst.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            *slot = if ix < 0 || ix >= width as isize {
                                0.0
                            } else {
                                src_row[ix as usize]
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Accumulates im2col columns back into a CHW image (adjoint of [`im2col`]).
///
/// Overlapping receptive fields sum, which is exactly the gradient flow a
/// convolution backward pass needs.
///
/// # Panics
///
/// Panics if the column buffer length disagrees with the geometry.
pub fn col2im(
    cols_data: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    geom: ConvGeometry,
) -> Vec<f32> {
    let mut image = Vec::new();
    col2im_into(cols_data, channels, height, width, geom, &mut image);
    image
}

/// [`col2im`] into a caller-provided buffer. `image` is cleared and
/// resized to `channels * height * width` (zero-filled) before the
/// accumulation; prior contents are irrelevant.
///
/// # Panics
///
/// Panics if the column buffer length disagrees with the geometry.
pub fn col2im_into(
    cols_data: &[f32],
    channels: usize,
    height: usize,
    width: usize,
    geom: ConvGeometry,
    image: &mut Vec<f32>,
) {
    let out_h = geom.output_dim(height).expect("window must fit input height");
    let out_w = geom.output_dim(width).expect("window must fit input width");
    let k = geom.kernel;
    let cols = out_h * out_w;
    assert_eq!(cols_data.len(), channels * k * k * cols, "column buffer length");
    image.clear();
    image.resize(channels * height * width, 0.0);
    let (stride, pad) = (geom.stride, geom.padding);
    for c in 0..channels {
        let plane_base = c * height * width;
        for ky in 0..k {
            for kx in 0..k {
                let row = ((c * k + ky) * k + kx) * cols;
                for oy in 0..out_h {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= height as isize {
                        continue;
                    }
                    let dst_row = plane_base + iy as usize * width;
                    let src_row = row + oy * out_w;
                    if stride == 1 {
                        // Unit stride: the in-bounds taps form one contiguous
                        // run, accumulated branch-free.
                        let lo = pad.saturating_sub(kx).min(out_w);
                        let hi = (width + pad).saturating_sub(kx).min(out_w).max(lo);
                        if lo == hi {
                            continue; // the whole run is padding (as in im2col)
                        }
                        let dst = &mut image[dst_row + lo + kx - pad..dst_row + hi + kx - pad];
                        let src = &cols_data[src_row + lo..src_row + hi];
                        for (iv, &cv) in dst.iter_mut().zip(src) {
                            *iv += cv;
                        }
                    } else {
                        for ox in 0..out_w {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= width as isize {
                                continue;
                            }
                            image[dst_row + ix as usize] += cols_data[src_row + ox];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dim_math() {
        let g = ConvGeometry::new(3);
        assert_eq!(g.output_dim(5), Some(3));
        assert_eq!(g.output_dim(2), None);
        let g = ConvGeometry::new(3).with_padding(1);
        assert_eq!(g.output_dim(32), Some(32));
        let g = ConvGeometry::new(2).with_stride(2);
        assert_eq!(g.output_dim(32), Some(16));
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel just flattens the image.
        let img: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let cols = im2col(&img, 3, 2, 2, ConvGeometry::new(1));
        assert_eq!(cols, img);
    }

    #[test]
    fn im2col_known_values() {
        // 1 channel, 3x3 image, 2x2 kernel -> 4 columns of length 4.
        let img = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let cols = im2col(&img, 1, 3, 3, ConvGeometry::new(2));
        // Rows are kernel positions (ky,kx); columns are output pixels.
        assert_eq!(
            cols,
            vec![
                1., 2., 4., 5., // (0,0)
                2., 3., 5., 6., // (0,1)
                4., 5., 7., 8., // (1,0)
                5., 6., 8., 9., // (1,1)
            ]
        );
    }

    #[test]
    fn im2col_respects_padding() {
        let img = vec![1.0];
        let cols = im2col(&img, 1, 1, 1, ConvGeometry::new(3).with_padding(1));
        // 3x3 kernel over a padded 1x1 image: only the center tap is 1.
        let mut want = vec![0.0; 9];
        want[4] = 1.0;
        assert_eq!(cols, want);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the conv backward pass relies on.
        let geom = ConvGeometry::new(3).with_padding(1);
        let (c, h, w) = (2, 5, 4);
        let x: Vec<f32> = (0..c * h * w).map(|v| (v as f32 * 0.7).sin()).collect();
        let cols = im2col(&x, c, h, w, geom);
        let y: Vec<f32> = (0..cols.len()).map(|v| (v as f32 * 0.3).cos()).collect();
        let back = col2im(&y, c, h, w, geom);
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_via_gemm_matches_direct() {
        use crate::gemm::gemm;
        // Direct 2-D convolution vs im2col+GEMM on a small case.
        let (cin, h, w, cout, k) = (2, 4, 4, 3, 3);
        let geom = ConvGeometry::new(k).with_padding(1);
        let img: Vec<f32> = (0..cin * h * w).map(|v| ((v * 7 % 13) as f32) - 6.0).collect();
        let wgt: Vec<f32> = (0..cout * cin * k * k)
            .map(|v| ((v * 5 % 11) as f32) / 5.0 - 1.0)
            .collect();
        let cols = im2col(&img, cin, h, w, geom);
        let (oh, ow) = (4, 4);
        let mut out = vec![0.0; cout * oh * ow];
        gemm(cout, cin * k * k, oh * ow, &wgt, &cols, &mut out);

        for co in 0..cout {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..cin {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy as isize + ky as isize - 1;
                                let ix = ox as isize + kx as isize - 1;
                                if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += img[(ci * h + iy as usize) * w + ix as usize]
                                    * wgt[((co * cin + ci) * k + ky) * k + kx];
                            }
                        }
                    }
                    let got = out[(co * oh + oy) * ow + ox];
                    assert!((acc - got).abs() < 1e-3, "{acc} vs {got}");
                }
            }
        }
    }
}
