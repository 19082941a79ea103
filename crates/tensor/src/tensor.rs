use crate::gemm;
use crate::{Shape, ShapeError};

/// Owned, contiguous, row-major `f32` tensor.
///
/// 4-D tensors follow the NCHW convention used throughout the AdaPEx CNN
/// engine: `[batch, channels, height, width]`.
///
/// ```
/// use adapex_tensor::Tensor;
///
/// # fn main() -> Result<(), adapex_tensor::ShapeError> {
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3])?;
/// let y = x.map(|v| v.max(0.0)); // ReLU
/// assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a one-filled tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![1.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `data.len()` does not equal the product
    /// of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(ShapeError::new(
                "from_vec",
                format!("{} elements", shape.len()),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the buffer under a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Result<Self, ShapeError> {
        let new_shape = Shape::new(dims);
        if new_shape.len() != self.shape.len() {
            return Err(ShapeError::new(
                "reshape",
                format!("{} elements", self.shape.len()),
                format!("{} elements", new_shape.len()),
            ));
        }
        self.shape = new_shape;
        Ok(self)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise binary operation `f(self, other)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(
                "zip_with",
                self.shape.to_string(),
                other.shape.to_string(),
            ));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self, ShapeError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self, ShapeError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self, ShapeError> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// `self += alpha * other` (AXPY), in place.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new(
                "axpy",
                self.shape.to_string(),
                other.shape.to_string(),
            ));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sum of absolute values (the ℓ1 norm used by filter pruning).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Index of the largest element (ties resolve to the lowest index).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Matrix multiply: `self` is `[m, k]`, `rhs` is `[k, n]`, result `[m, n]`.
    ///
    /// Runs on the blocked multithreaded kernel in [`crate::gemm`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] unless both operands are 2-D with a matching
    /// inner dimension.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, ShapeError> {
        if self.shape.ndim() != 2 || rhs.shape.ndim() != 2 {
            return Err(ShapeError::new(
                "matmul",
                "two 2-D operands",
                format!("{} and {}", self.shape, rhs.shape),
            ));
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (rhs.shape.dim(0), rhs.shape.dim(1));
        if k != k2 {
            return Err(ShapeError::new(
                "matmul",
                format!("inner dim {k}"),
                format!("inner dim {k2}"),
            ));
        }
        let mut out = Tensor::zeros(&[m, n]);
        gemm::gemm(m, k, n, &self.data, &rhs.data, &mut out.data);
        Ok(out)
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the tensor is not 2-D.
    pub fn transpose(&self) -> Result<Tensor, ShapeError> {
        if self.shape.ndim() != 2 {
            return Err(ShapeError::new(
                "transpose",
                "2-D tensor",
                self.shape.to_string(),
            ));
        }
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(out)
    }

    /// Borrowing element access for a 4-D NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or an index is out of bounds.
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let d = self.shape.dims();
        assert_eq!(d.len(), 4, "at4 requires a 4-D tensor, got {}", self.shape);
        let (ch, hh, ww) = (d[1], d[2], d[3]);
        self.data[((n * ch + c) * hh + h) * ww + w]
    }

    /// Mutable element access for a 4-D NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 4-D or an index is out of bounds.
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let d = self.shape.dims();
        assert_eq!(d.len(), 4, "at4_mut requires a 4-D tensor, got {}", self.shape);
        let (ch, hh, ww) = (d[1], d[2], d[3]);
        &mut self.data[((n * ch + c) * hh + h) * ww + w]
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let t = t.reshape(&[2, 2]).unwrap();
        assert_eq!(t.dims(), &[2, 2]);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
        let c = Tensor::zeros(&[3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.l1_norm(), 6.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.l2_norm() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn at4_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 9.0;
        assert_eq!(t.at4(1, 2, 3, 4), 9.0);
        assert_eq!(t.as_slice()[t.len() - 1], 9.0);
    }
}
