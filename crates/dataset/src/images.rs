use crate::Difficulty;

/// A set of labelled CHW images stored in one contiguous buffer.
///
/// Images are `f32` in roughly `[-1, 1]` (zero-mean, matching the
/// normalization Brevitas applies before CNV's first quantized layer).
///
/// ```
/// use adapex_dataset::LabeledImages;
///
/// let mut set = LabeledImages::new(1, 2, 2);
/// set.push(&[0.0, 0.1, 0.2, 0.3], 1, adapex_dataset::Difficulty::Easy);
/// assert_eq!(set.len(), 1);
/// assert_eq!(set.label(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LabeledImages {
    data: Vec<f32>,
    labels: Vec<usize>,
    difficulties: Vec<Difficulty>,
    channels: usize,
    height: usize,
    width: usize,
}

impl LabeledImages {
    /// Creates an empty set with the given image geometry.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        LabeledImages {
            data: Vec::new(),
            labels: Vec::new(),
            difficulties: Vec::new(),
            channels,
            height,
            width,
        }
    }

    /// Appends one image.
    ///
    /// # Panics
    ///
    /// Panics if `image.len()` is not `channels * height * width`.
    pub fn push(&mut self, image: &[f32], label: usize, difficulty: Difficulty) {
        assert_eq!(image.len(), self.image_len(), "image length");
        self.data.extend_from_slice(image);
        self.labels.push(label);
        self.difficulties.push(difficulty);
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the set holds no images.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Elements per image (`channels * height * width`).
    pub fn image_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Image geometry `(channels, height, width)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Pixel data of image `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn image(&self, i: usize) -> &[f32] {
        let len = self.image_len();
        &self.data[i * len..(i + 1) * len]
    }

    /// Label of image `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Difficulty stratum of image `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn difficulty(&self, i: usize) -> Difficulty {
        self.difficulties[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The full pixel buffer (`len * image_len` floats).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Fraction of samples drawn from the easy stratum.
    pub fn easy_fraction(&self) -> f64 {
        if self.difficulties.is_empty() {
            return 0.0;
        }
        let easy = self
            .difficulties
            .iter()
            .filter(|d| **d == Difficulty::Easy)
            .count();
        easy as f64 / self.difficulties.len() as f64
    }

    /// Iterator over `(start, end)` index ranges of size `batch_size`
    /// (the final batch may be short), in the order given by `order`.
    ///
    /// `order` is typically a seeded shuffle of `0..len` produced by the
    /// training loop; pass `None` for natural order.
    pub fn batches<'a>(&'a self, batch_size: usize, order: Option<&'a [usize]>) -> Batches<'a> {
        Batches {
            set: self,
            order,
            batch_size: batch_size.max(1),
            next: 0,
        }
    }

    /// Gathers the images at `indices` into one contiguous buffer plus the
    /// matching labels — the mini-batch layout the training loop consumes.
    pub fn gather(&self, indices: &[usize]) -> (Vec<f32>, Vec<usize>) {
        let mut data = Vec::with_capacity(indices.len() * self.image_len());
        let mut labels = Vec::with_capacity(indices.len());
        self.gather_into(indices, &mut data, &mut labels);
        (data, labels)
    }

    /// [`LabeledImages::gather`] into the caller's buffers, which it
    /// clears first: buffers with room for the batch take it without
    /// allocating.
    pub fn gather_into(&self, indices: &[usize], data: &mut Vec<f32>, labels: &mut Vec<usize>) {
        data.clear();
        labels.clear();
        for &i in indices {
            data.extend_from_slice(self.image(i));
            labels.push(self.labels[i]);
        }
    }
}

/// Iterator of mini-batch index vectors over a [`LabeledImages`] set.
#[derive(Debug)]
pub struct Batches<'a> {
    set: &'a LabeledImages,
    order: Option<&'a [usize]>,
    batch_size: usize,
    next: usize,
}

impl Iterator for Batches<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        let total = self.set.len();
        if self.next >= total {
            return None;
        }
        let end = (self.next + self.batch_size).min(total);
        let batch = match self.order {
            Some(order) => order[self.next..end].to_vec(),
            None => (self.next..end).collect(),
        };
        self.next = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_images() -> LabeledImages {
        let mut set = LabeledImages::new(1, 1, 2);
        set.push(&[0.0, 1.0], 0, Difficulty::Easy);
        set.push(&[2.0, 3.0], 1, Difficulty::Hard);
        set.push(&[4.0, 5.0], 2, Difficulty::Easy);
        set
    }

    #[test]
    fn push_and_access() {
        let set = three_images();
        assert_eq!(set.len(), 3);
        assert_eq!(set.image(1), &[2.0, 3.0]);
        assert_eq!(set.label(2), 2);
        assert_eq!(set.difficulty(1), Difficulty::Hard);
        assert!((set.easy_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "image length")]
    fn push_rejects_wrong_length() {
        let mut set = LabeledImages::new(1, 1, 2);
        set.push(&[0.0], 0, Difficulty::Easy);
    }

    #[test]
    fn batches_cover_everything() {
        let set = three_images();
        let batches: Vec<_> = set.batches(2, None).collect();
        assert_eq!(batches, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn batches_follow_order() {
        let set = three_images();
        let order = [2, 0, 1];
        let batches: Vec<_> = set.batches(2, Some(&order)).collect();
        assert_eq!(batches, vec![vec![2, 0], vec![1]]);
    }

    #[test]
    fn gather_builds_contiguous_batch() {
        let set = three_images();
        let (data, labels) = set.gather(&[2, 0]);
        assert_eq!(data, vec![4.0, 5.0, 0.0, 1.0]);
        assert_eq!(labels, vec![2, 0]);
    }
}
