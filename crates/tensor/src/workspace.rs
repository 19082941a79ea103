//! Pooled scratch buffers for the allocation-free kernel hot path.
//!
//! The training loop runs the same layer shapes every batch, so every
//! scratch buffer it needs (im2col columns, per-worker gradient
//! accumulators, activation storage) can be recycled instead of
//! re-allocated. Two global pools back this:
//!
//! * [`with_workspace`] checks a [`Workspace`] — a bundle of named
//!   kernel scratch vectors — out of a pool for the duration of a
//!   closure. Worker threads spawned by `parallel_for_chunks` are
//!   ephemeral, so `thread_local!` storage would never be re-hit; a shared
//!   pool survives across scoped-thread lifetimes.
//! * [`take_f32`] / [`recycle_f32`] (and the `usize` twins) hand out
//!   individual buffers for longer-lived storage such as activations,
//!   whose lifetime doesn't nest inside one closure.
//!
//! Buffers keep their capacity across the clear/resize cycle, so after
//! a warmup pass over the largest shapes in play, steady-state traffic
//! through the pools performs no heap allocation. Pools are bounded
//! (`MAX_POOLED` buffers each); overflow buffers are simply dropped.

use std::sync::Mutex;

/// Upper bound on the number of buffers each pool retains. High enough
/// for a full training step's activations plus one workspace per worker
/// thread; low enough that the retained memory stays a small multiple
/// of one batch's working set.
const MAX_POOLED: usize = 256;

static F32_POOL: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

/// Pops a pooled buffer whose capacity already covers `cap`, searching
/// from the most recently recycled end (cache-warm, and the first fit is
/// usually the same buffer this call site recycled last round). Falls
/// back to the top of the stack — the caller grows it once and the grown
/// capacity then stays in circulation, so steady-state traffic converges
/// to zero reallocation.
fn pop_fitting<T>(pool: &mut Vec<Vec<T>>, cap: usize) -> Option<Vec<T>> {
    match pool.iter().rposition(|v| v.capacity() >= cap) {
        Some(i) => Some(pool.swap_remove(i)),
        None => pool.pop(),
    }
}
static USIZE_POOL: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());
static WORKSPACES: Mutex<Vec<Workspace>> = Mutex::new(Vec::new());

/// Named scratch buffers for one worker's conv/linear/norm kernels.
///
/// Fields are plain `Vec`s so kernels can `clear`/`resize` them to the
/// current shape; capacity persists across checkouts.
#[derive(Debug, Default)]
pub struct Workspace {
    /// im2col column buffer (`[k*k*c_in, pixels]`).
    pub cols: Vec<f32>,
    /// Weight-gradient accumulator (a linear layer's `[out, in]`; a
    /// conv layer's transposed `[k*k*c_in, c_out]`).
    pub dw: Vec<f32>,
    /// Per-image weight gradient, accumulated into `dw` (same layout).
    pub dw_img: Vec<f32>,
    /// Bias-gradient accumulator (`[c_out]`).
    pub db: Vec<f32>,
    /// General scratch (the conv backward kernels' operands, softmax
    /// probabilities, …).
    pub scratch: Vec<f32>,
    /// Second general scratch for kernels that need two.
    pub scratch2: Vec<f32>,
    /// Bit-plane word buffer for the int2 engine's packed activations.
    pub bits: Vec<u64>,
    /// Bit-plane word buffer for the direct conv path's once-packed
    /// image rows (`pack_image_int2`); `bits` then holds the gathered
    /// window operands.
    pub img_bits: Vec<u64>,
}

/// Runs `f` with a pooled [`Workspace`], returning the workspace (and
/// its accumulated buffer capacity) to the pool afterwards.
///
/// Reentrant and thread-safe: nested or concurrent calls each get their
/// own workspace. If `f` panics the workspace is dropped, not pooled.
pub fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = WORKSPACES
        .lock()
        .ok()
        .and_then(|mut pool| pool.pop())
        .unwrap_or_default();
    let out = f(&mut ws);
    if let Ok(mut pool) = WORKSPACES.lock() {
        if pool.len() < MAX_POOLED {
            pool.push(ws);
        }
    }
    out
}

/// A zero-filled `f32` buffer of exactly `len` elements, drawn from the
/// pool when one is available. Pair with [`recycle_f32`].
pub fn take_f32(len: usize) -> Vec<f32> {
    let mut v = F32_POOL
        .lock()
        .ok()
        .and_then(|mut pool| pop_fitting(&mut pool, len))
        .unwrap_or_default();
    v.clear();
    v.resize(len, 0.0);
    v
}

/// A pooled `f32` buffer of exactly `len` elements with *unspecified*
/// contents — it may hold stale data from a previous use. For scratch the
/// caller fully overwrites before reading (e.g. a repacked matrix), this
/// skips the zero-fill of [`take_f32`]. Pair with [`recycle_f32`].
pub fn take_f32_uninit(len: usize) -> Vec<f32> {
    let mut v = F32_POOL
        .lock()
        .ok()
        .and_then(|mut pool| pop_fitting(&mut pool, len))
        .unwrap_or_default();
    if v.len() > len {
        v.truncate(len);
    } else {
        v.resize(len, 0.0);
    }
    v
}

/// A pooled `f32` buffer holding a copy of `src`.
pub fn take_f32_from(src: &[f32]) -> Vec<f32> {
    let mut v = F32_POOL
        .lock()
        .ok()
        .and_then(|mut pool| pop_fitting(&mut pool, src.len()))
        .unwrap_or_default();
    v.clear();
    v.extend_from_slice(src);
    v
}

/// Returns an `f32` buffer to the pool (its contents are irrelevant;
/// only capacity is reused).
pub fn recycle_f32(v: Vec<f32>) {
    if v.capacity() == 0 {
        return;
    }
    if let Ok(mut pool) = F32_POOL.lock() {
        if pool.len() < MAX_POOLED {
            pool.push(v);
        }
    }
}

/// A pooled `usize` buffer holding a copy of `src`.
pub fn take_usize_from(src: &[usize]) -> Vec<usize> {
    let mut v = USIZE_POOL
        .lock()
        .ok()
        .and_then(|mut pool| pop_fitting(&mut pool, src.len()))
        .unwrap_or_default();
    v.clear();
    v.extend_from_slice(src);
    v
}

/// Returns a `usize` buffer to the pool.
pub fn recycle_usize(v: Vec<usize>) {
    if v.capacity() == 0 {
        return;
    }
    if let Ok(mut pool) = USIZE_POOL.lock() {
        if pool.len() < MAX_POOLED {
            pool.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_f32_is_zeroed_even_after_recycling_dirty_buffers() {
        recycle_f32(vec![7.0; 32]);
        let v = take_f32(16);
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_from_copies_exactly() {
        let v = take_f32_from(&[1.0, 2.0, 3.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        recycle_f32(v);
        let d = take_usize_from(&[4, 5]);
        assert_eq!(d, vec![4, 5]);
        recycle_usize(d);
    }

    #[test]
    fn recycled_capacity_is_reused() {
        // Drain any pooled buffers so the pop below must see ours.
        while let Some(v) = F32_POOL.lock().unwrap().pop() {
            drop(v);
        }
        let mut big = Vec::with_capacity(1024);
        big.push(1.0f32);
        recycle_f32(big);
        let v = take_f32(8);
        assert!(v.capacity() >= 1024, "pooled capacity was not reused");
    }

    #[test]
    fn workspace_roundtrip_preserves_capacity() {
        with_workspace(|ws| {
            ws.cols.clear();
            ws.cols.resize(4096, 1.0);
        });
        // Some pooled workspace now has capacity; a checkout after the
        // return must not panic and must hand back a usable workspace.
        with_workspace(|ws| {
            ws.cols.clear();
            ws.cols.resize(16, 0.0);
            assert_eq!(ws.cols.len(), 16);
        });
    }
}
