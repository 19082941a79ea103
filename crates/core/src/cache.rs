//! Persistent, content-addressed artifact cache for the library
//! generator.
//!
//! Every expensive work product of the design-space sweep — a trained
//! checkpoint, an [`ExitEvaluation`], a finished [`LibraryEntry`] — is
//! stored under a **fingerprint**: the
//! SHA-256 of a canonical JSON encoding of the exact inputs that
//! determine it (dataset config and seed, network/exit configs, train
//! and retrain configs, pruning rate and mode, folding and clock
//! parameters, target device, [`CACHE_FORMAT_EPOCH`] and
//! [`NUMERICS_VERSION`]). Re-running the generator with overlapping
//! configuration therefore *loads* instead of retraining, and an
//! extended sweep (say one new pruning rate) trains only the new
//! variants.
//!
//! Invariants the cache maintains:
//!
//! * **Byte-identity.** Checkpoints store raw `f32` bits and the JSON
//!   codec round-trips floats exactly (`float_roundtrip`), so artifacts
//!   produced from cache hits are byte-identical to a cold run's — for
//!   any worker count, since every fingerprint is a pure function of
//!   the configuration.
//! * **Atomic writes.** Files land via unique temp file + rename, so
//!   concurrent sweep workers (or whole concurrent generator runs)
//!   never observe a partial artifact; the last complete write wins.
//! * **Graceful degradation.** A corrupt, truncated or mismatched file
//!   is logged and treated as a miss — the value is recomputed and the
//!   slot overwritten, never returned wrong.
//!
//! Layout: `<cache-dir>/v<EPOCH>/<fingerprint>.<suffix>`. Bumping
//! [`CACHE_FORMAT_EPOCH`] retires every old entry at once (they also
//! stop being addressed, as the epoch is hashed into every key).

use crate::library::LibraryEntry;
use adapex_nn::checkpoint::{self, write_atomic};
use adapex_nn::eval::ExitEvaluation;
use adapex_nn::network::EarlyExitNetwork;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the on-disk format. Hashed into every fingerprint and
/// part of the directory name: bump it whenever the meaning of a cached
/// artifact changes (checkpoint wire format, entry semantics, …).
pub const CACHE_FORMAT_EPOCH: u32 = 1;

/// Version of the training and evaluation numerics: the bits a given
/// configuration trains to. Hashed into every fingerprint (not into the
/// directory name), so bumping it turns every cached checkpoint,
/// evaluation and entry into a miss. `tests/training_fingerprint.rs`
/// pins it beside the committed hash of a small generation: a change
/// that re-blesses that hash bumps this constant with it, so no cache
/// written under the old numerics can answer a run of the new ones.
///
/// Version 1 is the numerics since the data generator's release-build
/// miscompile was fixed; caches written before it carry no numerics
/// version and miss.
pub const NUMERICS_VERSION: u32 = 1;

/// SHA-256 of `bytes`, lower-case hex.
pub fn sha256_hex(bytes: &[u8]) -> String {
    let digest = sha256(bytes);
    let mut out = String::with_capacity(64);
    for b in digest {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Plain SHA-256 (FIPS 180-4), dependency-free.
fn sha256(bytes: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Pad: 0x80, zeros, 64-bit bit length.
    let mut msg = bytes.to_vec();
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Fingerprints `key` under a `label` namespace: SHA-256 of
/// `label \0 epoch \0 numerics \0 canonical-JSON(key)`, as lower-case
/// hex, where `epoch` is [`CACHE_FORMAT_EPOCH`] and `numerics` is
/// [`NUMERICS_VERSION`], each as four little-endian bytes.
///
/// The JSON encoding is canonical because every key type serializes
/// fields in declaration order and any maps involved (e.g.
/// `FoldingConfig`) are `BTreeMap`s; `float_roundtrip` makes the float
/// text exact. Two configs fingerprint equal iff they would produce the
/// same artifact.
pub fn fingerprint<T: Serialize>(label: &str, key: &T) -> String {
    fingerprint_under(NUMERICS_VERSION, label, key)
}

fn fingerprint_under<T: Serialize>(numerics: u32, label: &str, key: &T) -> String {
    let json = serde_json::to_string(key).expect("cache keys are plain data");
    let mut buf = Vec::with_capacity(label.len() + json.len() + 16);
    buf.extend_from_slice(label.as_bytes());
    buf.push(0);
    buf.extend_from_slice(&CACHE_FORMAT_EPOCH.to_le_bytes());
    buf.push(0);
    buf.extend_from_slice(&numerics.to_le_bytes());
    buf.push(0);
    buf.extend_from_slice(json.as_bytes());
    sha256_hex(&buf)
}

/// Hit/miss counters for one run, split by artifact kind.
///
/// "Miss" counts probes that had to recompute; artifacts that were
/// never probed (e.g. checkpoints skipped because the finished entry
/// already hit) count in neither column.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Trained-checkpoint loads that hit.
    pub checkpoint_hits: u64,
    /// Trained-checkpoint probes that missed (→ train).
    pub checkpoint_misses: u64,
    /// `ExitEvaluation` loads that hit.
    pub eval_hits: u64,
    /// `ExitEvaluation` probes that missed (→ re-evaluate).
    pub eval_misses: u64,
    /// Finished `LibraryEntry` loads that hit.
    pub entry_hits: u64,
    /// Finished `LibraryEntry` probes that missed (→ full rebuild).
    pub entry_misses: u64,
}

impl CacheStats {
    /// Total hits across all artifact kinds.
    pub fn hits(&self) -> u64 {
        self.checkpoint_hits + self.eval_hits + self.entry_hits
    }

    /// Total misses across all artifact kinds.
    pub fn misses(&self) -> u64 {
        self.checkpoint_misses + self.eval_misses + self.entry_misses
    }

    /// `true` when at least one probe happened and none missed — the
    /// fully-warm re-run the CI determinism check asserts.
    pub fn all_hits(&self) -> bool {
        self.misses() == 0 && self.hits() > 0
    }
}

/// `N hits / M misses (entries h/m, checkpoints h/m, evals h/m)`, the
/// line the CLI and the paper run print after a generation.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses (entries {}/{}, checkpoints {}/{}, evals {}/{})",
            self.hits(),
            self.misses(),
            self.entry_hits,
            self.entry_misses,
            self.checkpoint_hits,
            self.checkpoint_misses,
            self.eval_hits,
            self.eval_misses,
        )
    }
}

#[derive(Default)]
struct StatCounters {
    checkpoint_hits: AtomicU64,
    checkpoint_misses: AtomicU64,
    eval_hits: AtomicU64,
    eval_misses: AtomicU64,
    entry_hits: AtomicU64,
    entry_misses: AtomicU64,
}

/// Handle to one on-disk cache directory (epoch subdirectory included).
///
/// Shared by reference across sweep workers; all operations are safe
/// under concurrency (reads see complete files or nothing, writes are
/// temp-file + rename) and failures only cost recomputation.
pub struct ArtifactCache {
    root: PathBuf,
    stats: StatCounters,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl ArtifactCache {
    /// Opens (lazily creating) the cache rooted at
    /// `dir/v<CACHE_FORMAT_EPOCH>`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactCache {
            root: dir.into().join(format!("v{CACHE_FORMAT_EPOCH}")),
            stats: StatCounters::default(),
        }
    }

    /// The epoch directory artifacts live in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of this handle's hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let s = &self.stats;
        CacheStats {
            checkpoint_hits: s.checkpoint_hits.load(Ordering::Relaxed),
            checkpoint_misses: s.checkpoint_misses.load(Ordering::Relaxed),
            eval_hits: s.eval_hits.load(Ordering::Relaxed),
            eval_misses: s.eval_misses.load(Ordering::Relaxed),
            entry_hits: s.entry_hits.load(Ordering::Relaxed),
            entry_misses: s.entry_misses.load(Ordering::Relaxed),
        }
    }

    fn path(&self, fp: &str, suffix: &str) -> PathBuf {
        self.root.join(format!("{fp}.{suffix}"))
    }

    fn load_json<T: Deserialize>(&self, fp: &str, suffix: &str) -> Option<T> {
        let path = self.path(fp, suffix);
        let text = std::fs::read_to_string(&path).ok()?;
        match serde_json::from_str(&text) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!(
                    "[adapex-cache] corrupt {} ({e}); recomputing",
                    path.display()
                );
                None
            }
        }
    }

    fn store_json<T: Serialize>(&self, fp: &str, suffix: &str, value: &T) {
        let path = self.path(fp, suffix);
        let json = match serde_json::to_string(value) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("[adapex-cache] cannot encode {}: {e}", path.display());
                return;
            }
        };
        if let Err(e) = write_atomic(&path, json.as_bytes()) {
            eprintln!("[adapex-cache] cannot write {}: {e}", path.display());
        }
    }

    /// Loads the checkpoint at `fp` into `net`. Returns `true` on a hit;
    /// a missing, corrupt or architecture-mismatched file counts as a
    /// miss and leaves `net` untouched.
    pub fn load_checkpoint_into(&self, fp: &str, net: &mut EarlyExitNetwork) -> bool {
        let path = self.path(fp, "ckpt");
        let hit = match std::fs::read(&path) {
            Ok(bytes) => match checkpoint::load_checkpoint_bytes(net, &bytes) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!(
                        "[adapex-cache] corrupt {} ({e}); recomputing",
                        path.display()
                    );
                    false
                }
            },
            Err(_) => false,
        };
        let slot = if hit {
            &self.stats.checkpoint_hits
        } else {
            &self.stats.checkpoint_misses
        };
        slot.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores `net`'s parameters as the checkpoint for `fp`.
    pub fn store_checkpoint(&self, fp: &str, net: &EarlyExitNetwork) {
        let path = self.path(fp, "ckpt");
        if let Err(e) = checkpoint::save_checkpoint(net, &path) {
            eprintln!("[adapex-cache] cannot write {}: {e}", path.display());
        }
    }

    /// Loads the `ExitEvaluation` stored at `fp`, if intact and shaped
    /// for a net with `exits` exits over `samples` test images. A file
    /// of any other shape is handled like a corrupt one: logged, and a
    /// miss.
    pub fn load_eval(&self, fp: &str, exits: usize, samples: usize) -> Option<ExitEvaluation> {
        let got = self
            .load_json::<ExitEvaluation>(fp, "eval.json")
            .filter(|eval| {
                let fits = eval.samples == samples
                    && eval.correct.len() == exits
                    && eval.confidence.len() == exits
                    && eval.correct.iter().all(|c| c.len() == samples)
                    && eval.confidence.iter().all(|c| c.len() == samples);
                if !fits {
                    eprintln!(
                        "[adapex-cache] mis-shaped {} (want {exits} exits x {samples} \
                         samples); recomputing",
                        self.path(fp, "eval.json").display()
                    );
                }
                fits
            });
        let slot = if got.is_some() {
            &self.stats.eval_hits
        } else {
            &self.stats.eval_misses
        };
        slot.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Stores a variant's `ExitEvaluation` under `fp`.
    pub fn store_eval(&self, fp: &str, eval: &ExitEvaluation) {
        self.store_json(fp, "eval.json", eval);
    }

    /// Loads the finished `LibraryEntry` stored at `fp`, if intact and
    /// shaped for sweep position `id` with `points` operating points. A
    /// file of any other shape is handled like a corrupt one: logged,
    /// and a miss, so the entry is rebuilt and its slot overwritten.
    pub fn load_entry(&self, fp: &str, id: usize, points: usize) -> Option<LibraryEntry> {
        let got = self
            .load_json::<LibraryEntry>(fp, "entry.json")
            .filter(|entry| {
                let fits = entry.id == id && entry.points.len() == points;
                if !fits {
                    eprintln!(
                        "[adapex-cache] mis-shaped {} (want id {id} with {points} points, \
                         got id {} with {} points); recomputing",
                        self.path(fp, "entry.json").display(),
                        entry.id,
                        entry.points.len()
                    );
                }
                fits
            });
        let slot = if got.is_some() {
            &self.stats.entry_hits
        } else {
            &self.stats.entry_misses
        };
        slot.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Stores a finished `LibraryEntry` under `fp`.
    pub fn store_entry(&self, fp: &str, entry: &LibraryEntry) {
        self.store_json(fp, "entry.json", entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_nn::cnv::{CnvConfig, ExitsConfig};

    #[test]
    fn stats_print_totals_then_each_kind() {
        let stats = CacheStats {
            checkpoint_hits: 1,
            checkpoint_misses: 2,
            eval_hits: 3,
            eval_misses: 4,
            entry_hits: 5,
            entry_misses: 6,
        };
        assert_eq!(
            stats.to_string(),
            "9 hits / 12 misses (entries 5/6, checkpoints 1/2, evals 3/4)"
        );
    }

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-4 / RFC 6234 test vectors.
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Exercise the multi-block path (padding crosses a block).
        assert_eq!(
            sha256_hex(&[b'a'; 64]),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn fingerprints_separate_labels_and_keys() {
        #[derive(Serialize)]
        struct Key {
            rate: f64,
            id: usize,
        }
        let a = fingerprint("entry", &Key { rate: 0.3, id: 1 });
        let b = fingerprint("entry", &Key { rate: 0.3, id: 2 });
        let c = fingerprint("model", &Key { rate: 0.3, id: 1 });
        assert_eq!(a.len(), 64);
        assert_ne!(a, b, "different keys must not collide");
        assert_ne!(a, c, "labels namespace the keys");
        assert_eq!(a, fingerprint("entry", &Key { rate: 0.3, id: 1 }));
    }

    #[test]
    fn another_numerics_version_moves_every_fingerprint() {
        // A numerics bump must retire checkpoints ("model", "variant"
        // stems, evaluations stored beside them) and finished entries
        // alike: no label may keep its address.
        let key = [0.25_f64, 0.5];
        for label in ["model", "variant", "entry"] {
            let now = fingerprint(label, &key);
            assert_eq!(now, fingerprint_under(NUMERICS_VERSION, label, &key));
            for other in [0, NUMERICS_VERSION + 1, u32::MAX] {
                assert_ne!(
                    now,
                    fingerprint_under(other, label, &key),
                    "label {label:?} kept its address under numerics {other}"
                );
            }
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_fall_back() {
        let dir = std::env::temp_dir().join(format!("adapex-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(&dir);
        let src = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 3);
        let mut dst = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 9);

        assert!(!cache.load_checkpoint_into("deadbeef", &mut dst), "cold cache misses");
        cache.store_checkpoint("deadbeef", &src);
        assert!(cache.load_checkpoint_into("deadbeef", &mut dst));
        assert_eq!(
            serde_json::to_string(&src).unwrap(),
            serde_json::to_string(&dst).unwrap()
        );

        // Corrupt the file on disk: the next load must miss, not err.
        let path = cache.root().join("deadbeef.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let before = dst.clone();
        assert!(!cache.load_checkpoint_into("deadbeef", &mut dst));
        assert_eq!(dst, before);

        let stats = cache.stats();
        assert_eq!(stats.checkpoint_hits, 1);
        assert_eq!(stats.checkpoint_misses, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_artifacts_roundtrip_and_corruption_falls_back() {
        let dir = std::env::temp_dir().join(format!("adapex-cache-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(&dir);
        let eval = ExitEvaluation {
            correct: vec![vec![true, false]],
            confidence: vec![vec![0.25, 0.75]],
            samples: 2,
        };
        assert!(cache.load_eval("aa", 1, 2).is_none());
        cache.store_eval("aa", &eval);
        assert_eq!(cache.load_eval("aa", 1, 2), Some(eval));
        // Intact JSON of another shape is a miss too.
        assert!(cache.load_eval("aa", 2, 2).is_none(), "exit count");
        assert!(cache.load_eval("aa", 1, 3).is_none(), "sample count");

        std::fs::write(cache.root().join("aa.eval.json"), b"{not json").unwrap();
        assert!(cache.load_eval("aa", 1, 2).is_none(), "corrupt JSON is a miss");

        let stats = cache.stats();
        assert_eq!(stats.eval_hits, 1);
        assert_eq!(stats.eval_misses, 4);
        assert!(!stats.all_hits());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
