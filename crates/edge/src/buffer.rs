//! The frame buffer between events: how many arrivals a `K`-deep buffer
//! in front of the credit server turns away.
//!
//! Per tick the server takes a Poisson batch of mean `a = λ·tick_s`
//! against the free slots, earns `m = μ·tick_s` of service credit,
//! serves one frame per whole credit, and — when the queue runs dry —
//! keeps at most `m + 1` credit for the next tick. Almost all loss of an
//! adequately provisioned server is that batch burstiness against `K`,
//! so a fluid queue cannot stand in for it (DESIGN.md §12).
//!
//! [`FrameBuffer`] carries the distribution of
//! `x = backlog − banked whole credits ∈ [−B, K]`, `B = min(⌊m + 1⌋, K)`,
//! observed after each tick's service, and steps it with the
//! deterministic token pattern `⌊(t + 1)m⌋ − ⌊t·m⌋` the credit
//! arithmetic produces while the server is busy. It never steps every
//! tick of a segment: it steps whole windows — `W` ticks with `W·m`
//! within rounding of an integer, so every window holds the same tokens —
//! until two consecutive windows block the same, and charges the rest
//! of the segment (and every later segment at the same `a`, `m`) at
//! that rate. The distribution survives rate and operating-point
//! changes, so the next solve starts warm.

/// Deepest buffer the chain models. A deeper one is treated as fluid by
/// the engine: at 64 slots batch burstiness blocks < 1 % even at
/// `a = m` and nothing measurable off it.
pub(crate) const CHAIN_MAX_DEPTH: usize = 64;

const STATES: usize = 2 * CHAIN_MAX_DEPTH + 1;

/// Two windows agree when their blocked fractions differ by less than
/// this (0.01 pp of loss) and their mean backlogs by less than ten times
/// this, relative to one frame more than the backlog — a buffer still
/// filling blocks nothing in either window.
const CONVERGED: f64 = 1e-4;

/// Service tokens of ticks `[from, to)` at `m` credits per tick. The
/// nudge keeps a whole product whole (`5 × 2.8` is 13.999… in floats),
/// so a periodic pattern stays periodic.
pub(crate) fn tokens(m: f64, from: u64, to: u64) -> usize {
    let whole = |tick: u64| (tick as f64 * m + 1e-9).floor();
    (whole(to) - whole(from)) as usize
}

/// The window length in `16..=64` whose token count is closest to whole.
fn window(m: f64) -> u64 {
    let miss = |w: u64| {
        let x = w as f64 * m;
        (x - x.round()).abs() / w as f64
    };
    (16..=64).fold(16, |best, w| if miss(w) < miss(best) { w } else { best })
}

/// Expected loss and backlog of a segment (see the module docs).
pub(crate) struct FrameBuffer {
    depth: usize,
    /// The `(a, m)` everything below was computed for.
    a: f64,
    m: f64,
    bank: usize,
    window: u64,
    /// `P(A = j)`, `P(A ≥ j)` and `E[(A − j)⁺]` for `j ≤ depth`.
    pmf: [f64; CHAIN_MAX_DEPTH + 1],
    tail: [f64; CHAIN_MAX_DEPTH + 1],
    excess: [f64; CHAIN_MAX_DEPTH + 1],
    /// `pi[x + bank]`, and the scratch one tick's arrivals land in.
    pi: [f64; STATES],
    held: [f64; STATES],
    /// `(blocked, backlog)` summed over the last whole window stepped.
    last_window: Option<(f64, f64)>,
    /// Per-tick `(blocked, backlog)` once two windows agreed.
    steady: Option<(f64, f64)>,
}

impl FrameBuffer {
    /// An empty buffer of `depth ≤ CHAIN_MAX_DEPTH` slots.
    pub(crate) fn new(depth: usize) -> Self {
        assert!(depth <= CHAIN_MAX_DEPTH, "deeper buffers are fluid");
        let mut buffer = FrameBuffer {
            depth,
            a: f64::NAN,
            m: f64::NAN,
            bank: 0,
            window: 16,
            pmf: [0.0; CHAIN_MAX_DEPTH + 1],
            tail: [0.0; CHAIN_MAX_DEPTH + 1],
            excess: [0.0; CHAIN_MAX_DEPTH + 1],
            pi: [0.0; STATES],
            held: [0.0; STATES],
            last_window: None,
            steady: None,
        };
        buffer.reset(0);
        buffer
    }

    /// Collapses the distribution onto `backlog` frames and no credit
    /// (service resuming after a reconfiguration).
    pub(crate) fn reset(&mut self, backlog: usize) {
        self.pi = [0.0; STATES];
        self.pi[self.bank + backlog.min(self.depth)] = 1.0;
        self.last_window = None;
        self.steady = None;
    }

    /// Mean frames in the buffer under the current distribution.
    pub(crate) fn mean_backlog(&self) -> f64 {
        (1..=self.depth).map(|q| q as f64 * self.pi[self.bank + q]).sum()
    }

    fn retune(&mut self, a: f64, m: f64) {
        let bank = ((m + 1.0).floor() as usize).min(self.depth);
        // Re-base `pi[x + bank]`; credit beyond the new bank is capped.
        let mut pi = [0.0; STATES];
        for (i, &w) in self.pi[..=self.bank + self.depth].iter().enumerate() {
            pi[(i + bank).saturating_sub(self.bank)] += w;
        }
        self.pi = pi;
        self.bank = bank;
        self.window = window(m);
        let (mut below, mut mass_below) = (0.0f64, 0.0f64);
        let mut p = (-a).exp();
        for j in 0..=self.depth {
            self.pmf[j] = p;
            self.tail[j] = (1.0 - below).max(0.0);
            self.excess[j] = (a - mass_below - j as f64 * self.tail[j]).max(0.0);
            below += p;
            mass_below += j as f64 * p;
            p *= a / (j + 1) as f64;
        }
        (self.a, self.m) = (a, m);
        self.last_window = None;
        self.steady = None;
    }

    /// One tick with `served` tokens; returns the expected blocked
    /// frames.
    fn step(&mut self, served: usize) -> f64 {
        let (depth, bank) = (self.depth, self.bank);
        let states = bank + depth + 1;
        // After arrivals, before service: `held[i + j]` for state index
        // `i` admitting `j` frames — the index counts frames plus the
        // credit offset, so serving is one shift for every state.
        let held = &mut self.held[..states];
        held.fill(0.0);
        let mut blocked = 0.0;
        for (i, &w) in self.pi[..states].iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let free = depth - i.saturating_sub(bank);
            blocked += w * self.excess[free];
            for (h, p) in held[i..i + free].iter_mut().zip(&self.pmf[..free]) {
                *h += w * p;
            }
            held[depth + i.min(bank)] += w * self.tail[free];
        }
        // Service: whatever the tokens out-run is banked, up to `bank`.
        let cut = served.min(states - 1);
        self.pi[0] = held[..=cut].iter().sum();
        self.pi[1..states - cut].copy_from_slice(&held[cut + 1..]);
        self.pi[states - cut..states].fill(0.0);
        blocked
    }

    /// Serves ticks `[from, from + ticks)` at `a` mean arrivals and `m`
    /// credits per tick; returns the expected frames blocked and the
    /// expected backlog summed over the ticks (frame·ticks of waiting).
    pub(crate) fn serve(&mut self, a: f64, m: f64, from: u64, ticks: u64) -> (f64, f64) {
        if a != self.a || m != self.m {
            self.retune(a, m);
        }
        let (mut blocked, mut waiting) = (0.0, 0.0);
        let mut tick = from;
        let end = from + ticks;
        while tick < end && self.steady.is_none() {
            let span = self.window.min(end - tick);
            let (mut b, mut w) = (0.0, 0.0);
            for t in tick..tick + span {
                b += self.step(tokens(m, t, t + 1));
                w += self.mean_backlog();
            }
            blocked += b;
            waiting += w;
            tick += span;
            if span == self.window {
                let len = span as f64;
                if self.last_window.is_some_and(|(last_b, last_w)| {
                    (b - last_b).abs() <= CONVERGED * a * len
                        && (w - last_w).abs() <= 10.0 * CONVERGED * (len + w)
                }) {
                    self.steady = Some((b / len, w / len));
                }
                self.last_window = Some((b, w));
            }
        }
        if let Some((b, w)) = self.steady {
            let rest = (end - tick) as f64;
            blocked += b * rest;
            waiting += w * rest;
        }
        (blocked, waiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::poisson;
    use adapex_tensor::rng::rng_from_seed;

    /// The tick recurrence the chain stands in for, verbatim from the
    /// retired tick loop: `(offered, lost, Σ backlog after service)`.
    fn tick_recurrence(a: f64, m: f64, depth: usize, ticks: u64, seed: u64) -> (usize, usize, usize) {
        let mut rng = rng_from_seed(seed);
        let (mut queue, mut credit) = (0usize, 0.0f64);
        let (mut offered, mut lost, mut waiting) = (0, 0, 0);
        for _ in 0..ticks {
            let arrivals = poisson(a, &mut rng);
            offered += arrivals;
            let admitted = arrivals.min(depth - queue);
            lost += arrivals - admitted;
            queue += admitted;
            credit += m;
            while credit >= 1.0 {
                if queue == 0 {
                    credit = credit.min(m + 1.0);
                    break;
                }
                queue -= 1;
                credit -= 1.0;
            }
            waiting += queue;
        }
        (offered, lost, waiting)
    }

    #[test]
    fn blocking_tracks_the_tick_recurrence_across_the_grid() {
        // (a, m) from the paper's 600 IPS scale (a·1000 = 420..780) to
        // the harness's 3000 IPS one, under- and over-loaded, m < 1
        // included.
        let grid = [
            (0.42, 0.65),
            (0.60, 0.65),
            (0.78, 0.65),
            (0.78, 1.2),
            (0.30, 0.25),
            (2.1, 2.8),
            (3.0, 2.8),
            (3.9, 2.8),
            (3.0, 4.2),
            (5.5, 4.2),
            (7.5, 6.0),
            (7.5, 9.0),
            (3.17, 2.7431),
        ];
        const TICKS: u64 = 400_000;
        for depth in [1usize, 8, 64] {
            for (a, m) in grid {
                let (offered, lost, waiting) = tick_recurrence(a, m, depth, TICKS, 11);
                let mut buffer = FrameBuffer::new(depth);
                let (blocked, backlog) = buffer.serve(a, m, 0, TICKS);
                let want = 100.0 * lost as f64 / offered as f64;
                let got = 100.0 * blocked / (a * TICKS as f64);
                // One slot and m < 1 is the chain's worst case: which
                // tick the lone credit matures in decides everything,
                // and the chain keeps the token phase global.
                let slack = if depth == 1 { 1.2 } else { 0.3 };
                assert!(
                    (got - want).abs() <= slack,
                    "K={depth} a={a} m={m}: chain {got:.3} % vs ticks {want:.3} %"
                );
                let (want, got) = (waiting as f64 / TICKS as f64, backlog / TICKS as f64);
                assert!(
                    (got - want).abs() <= 0.15 + 0.06 * want,
                    "K={depth} a={a} m={m}: backlog {got:.3} vs {want:.3}"
                );
            }
        }
    }

    #[test]
    fn a_steady_segment_costs_no_steps_and_a_change_restarts_warm() {
        let mut buffer = FrameBuffer::new(8);
        let first = buffer.serve(3.0, 2.8, 0, 1_000);
        assert!(buffer.steady.is_some(), "1000 ticks must converge");
        let pi = buffer.pi;
        let again = buffer.serve(3.0, 2.8, 1_000, 1_000);
        assert_eq!(buffer.pi, pi, "a converged segment stepped the chain");
        assert!((again.0 - first.0).abs() < 0.01 * first.0);
        buffer.serve(3.6, 2.8, 2_000, 10);
        assert!(buffer.steady.is_none(), "a rate change must re-solve");
        assert_ne!(buffer.pi, pi);
    }

    #[test]
    fn the_distribution_stays_a_distribution() {
        for depth in [0usize, 1, 8, 64] {
            let mut buffer = FrameBuffer::new(depth);
            for (k, (a, m)) in [(3.0, 2.8), (0.0, 9.0), (1e6, 0.0), (0.5, 1e9), (4.0, 4.2)]
                .into_iter()
                .enumerate()
            {
                let (blocked, waiting) = buffer.serve(a, m, 977 * k as u64, 977);
                let mass: f64 = buffer.pi.iter().sum();
                assert!((mass - 1.0).abs() < 1e-9, "K={depth} a={a} m={m}: mass {mass}");
                assert!(buffer.pi.iter().all(|&w| w >= 0.0));
                assert!(blocked >= 0.0 && blocked <= a * 977.0 * (1.0 + 1e-9));
                assert!(waiting >= 0.0 && waiting <= (depth * 977) as f64 * (1.0 + 1e-9));
            }
        }
        // A zero-depth buffer blocks everything.
        let (blocked, _) = FrameBuffer::new(0).serve(3.0, 2.8, 0, 100);
        assert!((blocked - 300.0).abs() < 1e-9);
    }

    #[test]
    fn reset_collapses_onto_the_backlog() {
        let mut buffer = FrameBuffer::new(8);
        buffer.serve(3.5, 2.8, 0, 500);
        buffer.reset(8);
        assert_eq!(buffer.mean_backlog(), 8.0);
        // A full buffer in front of an idle-rate server drains.
        buffer.serve(0.0, 2.8, 500, 64);
        assert!(buffer.mean_backlog() < 1e-9);
    }

    #[test]
    fn windows_hold_whole_token_counts() {
        for m in [0.65, 2.8, 4.2, 6.3, 9.0, 1.2345] {
            let w = window(m);
            let x = w as f64 * m;
            assert!((x - x.round()).abs() < 0.05, "m={m}: window {w} holds {x} tokens");
        }
        assert_eq!(tokens(2.8, 0, 5), 14);
        assert_eq!(tokens(0.65, 3, 3), 0);
    }
}
