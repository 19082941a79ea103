//! The benchmark's own input generators.
//!
//! Image pools, arrival schedules and class draws come from here and
//! from nowhere in the program under test (not `adapex::serve::
//! generate_arrivals`, not the vendored `rand`), so the load offered to
//! the program cannot move when the program changes. Everything is a
//! pure function of the `--seed` argument.

use adapex::serve::Arrival;

/// SplitMix64: seeds the main generator and derives sub-streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Generator for stream `stream` of `seed`; distinct streams of one
    /// seed are statistically independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut sm = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, 1)` with 24 random bits.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }

    /// Exponential with mean 1.
    pub fn next_exp(&mut self) -> f64 {
        -(1.0 - self.next_f64()).ln()
    }
}

/// `n` images of `per` uniform `[0, 1)` pixels, sample-major.
pub fn image_pool(seed: u64, n: usize, per: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed, 0x1);
    (0..n * per).map(|_| rng.next_f32()).collect()
}

/// How a unit-rate schedule is stretched onto the time axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Poisson arrivals at the mean rate.
    Steady,
    /// Square wave: `on_s` seconds at twice the mean rate, then `on_s`
    /// seconds of silence.
    OnOff {
        /// Length of each half period in seconds.
        on_s: f64,
    },
}

/// A unit-rate Poisson schedule with class draws, realised at any rate
/// by scaling time by `1 / rate`.
///
/// One schedule serves every rate of a run (`r1`, `r2`, `r3` and each
/// bisection probe), so two rates differ only in the scaling, never in
/// the random draws: arrival `i` is the same request, in the same
/// class, at every rate, and its time is non-increasing in the rate.
#[derive(Debug, Clone)]
pub struct UnitSchedule {
    /// Cumulative unit-rate arrival times.
    unit_times: Vec<f64>,
    /// Class index per arrival.
    classes: Vec<u8>,
    times_rng: Rng,
    class_rng: Rng,
    /// Cumulative class weights, last element 1.
    class_cdf: Vec<f64>,
}

impl UnitSchedule {
    /// Empty schedule over `class_weights` (relative, not normalised).
    ///
    /// # Panics
    ///
    /// Panics on empty or non-positive weights.
    pub fn new(seed: u64, class_weights: &[f64]) -> Self {
        let total: f64 = class_weights.iter().sum();
        assert!(total > 0.0, "class weights must sum to > 0");
        let mut acc = 0.0;
        let mut class_cdf: Vec<f64> = class_weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        *class_cdf.last_mut().expect("non-empty weights") = 1.0;
        UnitSchedule {
            unit_times: Vec::new(),
            classes: Vec::new(),
            times_rng: Rng::new(seed, 0x2),
            class_rng: Rng::new(seed, 0x3),
            class_cdf,
        }
    }

    fn extend_past(&mut self, unit_horizon: f64) {
        let mut t = self.unit_times.last().copied().unwrap_or(0.0);
        while t < unit_horizon {
            t += self.times_rng.next_exp();
            self.unit_times.push(t);
            let u = self.class_rng.next_f64();
            let class = self.class_cdf.iter().position(|&c| u < c).unwrap_or(0);
            self.classes.push(class as u8);
        }
    }

    /// The arrivals of the first `horizon_s` seconds at mean rate
    /// `rate_rps`, sorted by time.
    pub fn arrivals(&mut self, shape: Shape, rate_rps: f64, horizon_s: f64) -> Vec<Arrival> {
        assert!(
            rate_rps > 0.0 && horizon_s > 0.0,
            "rate and horizon must be positive"
        );
        self.extend_past(rate_rps * horizon_s);
        let mut out = Vec::with_capacity((rate_rps * horizon_s * 1.02) as usize + 16);
        for (&u, &class) in self.unit_times.iter().zip(&self.classes) {
            let t = shape.place(u / rate_rps);
            if t >= horizon_s {
                break;
            }
            out.push(Arrival {
                at_us: (t * 1e6) as u64,
                class: class as usize,
            });
        }
        out
    }
}

impl Shape {
    /// Maps mean-rate time `x` (seconds a steady process would take to
    /// reach this arrival) onto the wall axis. Monotone in `x`.
    fn place(self, x: f64) -> f64 {
        match self {
            Shape::Steady => x,
            Shape::OnOff { on_s } => {
                // At twice the mean rate the process needs x/2 seconds
                // of on-time; every full on-phase drags a silent one.
                let on_time = x / 2.0;
                let phases = (on_time / on_s).floor();
                phases * 2.0 * on_s + (on_time - phases * on_s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        assert_eq!(image_pool(7, 3, 5), image_pool(7, 3, 5));
        assert_ne!(image_pool(7, 3, 5), image_pool(8, 3, 5));
        let run = |seed| UnitSchedule::new(seed, &[1.0, 3.0]).arrivals(Shape::Steady, 500.0, 2.0);
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
        // Asking for a short horizon first must not change a later,
        // longer realisation.
        let mut s = UnitSchedule::new(11, &[1.0, 3.0]);
        s.arrivals(Shape::Steady, 500.0, 0.1);
        assert_eq!(s.arrivals(Shape::Steady, 500.0, 2.0), run(11));
    }

    #[test]
    fn rates_and_class_mix_are_honoured() {
        let mut s = UnitSchedule::new(3, &[1.0, 3.0]);
        for shape in [Shape::Steady, Shape::OnOff { on_s: 0.1 }] {
            let a = s.arrivals(shape, 2000.0, 20.0);
            let n = a.len() as f64;
            assert!((n / 40_000.0 - 1.0).abs() < 0.03, "{shape:?}: {n} arrivals");
            let gold = a.iter().filter(|x| x.class == 0).count() as f64 / n;
            assert!((gold - 0.25).abs() < 0.02, "{shape:?}: gold share {gold}");
            assert!(a.windows(2).all(|w| w[0].at_us <= w[1].at_us), "sorted");
        }
    }

    #[test]
    fn on_off_is_silent_every_other_phase() {
        let mut s = UnitSchedule::new(5, &[1.0]);
        let a = s.arrivals(Shape::OnOff { on_s: 0.1 }, 1000.0, 5.0);
        assert!(
            a.iter().all(|x| (x.at_us / 100_000) % 2 == 0),
            "arrival in an off phase"
        );
    }

    #[test]
    fn rate_scaling_is_monotone() {
        // Arrival i never moves later when the rate goes up, and the
        // number of arrivals inside a fixed horizon never goes down.
        for shape in [Shape::Steady, Shape::OnOff { on_s: 0.1 }] {
            let mut s = UnitSchedule::new(9, &[1.0, 3.0]);
            let mut prev: Option<Vec<Arrival>> = None;
            for rate in [400.0, 800.0, 801.0, 2500.0] {
                let cur = s.arrivals(shape, rate, 3.0);
                if let Some(p) = &prev {
                    assert!(cur.len() >= p.len(), "{shape:?} at {rate}");
                    for (a, b) in p.iter().zip(&cur) {
                        assert!(b.at_us <= a.at_us, "{shape:?} at {rate}");
                        assert_eq!(a.class, b.class);
                    }
                }
                prev = Some(cur);
            }
        }
    }
}
