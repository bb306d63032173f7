//! Forward evolution of the semi-Markov price process.
//!
//! Starting from the current price *and the time already spent at it*
//! (the semi-Markov state), evolve the joint distribution over
//! (price level, sojourn age) minute by minute across the next bidding
//! interval. Two summaries are exposed:
//!
//! * [`forecast`] — for every price level `s_l`, the average over the
//!   horizon of `P(price > s_l)`. This is the discretized Eq. 5: the
//!   expected fraction of the interval an instance bidding `b` spends
//!   out-of-bid, evaluated lazily for any `b` via
//!   [`Forecast::out_of_bid_fraction`]. Computing all levels at once makes
//!   the bidding algorithm's minimum-bid search O(levels) per zone instead
//!   of one evolution per candidate bid.
//! * [`survival_probability`] — the *absorbing* variant: the probability
//!   that the price never exceeds the bid during the horizon (the instance
//!   survives the whole interval). The paper's availability accounting is
//!   per-time-unit, so its Eq. 5 uses the expectation form; the absorbing
//!   form is kept for the ablation study.

use spot_market::Price;

use crate::kernel::FrozenKernel;

/// Tuning knobs for the forward evolution.
#[derive(Clone, Copy, Debug)]
pub struct ForecastConfig {
    /// Number of sojourn-age buckets tracked exactly; ages beyond this are
    /// collapsed into the last bucket (where the kernel's geometric-tail
    /// hazard applies). 180 minutes covers the ages that matter for the
    /// bidding intervals evaluated (1–12 h) at modest cost.
    pub max_age: usize,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        ForecastConfig { max_age: 180 }
    }
}

/// The per-level out-of-bid summary of one forward evolution.
#[derive(Clone, Debug)]
pub struct Forecast {
    /// The kernel's price levels (sorted ascending).
    level_prices: Vec<Price>,
    /// `above_fraction[l]` = average over the horizon of
    /// `P(price > level_prices[l])`.
    above_fraction: Vec<f64>,
    /// Horizon in minutes this forecast covers.
    horizon: u32,
}

impl Forecast {
    /// Average fraction of the horizon with `price > bid` — the
    /// out-of-bid failure probability of Eq. 5 before composition with the
    /// on-demand failure floor.
    pub fn out_of_bid_fraction(&self, bid: Price) -> f64 {
        // Prices live on the level ladder, so P(price > bid) equals
        // P(price > s_l) for the largest level s_l ≤ bid; a bid below the
        // lowest level is always out-of-bid.
        let idx = self.level_prices.partition_point(|&p| p <= bid);
        match idx.checked_sub(1) {
            None => 1.0,
            Some(l) => self.above_fraction[l],
        }
    }

    /// The horizon in minutes.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// The price levels the forecast is resolved on.
    pub fn levels(&self) -> &[Price] {
        &self.level_prices
    }
}

/// Precomputed transition tables for the evolution, laid out flat as
/// `[state × age]` rows (`row i` is `i * max_age .. (i + 1) * max_age`).
///
/// Each minute, mass at `(i, a)` either stays (`surv`) and ages to
/// `a + 1` (the last bucket absorbs its own survivors), or leaves for an
/// age-0 cell of the next state. Where the kernel has a well-supported
/// exact-sojourn conditional for `(i, a)`, the leaving mass follows it
/// (`exact`); everywhere else it follows state `i`'s marginal next-state
/// distribution, so the step accumulates one `marginal_out` scalar per
/// state (`haz_marg`) and distributes it once per state instead of once
/// per cell.
struct Tables {
    n: usize,
    max_age: usize,
    /// `1 − h` per cell, where `h` = P(leave state i during the minute that
    /// takes its age from a to a+1).
    surv: Vec<f64>,
    /// `h` where the marginal applies; 0 where an exact cell applies.
    haz_marg: Vec<f64>,
    /// State `i`'s exact cells are `exact[exact_rows[i]..exact_rows[i + 1]]`,
    /// by increasing age.
    exact_rows: Vec<usize>,
    exact: Vec<ExactCell>,
    /// `(j, p > 0)` targets of the exact cells.
    targets: Vec<(usize, f64)>,
    /// State `i`'s marginal targets are
    /// `marginal[marginal_rows[i]..marginal_rows[i + 1]]`, `(j, p > 0)`.
    marginal_rows: Vec<usize>,
    marginal: Vec<(usize, f64)>,
}

/// One (state, age) cell with a well-supported exact-sojourn conditional.
struct ExactCell {
    age: usize,
    hazard: f64,
    /// Its next states are `targets[start..end]`.
    start: usize,
    end: usize,
}

impl Tables {
    fn build(kernel: &FrozenKernel, max_age: usize) -> Tables {
        let n = kernel.n_states();
        let mut t = Tables {
            n,
            max_age,
            surv: Vec::with_capacity(n * max_age),
            haz_marg: Vec::with_capacity(n * max_age),
            exact_rows: vec![0],
            exact: Vec::new(),
            targets: Vec::new(),
            marginal_rows: vec![0],
            marginal: Vec::new(),
        };
        for i in 0..n as u16 {
            let hazard = kernel.hazards_up_to(i, max_age);
            let first = t.exact.len();
            kernel.for_each_exact_transition(i, max_age, |age, j, p| {
                let a = age as usize - 1;
                if t.exact.len() == first || t.exact[t.exact.len() - 1].age != a {
                    let start = t.targets.len();
                    t.exact.push(ExactCell {
                        age: a,
                        hazard: hazard[a],
                        start,
                        end: start,
                    });
                }
                t.targets.push((j as usize, p));
                t.exact.last_mut().expect("cell pushed").end = t.targets.len();
            });
            let row_start = t.haz_marg.len();
            t.surv.extend(hazard.iter().map(|&h| 1.0 - h));
            t.haz_marg.extend_from_slice(&hazard);
            for cell in &t.exact[first..] {
                t.haz_marg[row_start + cell.age] = 0.0;
            }
            t.exact_rows.push(t.exact.len());
            let marginal = kernel.marginal_next_state_dist(i);
            t.marginal
                .extend(marginal.into_iter().enumerate().filter(|&(_, p)| p > 0.0));
            t.marginal_rows.push(t.marginal.len());
        }
        t
    }
}

/// The (state, age) distribution in flight: two flat `[state × age]`
/// buffers and the live-age frontier.
///
/// After `t` minutes from `(s, a₀)`, every cell other than the start
/// cell's own survivor (age `a₀ + t`) entered its state at most `t`
/// minutes ago, so all mass of state `i` sits at ages `≤ hi[i]`, where
/// `hi[s] = min(a₀ + t, top)` and `hi[i] = min(t, top)` otherwise. Cells
/// above `hi[i]` hold exactly `0.0` in both buffers, so every loop stops
/// at the frontier.
struct Evolution<'t> {
    tables: &'t Tables,
    mass: Vec<f64>,
    next: Vec<f64>,
    hi: Vec<usize>,
    /// Age-0 inflow per state, accumulated during a step.
    inflow: Vec<f64>,
    /// Row sums of the mass the last step (or [`Self::sum_rows`]) read.
    row_sum: Vec<f64>,
}

impl<'t> Evolution<'t> {
    fn start(tables: &'t Tables, state: u16, age: u32) -> Evolution<'t> {
        let (n, width) = (tables.n, tables.max_age);
        let a0 = (age as usize).min(width - 1);
        let mut mass = vec![0.0; n * width];
        mass[state as usize * width + a0] = 1.0;
        let mut hi = vec![0; n];
        hi[state as usize] = a0;
        Evolution {
            tables,
            mass,
            next: vec![0.0; n * width],
            hi,
            inflow: vec![0.0; n],
            row_sum: vec![0.0; n],
        }
    }

    /// Evolve one minute, recording in `row_sum` the row sums of the mass
    /// it read. Only states `0..live` are evolved; the rest must hold no
    /// mass and receive none (their inflow is dropped), which is how the
    /// absorbing variant removes mass that crossed the bid.
    ///
    /// The arithmetic repeats the nested-`Vec` evolution operation for
    /// operation, so results are bit-identical: per state, the age shift,
    /// the marginal outflow and the row sum each run by increasing age;
    /// the age-0 inflow runs by source state, within it exact cells by age
    /// and then the marginal. Cells the old loop skipped contribute an
    /// exact `+0.0`, which leaves a non-negative sum unchanged.
    fn step(&mut self, live: usize) {
        let t = self.tables;
        let width = t.max_age;
        let top = width - 1;
        self.inflow.fill(0.0);
        for i in 0..live {
            let hi = self.hi[i];
            let row = i * width;
            let m = &self.mass[row..=row + hi];
            let out = &mut self.next[row..row + width];
            let surv = &t.surv[row..row + width];
            let haz = &t.haz_marg[row..row + width];
            let mut marginal_out = 0.0;
            let mut sum = 0.0;
            // Ages below the top bucket move up one; the top bucket keeps
            // its own survivors after those arriving from `top - 1`.
            let shift = hi.min(top - 1) + 1;
            for (((dst, &w), &s), &h) in out[1..=shift]
                .iter_mut()
                .zip(&m[..shift])
                .zip(&surv[..shift])
                .zip(&haz[..shift])
            {
                *dst = s * w;
                marginal_out += h * w;
                sum += w;
            }
            if hi == top {
                let w = m[top];
                out[top] += surv[top] * w;
                marginal_out += haz[top] * w;
                sum += w;
            }
            self.row_sum[i] = sum;
            for cell in &t.exact[t.exact_rows[i]..t.exact_rows[i + 1]] {
                if cell.age > hi {
                    break;
                }
                let w = m[cell.age];
                if w == 0.0 {
                    continue;
                }
                let hw = cell.hazard * w;
                for &(j, p) in &t.targets[cell.start..cell.end] {
                    self.inflow[j] += hw * p;
                }
            }
            if marginal_out > 0.0 {
                for &(j, p) in &t.marginal[t.marginal_rows[i]..t.marginal_rows[i + 1]] {
                    self.inflow[j] += marginal_out * p;
                }
            }
            self.hi[i] = (hi + 1).min(top);
        }
        for (j, &w) in self.inflow[..live].iter().enumerate() {
            self.next[j * width] = w;
        }
        std::mem::swap(&mut self.mass, &mut self.next);
    }

    /// Record in `row_sum` the row sums of the current mass of states
    /// `0..live`, by increasing age as [`Self::step`] does.
    fn sum_rows(&mut self, live: usize) {
        let width = self.tables.max_age;
        for i in 0..live {
            let row = i * width;
            self.row_sum[i] = self.mass[row..=row + self.hi[i]].iter().sum();
        }
    }
}

/// Add `P(price > s_l) = Σ_{i > l} row_sum[i]` to `above_sum[l]` for every
/// level, by suffix sums from the top level down.
fn accumulate_above(above_sum: &mut [f64], row_sum: &[f64]) {
    let mut suffix = 0.0;
    for (above, &sum) in above_sum.iter_mut().zip(row_sum).rev() {
        // above level l means strictly higher states.
        *above += suffix;
        suffix += sum;
    }
}

/// Run the forward evolution for `horizon` minutes from
/// `(start_state, start_age)` and summarize per-level out-of-bid
/// fractions.
pub fn forecast(
    kernel: &FrozenKernel,
    start_state: u16,
    start_age: u32,
    horizon: u32,
    config: ForecastConfig,
) -> Forecast {
    let n = kernel.n_states();
    assert!(n > 0, "cannot forecast from an empty kernel");
    assert!((start_state as usize) < n, "start state out of range");
    assert!(horizon > 0, "horizon must be positive");
    let max_age = config.max_age.max(2);
    let tables = Tables::build(kernel, max_age);
    let mut evolution = Evolution::start(&tables, start_state, start_age);

    // Minute t's row sums are taken while step t + 1 reads that mass; the
    // last minute's come from one final pass.
    let mut above_sum = vec![0.0f64; n];
    for minute in 0..horizon {
        evolution.step(n);
        if minute > 0 {
            accumulate_above(&mut above_sum, &evolution.row_sum);
        }
    }
    evolution.sum_rows(n);
    accumulate_above(&mut above_sum, &evolution.row_sum);

    let above_fraction = above_sum
        .iter()
        .map(|&s| (s / horizon as f64).clamp(0.0, 1.0))
        .collect();
    Forecast {
        level_prices: kernel.prices().to_vec(),
        above_fraction,
        horizon,
    }
}

/// Absorbing variant: probability that the price stays ≤ `bid` for the
/// entire horizon (the instance survives out-of-bid termination).
pub fn survival_probability(
    kernel: &FrozenKernel,
    bid: Price,
    start_state: u16,
    start_age: u32,
    horizon: u32,
    config: ForecastConfig,
) -> f64 {
    let n = kernel.n_states();
    assert!(n > 0, "cannot forecast from an empty kernel");
    assert!((start_state as usize) < n, "start state out of range");
    if kernel.prices()[start_state as usize] > bid {
        return 0.0; // already out of bid
    }
    let max_age = config.max_age.max(2);
    let tables = Tables::build(kernel, max_age);
    let alive_states = kernel.prices().partition_point(|&p| p <= bid);

    // States above the bid are never evolved: mass entering them is
    // absorbed (dropped) as it arrives.
    let mut evolution = Evolution::start(&tables, start_state, start_age);
    for _ in 0..horizon {
        evolution.step(alive_states);
    }
    evolution.sum_rows(alive_states);
    evolution.row_sum[..alive_states]
        .iter()
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spot_market::{PricePoint, PriceTrace};

    fn p(d: f64) -> Price {
        Price::from_dollars(d)
    }

    /// Deterministic alternation A(5) → B(3) → A(5) → …
    fn kernel() -> FrozenKernel {
        let mut points = Vec::new();
        let mut t = 0;
        for _ in 0..50 {
            points.push(PricePoint {
                minute: t,
                price: p(0.01),
            });
            t += 5;
            points.push(PricePoint {
                minute: t,
                price: p(0.02),
            });
            t += 3;
        }
        FrozenKernel::from_trace(&PriceTrace::new(points, t))
    }

    #[test]
    fn high_bid_never_out_of_bid() {
        let k = kernel();
        let f = forecast(&k, 0, 0, 60, ForecastConfig::default());
        assert_eq!(f.out_of_bid_fraction(p(0.02)), 0.0);
        assert_eq!(f.out_of_bid_fraction(p(0.5)), 0.0);
    }

    #[test]
    fn low_bid_always_out_of_bid() {
        let k = kernel();
        let f = forecast(&k, 0, 0, 60, ForecastConfig::default());
        assert_eq!(f.out_of_bid_fraction(p(0.005)), 1.0);
    }

    #[test]
    fn mid_bid_matches_duty_cycle() {
        // Bidding 0.01 survives the A segments (5 of every 8 minutes).
        let k = kernel();
        let f = forecast(&k, 0, 0, 480, ForecastConfig::default());
        let frac = f.out_of_bid_fraction(p(0.01));
        assert!((frac - 3.0 / 8.0).abs() < 0.05, "got {frac}");
    }

    #[test]
    fn forecast_conditions_on_age() {
        // At age 4 of a 5-minute A sojourn, a transition to B is imminent;
        // at age 0 it is 5 minutes away. Short-horizon OOB must differ.
        let k = kernel();
        let fresh = forecast(&k, 0, 0, 3, ForecastConfig::default());
        let stale = forecast(&k, 0, 4, 3, ForecastConfig::default());
        assert!(
            stale.out_of_bid_fraction(p(0.01)) > fresh.out_of_bid_fraction(p(0.01)) + 0.2,
            "stale {} vs fresh {}",
            stale.out_of_bid_fraction(p(0.01)),
            fresh.out_of_bid_fraction(p(0.01))
        );
    }

    #[test]
    fn mass_is_conserved() {
        let k = kernel();
        let width = 16;
        let tables = Tables::build(&k, width);
        for start_age in [0, 5, 15, 40] {
            let mut evolution = Evolution::start(&tables, 0, start_age);
            for _ in 0..200 {
                evolution.step(k.n_states());
                let total: f64 = evolution.mass.iter().sum();
                assert!((total - 1.0).abs() < 1e-9, "mass leaked: {total}");
                // The frontier invariant: nothing above hi[i], in either
                // buffer (the spare one is read back next step).
                for (i, &hi) in evolution.hi.iter().enumerate() {
                    for buffer in [&evolution.mass, &evolution.next] {
                        let above = &buffer[i * width + hi + 1..(i + 1) * width];
                        assert!(
                            above.iter().all(|w| w.to_bits() == 0),
                            "state {i}: mass above frontier {hi}: {above:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn survival_deterministic_chain() {
        let k = kernel();
        // Starting fresh at A with bid 0.01: the price hits B within 5
        // minutes, so 8-minute survival is ~0.
        let s = survival_probability(&k, p(0.01), 0, 0, 8, ForecastConfig::default());
        assert!(s < 0.05, "got {s}");
        // Bid 0.02 survives forever.
        let s = survival_probability(&k, p(0.02), 0, 0, 500, ForecastConfig::default());
        assert!(s > 0.999, "got {s}");
        // Starting above the bid is instant death.
        let s = survival_probability(&k, p(0.01), 1, 0, 10, ForecastConfig::default());
        assert_eq!(s, 0.0);
    }

    #[test]
    fn survival_never_exceeds_expectation_based_alive_fraction() {
        // P(alive all horizon) ≤ average P(alive at t).
        let k = kernel();
        for horizon in [5u32, 20, 60] {
            let f = forecast(&k, 0, 0, horizon, ForecastConfig::default());
            let s = survival_probability(&k, p(0.01), 0, 0, horizon, ForecastConfig::default());
            let avg_alive = 1.0 - f.out_of_bid_fraction(p(0.01));
            assert!(
                s <= avg_alive + 1e-9,
                "h={horizon}: survival {s} > avg alive {avg_alive}"
            );
        }
    }

    #[test]
    fn out_of_bid_fraction_is_monotone_in_bid() {
        let k = kernel();
        let f = forecast(&k, 0, 2, 120, ForecastConfig::default());
        let mut last = 1.1;
        for bid_micro in (1_000..30_000).step_by(1_000) {
            let frac = f.out_of_bid_fraction(Price::from_micros(bid_micro));
            assert!(frac <= last + 1e-12);
            last = frac;
        }
    }

    /// A trace over the given price levels (in dollars) visiting them in
    /// `steps` order, `(level index, sojourn minutes)`.
    fn trace_of(levels: &[f64], steps: &[(usize, u64)]) -> PriceTrace {
        let mut points = Vec::new();
        let mut t = 0;
        for &(level, minutes) in steps {
            points.push(PricePoint {
                minute: t,
                price: p(levels[level]),
            });
            t += minutes;
        }
        PriceTrace::new(points, t)
    }

    /// Assert the flat evolution reproduces the reference bit for bit:
    /// every `above_fraction`, and survival at every level as the bid.
    fn assert_bit_identical(
        k: &FrozenKernel,
        state: u16,
        age: u32,
        horizon: u32,
        max_age: usize,
    ) -> Result<(), TestCaseError> {
        let config = ForecastConfig { max_age };
        let fast = forecast(k, state, age, horizon, config);
        let slow = reference::forecast(k, state, age, horizon, config);
        for (l, (a, b)) in fast
            .above_fraction
            .iter()
            .zip(&slow.above_fraction)
            .enumerate()
        {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "above_fraction[{l}] {a:e} != {b:e} (state {state}, age {age}, \
                 horizon {horizon}, max_age {max_age})"
            );
        }
        for &bid in k.prices() {
            let a = survival_probability(k, bid, state, age, horizon, config);
            let b = reference::survival_probability(k, bid, state, age, horizon, config);
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "survival at {bid:?} {a:e} != {b:e} (state {state}, age {age}, \
                 horizon {horizon}, max_age {max_age})"
            );
        }
        Ok(())
    }

    /// Random multi-level traces: short sojourns that repeat often enough
    /// to give exact-sojourn cells, and long ones (≥ 360 minutes) that
    /// land in the clamped last sojourn bucket. The last level visited
    /// may never complete a sojourn.
    fn random_trace() -> impl Strategy<Value = PriceTrace> {
        (
            proptest::collection::vec((1u64..40, 0usize..6, 0u32..12), 10..150),
            proptest::collection::vec(50u64..5_000, 2..=6),
        )
            .prop_map(|(steps, levels)| {
                let mut levels: Vec<Price> = levels
                    .into_iter()
                    .map(|m| Price::from_micros(m * 100))
                    .collect();
                levels.sort_unstable();
                levels.dedup();
                let mut points = vec![PricePoint {
                    minute: 0,
                    price: levels[0],
                }];
                let mut t = 0;
                for (dt, idx, kind) in steps {
                    t += match kind {
                        0 => 360 + dt * 10,
                        1..=6 => dt % 6 + 1,
                        _ => dt,
                    };
                    let price = levels[idx % levels.len()];
                    if points.last().expect("non-empty").price != price {
                        points.push(PricePoint { minute: t, price });
                    }
                }
                PriceTrace::new(points, t + 30)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn flat_evolution_matches_reference_bit_for_bit(
            trace in random_trace(),
            state in any::<u16>(),
            age in 0u32..=420,
            horizon in 1u32..=800,
            max_age in 0usize..4,
        ) {
            let k = FrozenKernel::from_trace(&trace);
            let state = state % k.n_states() as u16;
            let max_age = [2, 16, 180, 400][max_age];
            assert_bit_identical(&k, state, age, horizon, max_age)?;
        }
    }

    #[test]
    fn start_age_at_the_top_bucket_matches_reference() {
        let k = kernel();
        for max_age in [2, 16, 180] {
            for age in [max_age as u32 - 1, max_age as u32, 1_000] {
                for horizon in [1, 7, 300] {
                    assert_bit_identical(&k, 0, age, horizon, max_age).unwrap();
                    assert_bit_identical(&k, 1, age, horizon, max_age).unwrap();
                }
            }
        }
    }

    #[test]
    fn state_without_completed_sojourn_matches_reference() {
        // The top level (0.03) is only the censored final segment: it
        // falls back to the global hazard and neighbour-uniform marginal.
        let mut steps: Vec<(usize, u64)> = (0..30).map(|c| (c % 2, 4 + c as u64 % 3)).collect();
        steps.push((2, 50));
        let k = FrozenKernel::from_trace(&trace_of(&[0.01, 0.02, 0.03], &steps));
        assert_eq!(k.n_states(), 3);
        for state in 0..3 {
            for horizon in [1, 60, 400] {
                assert_bit_identical(&k, state, 3, horizon, 16).unwrap();
                assert_bit_identical(&k, state, 0, horizon, 180).unwrap();
            }
        }
    }

    #[test]
    fn single_state_kernel_matches_reference() {
        let k = FrozenKernel::from_trace(&trace_of(&[0.01], &[(0, 500)]));
        assert_eq!(k.n_states(), 1);
        for max_age in [2, 16, 400] {
            for horizon in [1, 90, 800] {
                assert_bit_identical(&k, 0, 0, horizon, max_age).unwrap();
                assert_bit_identical(&k, 0, 450, horizon, max_age).unwrap();
            }
        }
    }

    #[test]
    fn ages_past_the_longest_tracked_sojourn_match_reference() {
        // Four sojourns of ≥ 360 minutes at 0.01 give an exact cell at
        // the clamped last sojourn, which every age from 360 up shares.
        let steps: Vec<(usize, u64)> = (0..8)
            .map(|c| {
                if c % 2 == 0 {
                    (0, 360 + 17 * c as u64)
                } else {
                    (1, 5)
                }
            })
            .collect();
        let k = FrozenKernel::from_trace(&trace_of(&[0.01, 0.02], &steps));
        assert!(k
            .exact_next_state_dist(0, crate::MAX_SOJOURN_MINUTES as u32 + 40)
            .is_some());
        for age in [0, 355, 359, 360, 399, 450] {
            for horizon in [1, 45, 800] {
                assert_bit_identical(&k, 0, age, horizon, 400).unwrap();
            }
        }
    }

    #[test]
    fn one_walk_exact_cells_equal_per_age_queries() {
        let steps: Vec<(usize, u64)> = (0..40).map(|c| (c % 3, [3, 3, 5, 400, 7][c % 5])).collect();
        let k = FrozenKernel::from_trace(&trace_of(&[0.01, 0.02, 0.03], &steps));
        for max_age in [2, 16, 400] {
            for i in 0..k.n_states() as u16 {
                let mut walked = vec![vec![0.0; k.n_states()]; max_age];
                let mut seen = vec![false; max_age];
                k.for_each_exact_transition(i, max_age, |age, j, p| {
                    walked[age as usize - 1][j as usize] = p;
                    seen[age as usize - 1] = true;
                });
                for a in 0..max_age {
                    let queried = k.exact_next_state_dist(i, a as u32 + 1);
                    assert_eq!(queried.is_some(), seen[a], "state {i} age {}", a + 1);
                    if let Some(dist) = queried {
                        assert_eq!(dist, walked[a], "state {i} age {}", a + 1);
                    }
                }
            }
        }
    }
}
