//! The forward evolution as it was first written, on nested `Vec`s: the
//! reference the flat evolution in the parent module must match bit for
//! bit. Test-only; kept verbatim, so do not tidy it.

use spot_market::Price;

use super::{Forecast, ForecastConfig};
use crate::kernel::FrozenKernel;

/// Precomputed per-state hazard and next-state tables for the evolution.
///
/// Most (state, age) cells transition according to the state's *marginal*
/// next-state distribution (exact-sojourn conditionals need ≥ 3
/// observations at that exact age), so the per-minute step accumulates
/// each state's marginal transition mass once and distributes it with a
/// single O(n²) pass instead of O(n² · max_age) — the difference between
/// seconds and minutes on month-long forecast horizons.
struct Tables {
    n: usize,
    max_age: usize,
    /// `hazard[i][a]` = P(leave state i during the minute that takes its
    /// age from a to a+1), for a in `0..max_age`.
    hazard: Vec<Vec<f64>>,
    /// Exact-sojourn conditionals, only where well supported.
    exact: Vec<Vec<Option<Vec<f64>>>>,
    /// Marginal next-state distribution per state.
    marginal: Vec<Vec<f64>>,
}

impl Tables {
    fn build(kernel: &FrozenKernel, max_age: usize) -> Tables {
        let n = kernel.n_states();
        let hazard = (0..n as u16)
            .map(|i| kernel.hazards_up_to(i, max_age))
            .collect();
        let exact = (0..n as u16)
            .map(|i| {
                (0..max_age)
                    .map(|a| kernel.exact_next_state_dist(i, a as u32 + 1))
                    .collect()
            })
            .collect();
        let marginal = (0..n as u16)
            .map(|i| kernel.marginal_next_state_dist(i))
            .collect();
        Tables {
            n,
            max_age,
            hazard,
            exact,
            marginal,
        }
    }
}

/// Evolve the (state, age) distribution one minute. `mass` is indexed
/// `[state][age]`; `scratch` is the same shape and is overwritten.
fn step(tables: &Tables, mass: &mut Vec<Vec<f64>>, scratch: &mut Vec<Vec<f64>>) {
    for row in scratch.iter_mut() {
        row.iter_mut().for_each(|x| *x = 0.0);
    }
    let top = tables.max_age - 1;
    for i in 0..tables.n {
        // Transition mass leaving state i under the marginal distribution.
        let mut marginal_out = 0.0;
        for a in 0..tables.max_age {
            let w = mass[i][a];
            if w == 0.0 {
                continue;
            }
            let h = tables.hazard[i][a];
            if h > 0.0 {
                let hw = h * w;
                match &tables.exact[i][a] {
                    Some(dist) => {
                        for (j, &pj) in dist.iter().enumerate() {
                            if pj > 0.0 {
                                scratch[j][0] += hw * pj;
                            }
                        }
                    }
                    None => marginal_out += hw,
                }
            }
            scratch[i][(a + 1).min(top)] += (1.0 - h) * w;
        }
        if marginal_out > 0.0 {
            for (j, &pj) in tables.marginal[i].iter().enumerate() {
                if pj > 0.0 {
                    scratch[j][0] += marginal_out * pj;
                }
            }
        }
    }
    std::mem::swap(mass, scratch);
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

    let mut mass = vec![vec![0.0f64; max_age]; n];
    let mut scratch = mass.clone();
    mass[start_state as usize][(start_age as usize).min(max_age - 1)] = 1.0;

    let mut above_sum = vec![0.0f64; n];
    for _ in 0..horizon {
        step(&tables, &mut mass, &mut scratch);
        // P(price > s_l) = Σ_{i > l} Σ_a mass[i][a]; build via suffix sums.
        let mut suffix = 0.0;
        for l in (0..n).rev() {
            // above level l means strictly higher states.
            above_sum[l] += suffix;
            suffix += mass[l].iter().sum::<f64>();
        }
    }
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

    let mut mass = vec![vec![0.0f64; max_age]; n];
    let mut scratch = mass.clone();
    mass[start_state as usize][(start_age as usize).min(max_age - 1)] = 1.0;

    for _ in 0..horizon {
        step(&tables, &mut mass, &mut scratch);
        // Absorb (remove) mass that crossed above the bid.
        for row in mass.iter_mut().skip(alive_states) {
            row.iter_mut().for_each(|x| *x = 0.0);
        }
    }
    mass.iter()
        .take(alive_states)
        .map(|row| row.iter().sum::<f64>())
        .sum::<f64>()
        .clamp(0.0, 1.0)
}
