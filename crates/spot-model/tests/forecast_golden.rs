//! Bit-for-bit goldens of the forward evolution on realistic kernels.
//!
//! The inputs are the 16 pools (8 zones × `m1.small`/`m3.large`) of
//! `MarketConfig::paper(2014, 3 weeks)`, each kernel trained on the first
//! two weeks — the markets and training window of the `bid_sweep`
//! benchmark. Every output is folded into an FNV-1a hash of its
//! `f64::to_bits`, so any change to the evolution's arithmetic, including
//! a summation reorder that moves only the last bit, fails here.
//!
//! The constants were recorded once and must never be re-recorded: a
//! rewrite of `spot_model::forecast` has to reproduce them unchanged.

use spot_market::{Market, MarketConfig};
use spot_model::forecast::{forecast, survival_probability};
use spot_model::{ForecastConfig, FrozenKernel};

const WEEK: u64 = 7 * 24 * 60;

/// Start ages probed: fresh, short, mid, past the default `max_age` (180)
/// and past `MAX_SOJOURN_MINUTES` (360).
const AGES: [u32; 5] = [0, 7, 45, 170, 400];

/// Horizons probed: one minute (table build only) and the paper's 1, 6
/// and 12 h bidding intervals.
const HORIZONS: [u32; 4] = [1, 60, 360, 720];

/// FNV-1a over `to_bits` of every `out_of_bid_fraction`.
const OUT_OF_BID_GOLDEN: u64 = 0x395c_eda6_d2ed_1b5c;

/// FNV-1a over `to_bits` of every absorbing probe.
const SURVIVAL_GOLDEN: u64 = 0x39ca_9b62_5e90_941b;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The 16 trained kernels, in (type, zone) order.
fn kernels() -> Vec<FrozenKernel> {
    let mut config = MarketConfig::paper(2014, 3 * WEEK);
    config.zones.truncate(8);
    let market = Market::generate(config);
    let mut out = Vec::new();
    for &ty in &market.config().types {
        for &zone in market.zones() {
            let train = market.trace(zone, ty).window(0, 2 * WEEK);
            out.push(FrozenKernel::from_trace(&train));
        }
    }
    out
}

#[test]
fn out_of_bid_fractions_are_pinned() {
    let mut hash = Fnv::new();
    for k in kernels() {
        for state in (0..k.n_states() as u16).step_by(3) {
            for age in AGES {
                for horizon in HORIZONS {
                    let f = forecast(&k, state, age, horizon, ForecastConfig::default());
                    for &level in f.levels() {
                        hash.mix(f.out_of_bid_fraction(level).to_bits());
                    }
                }
            }
        }
    }
    assert_eq!(hash.0, OUT_OF_BID_GOLDEN, "got {:#x}", hash.0);
}

#[test]
fn survival_probabilities_are_pinned() {
    let mut hash = Fnv::new();
    for k in kernels() {
        let n = k.n_states();
        for state in (0..n as u16).step_by(3) {
            // Bid at the start level (every level above absorbs) and two
            // levels higher.
            for bid_level in [state as usize, (state as usize + 2).min(n - 1)] {
                let bid = k.prices()[bid_level];
                for age in [0, 45, 400] {
                    for horizon in [60, 720] {
                        for max_age in [180, 400] {
                            let config = ForecastConfig { max_age };
                            let s = survival_probability(&k, bid, state, age, horizon, config);
                            hash.mix(s.to_bits());
                        }
                    }
                }
            }
        }
    }
    assert_eq!(hash.0, SURVIVAL_GOLDEN, "got {:#x}", hash.0);
}
