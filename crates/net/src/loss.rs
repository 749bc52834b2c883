//! Link loss models.
//!
//! The paper's analysis assumes loss-free links (`n_i = 1`) but its
//! simulation "accounts for the impact of packet losses". Collisions are
//! modelled by the channel itself; these models add *channel-quality*
//! losses on top: independent (Bernoulli) or bursty (Gilbert–Elliott).
//!
//! A [`LossModel`] is pure configuration — evaluating it never mutates
//! it. The Gilbert–Elliott burst position lives in a separate per-link
//! [`LossState`], owned by whoever runs the process (the simulator's
//! channel keeps one per receiver). Keeping the Markov state out of the
//! config enum means a `Scenario` embedding a `LossModel` compares and
//! re-emits identically before and after a run.

use bcp_sim::rng::Rng;

/// Per-link runtime state of a loss process: the Gilbert–Elliott burst
/// position (`true` = currently in the bad state). The memoryless models
/// carry no state and ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LossState {
    /// Current Gilbert–Elliott state (`true` = bad).
    pub in_bad: bool,
}

/// Per-link loss process configuration (immutable; see [`LossState`] for
/// the runtime side).
///
/// # Examples
///
/// ```
/// use bcp_net::loss::{LossModel, LossState};
/// use bcp_sim::rng::Rng;
///
/// let mut rng = Rng::new(1);
/// let mut state = LossState::default();
/// let perfect = LossModel::Perfect;
/// assert!(!perfect.is_lost(&mut state, &mut rng));
///
/// let lossy = LossModel::bernoulli(1.0);
/// assert!(lossy.is_lost(&mut state, &mut rng));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum LossModel {
    /// No channel losses (collisions may still occur).
    #[default]
    Perfect,
    /// Each frame lost independently with probability `p`.
    Bernoulli {
        /// Per-frame loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state bursty channel: a good state with low loss and a bad state
    /// with high loss, switching with the given per-frame probabilities.
    /// Every link starts in the good state.
    GilbertElliott {
        /// P(good → bad) evaluated per frame.
        p_g2b: f64,
        /// P(bad → good) evaluated per frame.
        p_b2g: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Independent losses with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn bernoulli(p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        LossModel::Bernoulli { p }
    }

    /// A bursty channel (links start in the good state).
    ///
    /// # Panics
    ///
    /// Panics unless all probabilities are in `[0, 1]`.
    pub fn gilbert_elliott(p_g2b: f64, p_b2g: f64, loss_good: f64, loss_bad: f64) -> Self {
        for p in [p_g2b, p_b2g, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        }
        LossModel::GilbertElliott {
            p_g2b,
            p_b2g,
            loss_good,
            loss_bad,
        }
    }

    /// Evaluates the loss process for one frame, advancing the link's
    /// burst `state` in place. The model itself is never mutated.
    pub fn is_lost(&self, state: &mut LossState, rng: &mut Rng) -> bool {
        match self {
            LossModel::Perfect => false,
            LossModel::Bernoulli { p } => rng.bernoulli(*p),
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                loss_good,
                loss_bad,
            } => {
                // Advance the Markov chain, then sample loss in the new state.
                let flip = if state.in_bad {
                    rng.bernoulli(*p_b2g)
                } else {
                    rng.bernoulli(*p_g2b)
                };
                if flip {
                    state.in_bad = !state.in_bad;
                }
                let p = if state.in_bad { *loss_bad } else { *loss_good };
                rng.bernoulli(p)
            }
        }
    }

    /// Long-run loss probability of the process (stationary average).
    pub fn mean_loss(&self) -> f64 {
        match self {
            LossModel::Perfect => 0.0,
            LossModel::Bernoulli { p } => *p,
            LossModel::GilbertElliott {
                p_g2b,
                p_b2g,
                loss_good,
                loss_bad,
            } => {
                if *p_g2b == 0.0 && *p_b2g == 0.0 {
                    return *loss_good; // never leaves the initial good state
                }
                let frac_bad = p_g2b / (p_g2b + p_b2g);
                loss_bad * frac_bad + loss_good * (1.0 - frac_bad)
            }
        }
    }
}

bcp_sim::persist!(LossState { in_bad });

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(m: &LossModel, seed: u64, n: usize) -> Vec<bool> {
        let mut rng = Rng::new(seed);
        let mut st = LossState::default();
        (0..n).map(|_| m.is_lost(&mut st, &mut rng)).collect()
    }

    #[test]
    fn perfect_never_loses() {
        let m = LossModel::Perfect;
        assert!(drive(&m, 1, 1000).iter().all(|&l| !l));
        assert_eq!(m.mean_loss(), 0.0);
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let m = LossModel::bernoulli(0.2);
        let n = 100_000;
        let losses = drive(&m, 2, n).iter().filter(|&&l| l).count();
        let freq = losses as f64 / n as f64;
        assert!((freq - 0.2).abs() < 0.01, "freq {freq}");
        assert_eq!(m.mean_loss(), 0.2);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::new(3);
        let mut st = LossState::default();
        assert!(!LossModel::bernoulli(0.0).is_lost(&mut st, &mut rng));
        assert!(LossModel::bernoulli(1.0).is_lost(&mut st, &mut rng));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bernoulli_rejects_bad_p() {
        let _ = LossModel::bernoulli(1.5);
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let m = LossModel::gilbert_elliott(0.1, 0.3, 0.01, 0.5);
        let n = 200_000;
        let losses = drive(&m, 4, n).iter().filter(|&&l| l).count();
        let freq = losses as f64 / n as f64;
        let expect = m.mean_loss(); // 0.25·0.5 + 0.75·0.01 ≈ 0.1325
        assert!((freq - expect).abs() < 0.01, "freq {freq} vs {expect}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        // Consecutive losses should be far more correlated than Bernoulli
        // at the same mean rate: compare P(loss | previous loss).
        let m = LossModel::gilbert_elliott(0.02, 0.1, 0.0, 0.9);
        let outcomes = drive(&m, 5, 200_000);
        let mean = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = both as f64 / pairs as f64;
        assert!(
            cond > 2.0 * mean,
            "bursty channel: P(loss|loss)={cond} should exceed 2×mean={mean}"
        );
    }

    #[test]
    fn evaluation_never_mutates_the_model() {
        // The config/state split's whole point: driving the process
        // leaves the model equal to a fresh copy, with all the evolution
        // in the caller-owned LossState.
        let m = LossModel::gilbert_elliott(0.3, 0.3, 0.0, 1.0);
        let pristine = m.clone();
        let mut rng = Rng::new(6);
        let mut st = LossState::default();
        let mut visited_bad = false;
        for _ in 0..10_000 {
            m.is_lost(&mut st, &mut rng);
            visited_bad |= st.in_bad;
        }
        assert_eq!(m, pristine, "the model is pure config");
        assert!(visited_bad, "the state did evolve");
    }

    #[test]
    fn mean_loss_degenerate_chain() {
        let m = LossModel::gilbert_elliott(0.0, 0.0, 0.05, 0.9);
        assert_eq!(m.mean_loss(), 0.05, "never leaves good state");
    }
}
