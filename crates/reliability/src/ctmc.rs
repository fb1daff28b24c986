//! Continuous-time Markov chains (CTMC) — the Markov half of SHARPE.
//!
//! The paper's central-unit and wheel-node subsystem models (Figs 6, 7, 9,
//! 10, 11) are small CTMCs with an absorbing failure state. This module
//! provides:
//!
//! * a validated [`CtmcBuilder`];
//! * transient solution `π(t) = π(0)·e^{Qt}` via the Padé matrix
//!   exponential — robust for the stiff rate mixtures of the paper
//!   (repairs ~10³/h against faults ~10⁻⁴/h over a year);
//! * an independent **uniformization** solver used to cross-check the
//!   exponential on non-stiff cases;
//! * mean time to failure for absorbing chains (`MTTF = π₀·(-Q_TT)⁻¹·1`).

use std::fmt;

use crate::linalg::{LinalgError, Matrix};

/// Index of a CTMC state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub usize);

/// Errors from CTMC construction or analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmcError {
    /// A transition rate was not strictly positive and finite.
    InvalidRate(f64),
    /// A self-loop transition was specified.
    SelfLoop(StateId),
    /// An initial distribution does not sum to 1 (±1e-9) or has negatives.
    InvalidDistribution,
    /// The requested MTTF diverges (the absorbing set is unreachable from
    /// some initial state with positive probability).
    InfiniteMttf,
    /// An underlying linear-algebra failure.
    Linalg(LinalgError),
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::InvalidRate(r) => write!(f, "invalid transition rate {r}"),
            CtmcError::SelfLoop(s) => write!(f, "self loop on state {}", s.0),
            CtmcError::InvalidDistribution => write!(f, "invalid initial distribution"),
            CtmcError::InfiniteMttf => write!(f, "mean time to failure is infinite"),
            CtmcError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for CtmcError {}

impl From<LinalgError> for CtmcError {
    fn from(e: LinalgError) -> Self {
        CtmcError::Linalg(e)
    }
}

/// Builder for a CTMC.
///
/// # Examples
///
/// ```
/// use nlft_reliability::ctmc::CtmcBuilder;
///
/// let mut b = CtmcBuilder::new();
/// let up = b.state("up");
/// let down = b.state("down");
/// b.transition(up, down, 1e-3)?;
/// b.transition(down, up, 1e-1)?;
/// let chain = b.build();
/// let pi = chain.transient(&[1.0, 0.0], 1000.0)?;
/// assert!((pi[0] - 0.990099).abs() < 1e-4); // ≈ μ/(λ+μ)
/// # Ok::<(), nlft_reliability::ctmc::CtmcError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CtmcBuilder {
    names: Vec<String>,
    transitions: Vec<(usize, usize, f64)>,
}

impl CtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CtmcBuilder::default()
    }

    /// Adds a state and returns its id.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        self.names.push(name.into());
        StateId(self.names.len() - 1)
    }

    /// Adds a transition with the given rate (per hour, by the paper's
    /// convention). Multiple transitions between the same pair accumulate.
    ///
    /// # Errors
    ///
    /// [`CtmcError::InvalidRate`] unless `rate` is strictly positive and
    /// finite; [`CtmcError::SelfLoop`] when `from == to`.
    ///
    /// # Panics
    ///
    /// Panics if either state id is out of range.
    pub fn transition(&mut self, from: StateId, to: StateId, rate: f64) -> Result<(), CtmcError> {
        assert!(
            from.0 < self.names.len() && to.0 < self.names.len(),
            "unknown state"
        );
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(CtmcError::InvalidRate(rate));
        }
        if from == to {
            return Err(CtmcError::SelfLoop(from));
        }
        self.transitions.push((from.0, to.0, rate));
        Ok(())
    }

    /// Finalises the chain.
    ///
    /// # Panics
    ///
    /// Panics if no states were added.
    pub fn build(self) -> Ctmc {
        let n = self.names.len();
        assert!(n > 0, "a CTMC needs at least one state");
        let mut q = Matrix::zeros(n, n);
        for (from, to, rate) in self.transitions {
            q.add_to(from, to, rate);
            q.add_to(from, from, -rate);
        }
        Ctmc {
            names: self.names,
            q,
        }
    }
}

/// A continuous-time Markov chain with generator `Q`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    names: Vec<String>,
    q: Matrix,
}

impl Ctmc {
    /// Number of states.
    pub(crate) fn num_states(&self) -> usize {
        self.names.len()
    }

    /// Name of a state.
    pub fn name(&self, s: StateId) -> &str {
        &self.names[s.0]
    }

    /// The infinitesimal generator.
    pub fn generator(&self) -> &Matrix {
        &self.q
    }

    fn check_distribution(&self, pi0: &[f64]) -> Result<(), CtmcError> {
        if pi0.len() != self.num_states()
            || pi0.iter().any(|&p| !(0.0..=1.0 + 1e-12).contains(&p))
            || (pi0.iter().sum::<f64>() - 1.0).abs() > 1e-9
        {
            return Err(CtmcError::InvalidDistribution);
        }
        Ok(())
    }

    /// Transient state probabilities `π(t) = π(0)·e^{Qt}`.
    ///
    /// # Errors
    ///
    /// [`CtmcError::InvalidDistribution`] for a malformed `pi0`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn transient(&self, pi0: &[f64], t_hours: f64) -> Result<Vec<f64>, CtmcError> {
        assert!(
            t_hours >= 0.0 && t_hours.is_finite(),
            "time must be nonnegative"
        );
        self.check_distribution(pi0)?;
        if t_hours == 0.0 {
            return Ok(pi0.to_vec());
        }
        let e = self.q.scale(t_hours).expm();
        let mut pi = e.vec_mul(pi0);
        // Clamp tiny negative round-off and renormalise.
        for p in &mut pi {
            *p = p.max(0.0);
        }
        let sum: f64 = pi.iter().sum();
        if sum > 0.0 {
            for p in &mut pi {
                *p /= sum;
            }
        }
        Ok(pi)
    }

    /// Transient probabilities by uniformization, an independent algorithm
    /// for cross-checking [`Ctmc::transient`]. Truncates the Poisson sum at
    /// relative error `eps`.
    ///
    /// # Errors
    ///
    /// [`CtmcError::InvalidDistribution`] for malformed `pi0`.
    ///
    /// # Panics
    ///
    /// Panics when `q·t > 700` (Poisson weights underflow; use the matrix
    /// exponential there) or `t` is negative.
    pub fn transient_uniformized(
        &self,
        pi0: &[f64],
        t_hours: f64,
        eps: f64,
    ) -> Result<Vec<f64>, CtmcError> {
        assert!(
            t_hours >= 0.0 && t_hours.is_finite(),
            "time must be nonnegative"
        );
        self.check_distribution(pi0)?;
        let n = self.num_states();
        let rate = (0..n)
            .map(|i| -self.q.get(i, i))
            .fold(0.0, f64::max)
            .max(1e-300);
        let qt = rate * t_hours;
        assert!(
            qt <= 700.0,
            "uniformization underflows for q*t = {qt} > 700; use transient()"
        );
        // P = I + Q/rate.
        let mut p = self.q.scale(1.0 / rate);
        for i in 0..n {
            p.add_to(i, i, 1.0);
        }
        let mut weight = (-qt).exp();
        let mut acc_weight = weight;
        let mut term = pi0.to_vec();
        let mut result: Vec<f64> = term.iter().map(|&v| v * weight).collect();
        let mut k = 0u64;
        while 1.0 - acc_weight > eps && k < 100_000 {
            k += 1;
            term = p.vec_mul(&term);
            weight *= qt / k as f64;
            acc_weight += weight;
            for (r, &v) in result.iter_mut().zip(&term) {
                *r += weight * v;
            }
        }
        Ok(result)
    }

    /// Probability mass in a set of states.
    pub(crate) fn probability_in(&self, pi: &[f64], states: &[StateId]) -> f64 {
        states.iter().map(|s| pi[s.0]).sum()
    }

    /// Mean time to absorption into `absorbing`, starting from `pi0`.
    ///
    /// Solves `Q_TT·τ = -1` over the transient states; `MTTF = Σ π₀ᵢ τᵢ`.
    ///
    /// # Errors
    ///
    /// [`CtmcError::InfiniteMttf`] when the absorbing set cannot be reached
    /// (singular `Q_TT`), [`CtmcError::InvalidDistribution`] for a bad `pi0`.
    pub fn mttf(&self, pi0: &[f64], absorbing: &[StateId]) -> Result<f64, CtmcError> {
        self.check_distribution(pi0)?;
        let n = self.num_states();
        let transient: Vec<usize> = (0..n)
            .filter(|i| !absorbing.iter().any(|s| s.0 == *i))
            .collect();
        if transient.is_empty() {
            return Ok(0.0);
        }
        let m = transient.len();
        let mut qtt = Matrix::zeros(m, m);
        for (bi, &i) in transient.iter().enumerate() {
            for (bj, &j) in transient.iter().enumerate() {
                qtt.set(bi, bj, self.q.get(i, j));
            }
        }
        let mut neg_one = Matrix::zeros(m, 1);
        for i in 0..m {
            neg_one.set(i, 0, -1.0);
        }
        let tau = qtt.solve(&neg_one).map_err(|e| match e {
            LinalgError::Singular => CtmcError::InfiniteMttf,
            other => CtmcError::Linalg(other),
        })?;
        let mut mttf = 0.0;
        for (bi, &i) in transient.iter().enumerate() {
            let t = tau.get(bi, 0);
            if !t.is_finite() || t < 0.0 {
                return Err(CtmcError::InfiniteMttf);
            }
            mttf += pi0[i] * t;
        }
        Ok(mttf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    /// Two-state repairable system with closed-form availability.
    fn two_state(lam: f64, mu: f64) -> (Ctmc, StateId, StateId) {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, lam).unwrap();
        b.transition(down, up, mu).unwrap();
        (b.build(), up, down)
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let (c, _, _) = two_state(0.2, 3.0);
        for i in 0..2 {
            let sum: f64 = (0..2).map(|j| c.generator().get(i, j)).sum();
            assert_close(sum, 0.0, 1e-15);
        }
    }

    #[test]
    fn transient_matches_closed_form() {
        let (c, _, _) = two_state(0.5, 2.0);
        for &t in &[0.0, 0.1, 1.0, 10.0] {
            let pi = c.transient(&[1.0, 0.0], t).unwrap();
            let s = 0.5 + 2.0;
            let expect = 2.0 / s + 0.5 / s * (-s * t).exp();
            assert_close(pi[0], expect, 1e-10);
            assert_close(pi[0] + pi[1], 1.0, 1e-12);
        }
    }

    #[test]
    fn uniformization_agrees_with_expm() {
        let mut b = CtmcBuilder::new();
        let s0 = b.state("0");
        let s1 = b.state("1");
        let s2 = b.state("2");
        b.transition(s0, s1, 0.7).unwrap();
        b.transition(s1, s0, 0.2).unwrap();
        b.transition(s1, s2, 0.4).unwrap();
        b.transition(s2, s0, 0.1).unwrap();
        let c = b.build();
        let pi0 = [1.0, 0.0, 0.0];
        for &t in &[0.5, 2.0, 20.0] {
            let a = c.transient(&pi0, t).unwrap();
            let u = c.transient_uniformized(&pi0, t, 1e-12).unwrap();
            for (x, y) in a.iter().zip(&u) {
                assert_close(*x, *y, 1e-9);
            }
        }
    }

    #[test]
    fn absorbing_chain_mttf_closed_form() {
        // up → down (absorbing) at rate λ: MTTF = 1/λ.
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 0.01).unwrap();
        let c = b.build();
        let mttf = c.mttf(&[1.0, 0.0], &[down]).unwrap();
        assert_close(mttf, 100.0, 1e-9);
    }

    #[test]
    fn mttf_with_repair_before_absorption() {
        // 0 -λ→ 1 -ν→ F, 1 -μ→ 0. Closed form:
        // τ1 = 1/(ν+μ) + μ/(ν+μ)·τ0; τ0 = 1/λ + τ1.
        let (lam, mu, nu) = (0.01, 1.0, 0.1);
        let mut b = CtmcBuilder::new();
        let s0 = b.state("0");
        let s1 = b.state("1");
        let f = b.state("F");
        b.transition(s0, s1, lam).unwrap();
        b.transition(s1, s0, mu).unwrap();
        b.transition(s1, f, nu).unwrap();
        let c = b.build();
        let mttf = c.mttf(&[1.0, 0.0, 0.0], &[f]).unwrap();
        // Solve the two equations by hand:
        let tau0 = ((nu + mu) / lam + 1.0) / nu;
        assert_close(mttf, tau0, 1e-6);
    }

    #[test]
    fn mttf_infinite_when_absorbing_unreachable() {
        let (c, up, _) = two_state(0.5, 2.0);
        // Mark a state absorbing that has no inbound path... here both are
        // reachable, so instead test an isolated absorbing state.
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let bb = b.state("b");
        let iso = b.state("isolated");
        b.transition(a, bb, 1.0).unwrap();
        b.transition(bb, a, 1.0).unwrap();
        let c2 = b.build();
        assert_eq!(
            c2.mttf(&[1.0, 0.0, 0.0], &[iso]),
            Err(CtmcError::InfiniteMttf)
        );
        drop((c, up));
    }

    #[test]
    fn stiff_paper_rates_are_handled() {
        // The paper's parameters: λT=1.82e-4, μR=1.2e3 over 8760 hours.
        let (c, _, down) = two_state(1.82e-4, 1.2e3);
        let pi = c.transient(&[1.0, 0.0], 8760.0).unwrap();
        let expect_down = 1.82e-4 / (1.82e-4 + 1.2e3);
        assert_close(pi[down.0], expect_down, 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut b = CtmcBuilder::new();
        let s = b.state("s");
        let t = b.state("t");
        assert_eq!(b.transition(s, t, 0.0), Err(CtmcError::InvalidRate(0.0)));
        assert_eq!(b.transition(s, t, -1.0), Err(CtmcError::InvalidRate(-1.0)));
        assert_eq!(b.transition(s, s, 1.0), Err(CtmcError::SelfLoop(s)));
        b.transition(s, t, 1.0).unwrap();
        let c = b.build();
        assert_eq!(
            c.transient(&[0.5, 0.4], 1.0),
            Err(CtmcError::InvalidDistribution)
        );
        assert_eq!(
            c.transient(&[2.0, -1.0], 1.0),
            Err(CtmcError::InvalidDistribution)
        );
    }

    #[test]
    fn parallel_transitions_accumulate() {
        let mut b = CtmcBuilder::new();
        let s = b.state("s");
        let t = b.state("t");
        b.transition(s, t, 1.0).unwrap();
        b.transition(s, t, 2.0).unwrap();
        let c = b.build();
        assert_close(c.generator().get(0, 1), 3.0, 1e-15);
        assert_close(c.generator().get(0, 0), -3.0, 1e-15);
    }

    #[test]
    fn transient_at_zero_is_initial() {
        let (c, _, _) = two_state(1.0, 1.0);
        assert_eq!(c.transient(&[0.25, 0.75], 0.0).unwrap(), vec![0.25, 0.75]);
    }
}
