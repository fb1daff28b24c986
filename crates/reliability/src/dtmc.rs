//! Absorbing discrete-time Markov chains.
//!
//! The recovery-escalation ladder in the kernel is a *discrete*-time
//! process — one transition per job slot — so comparing its analytic
//! behaviour against the fault-injection campaign needs DTMC machinery,
//! not the continuous-time solver in [`crate::ctmc`]. This module provides
//! the two quantities the recovery analysis consumes: the expected number
//! of steps to absorption (via the fundamental matrix, solved with the LU
//! machinery in [`crate::linalg`]) and finite-horizon absorption
//! probabilities (via distribution-vector iteration).

use crate::linalg::{LinalgError, Matrix};
use std::fmt;

/// Error from constructing or solving an absorbing DTMC.
#[derive(Debug, Clone, PartialEq)]
pub enum DtmcError {
    /// The transition matrix is not square, or is empty.
    NotSquare,
    /// A row does not sum to 1 (within tolerance). Carries the row index.
    NotStochastic(usize),
    /// A state declared absorbing does not self-loop with probability 1.
    NotAbsorbing(usize),
    /// An index is out of range for the chain.
    BadState(usize),
    /// No absorbing state was declared, so absorption questions are moot.
    NoAbsorbingStates,
    /// The fundamental-matrix solve failed (the chain has a transient
    /// component that can never reach absorption).
    Singular,
}

impl fmt::Display for DtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtmcError::NotSquare => write!(f, "transition matrix is not square"),
            DtmcError::NotStochastic(i) => write!(f, "row {i} does not sum to 1"),
            DtmcError::NotAbsorbing(i) => write!(f, "state {i} is not absorbing"),
            DtmcError::BadState(i) => write!(f, "state index {i} out of range"),
            DtmcError::NoAbsorbingStates => write!(f, "chain has no absorbing states"),
            DtmcError::Singular => write!(f, "fundamental matrix is singular"),
        }
    }
}

impl std::error::Error for DtmcError {}

/// Tolerance for row-stochasticity checks.
const ROW_SUM_TOL: f64 = 1e-9;

/// An absorbing discrete-time Markov chain.
///
/// Holds a row-stochastic transition matrix together with the set of
/// absorbing states. Construction validates the structure; the solvers
/// then answer the two questions the recovery analysis asks: *how long
/// until absorption?* and *where do we end up within a horizon?*
#[derive(Debug, Clone)]
pub struct AbsorbingDtmc {
    /// Row-stochastic transition matrix, `p[i][j]` = P(i → j).
    p: Vec<Vec<f64>>,
    /// Sorted indices of absorbing states.
    absorbing: Vec<usize>,
    /// Sorted indices of transient (non-absorbing) states.
    transient: Vec<usize>,
}

impl AbsorbingDtmc {
    /// Builds a chain from a row-stochastic matrix and its absorbing set.
    ///
    /// Validates that the matrix is square, every row sums to 1 within
    /// `1e-9`, and every declared absorbing state self-loops with
    /// probability 1.
    pub fn new(p: Vec<Vec<f64>>, absorbing: &[usize]) -> Result<Self, DtmcError> {
        let n = p.len();
        if n == 0 || p.iter().any(|row| row.len() != n) {
            return Err(DtmcError::NotSquare);
        }
        for (i, row) in p.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > ROW_SUM_TOL
                || row.iter().any(|&v| !(0.0..=1.0 + ROW_SUM_TOL).contains(&v))
            {
                return Err(DtmcError::NotStochastic(i));
            }
        }
        if absorbing.is_empty() {
            return Err(DtmcError::NoAbsorbingStates);
        }
        let mut abs: Vec<usize> = absorbing.to_vec();
        abs.sort_unstable();
        abs.dedup();
        for &a in &abs {
            if a >= n {
                return Err(DtmcError::BadState(a));
            }
            if (p[a][a] - 1.0).abs() > ROW_SUM_TOL {
                return Err(DtmcError::NotAbsorbing(a));
            }
        }
        let transient: Vec<usize> = (0..n).filter(|i| !abs.contains(i)).collect();
        Ok(AbsorbingDtmc {
            p,
            absorbing: abs,
            transient,
        })
    }

    /// Number of states in the chain.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// True when the chain has no states (never — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// Expected number of steps until absorption, starting from `from`.
    ///
    /// Solves `(I − Q) t = 1` where `Q` is the transient-to-transient
    /// submatrix — the classic fundamental-matrix computation. Starting in
    /// an absorbing state gives 0. Fails with [`DtmcError::Singular`] when
    /// some transient state cannot reach absorption.
    pub fn expected_steps_to_absorption(&self, from: usize) -> Result<f64, DtmcError> {
        if from >= self.len() {
            return Err(DtmcError::BadState(from));
        }
        if self.absorbing.contains(&from) {
            return Ok(0.0);
        }
        let m = self.transient.len();
        let mut a = Matrix::identity(m);
        for (ri, &i) in self.transient.iter().enumerate() {
            for (rj, &j) in self.transient.iter().enumerate() {
                a.set(ri, rj, a.get(ri, rj) - self.p[i][j]);
            }
        }
        let mut ones = Matrix::zeros(m, 1);
        for r in 0..m {
            ones.set(r, 0, 1.0);
        }
        let t = a.solve(&ones).map_err(|e| match e {
            LinalgError::Singular => DtmcError::Singular,
            LinalgError::DimensionMismatch => DtmcError::NotSquare,
        })?;
        let idx = self
            .transient
            .iter()
            .position(|&i| i == from)
            .expect("from is transient");
        Ok(t.get(idx, 0))
    }

    /// Probability of being in one of `targets` after at most `horizon`
    /// steps, starting from `from`.
    ///
    /// Iterates the distribution vector `horizon` times; since targets are
    /// typically absorbing, this is the CDF of the absorption time.
    pub fn absorption_probability(
        &self,
        from: usize,
        horizon: u32,
        targets: &[usize],
    ) -> Result<f64, DtmcError> {
        let n = self.len();
        if from >= n {
            return Err(DtmcError::BadState(from));
        }
        for &t in targets {
            if t >= n {
                return Err(DtmcError::BadState(t));
            }
        }
        let mut dist = vec![0.0; n];
        dist[from] = 1.0;
        for _ in 0..horizon {
            let mut next = vec![0.0; n];
            for (i, &mass) in dist.iter().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                for (j, &pij) in self.p[i].iter().enumerate() {
                    if pij > 0.0 {
                        next[j] += mass * pij;
                    }
                }
            }
            dist = next;
        }
        Ok(targets.iter().map(|&t| dist[t]).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn rejects_malformed_chains() {
        assert_eq!(
            AbsorbingDtmc::new(vec![], &[0]).unwrap_err(),
            DtmcError::NotSquare
        );
        assert_eq!(
            AbsorbingDtmc::new(vec![vec![0.5, 0.4], vec![0.0, 1.0]], &[1]).unwrap_err(),
            DtmcError::NotStochastic(0)
        );
        assert_eq!(
            AbsorbingDtmc::new(vec![vec![0.5, 0.5], vec![0.1, 0.9]], &[1]).unwrap_err(),
            DtmcError::NotAbsorbing(1)
        );
        assert_eq!(
            AbsorbingDtmc::new(vec![vec![0.5, 0.5], vec![0.0, 1.0]], &[]).unwrap_err(),
            DtmcError::NoAbsorbingStates
        );
        assert_eq!(
            AbsorbingDtmc::new(vec![vec![0.5, 0.5], vec![0.0, 1.0]], &[7]).unwrap_err(),
            DtmcError::BadState(7)
        );
    }

    #[test]
    fn deterministic_chain_counts_its_steps() {
        // 0 → 1 → 2 → absorbed: exactly 3 steps from state 0.
        let p = vec![
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 1.0],
        ];
        let chain = AbsorbingDtmc::new(p, &[3]).unwrap();
        let steps = chain.expected_steps_to_absorption(0).unwrap();
        assert!(close(steps, 3.0, 1e-12), "steps {steps}");
        assert_eq!(chain.expected_steps_to_absorption(3).unwrap(), 0.0);
        // Finite-horizon CDF: not absorbed by 2, certainly by 3.
        assert!(close(
            chain.absorption_probability(0, 2, &[3]).unwrap(),
            0.0,
            1e-12
        ));
        assert!(close(
            chain.absorption_probability(0, 3, &[3]).unwrap(),
            1.0,
            1e-12
        ));
    }

    #[test]
    fn geometric_absorption_time_matches_closed_form() {
        // Flip a p-coin each step: expected steps = 1/p.
        let p_succ = 0.25;
        let p = vec![vec![1.0 - p_succ, p_succ], vec![0.0, 1.0]];
        let chain = AbsorbingDtmc::new(p, &[1]).unwrap();
        let steps = chain.expected_steps_to_absorption(0).unwrap();
        assert!(close(steps, 4.0, 1e-9), "steps {steps}");
        // CDF after k steps is 1 - (1-p)^k.
        let cdf = chain.absorption_probability(0, 5, &[1]).unwrap();
        assert!(close(cdf, 1.0 - 0.75f64.powi(5), 1e-12), "cdf {cdf}");
    }

    #[test]
    fn gamblers_ruin_splits_between_the_two_absorbers() {
        // Fair gambler's ruin on {0..4}, absorbing at 0 and 4. From state
        // 2: P(end at 4) = 1/2, expected duration = 2 * (4-2) = 4.
        let p = vec![
            vec![1.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5, 0.0, 0.0],
            vec![0.0, 0.5, 0.0, 0.5, 0.0],
            vec![0.0, 0.0, 0.5, 0.0, 0.5],
            vec![0.0, 0.0, 0.0, 0.0, 1.0],
        ];
        let chain = AbsorbingDtmc::new(p, &[0, 4]).unwrap();
        let steps = chain.expected_steps_to_absorption(2).unwrap();
        assert!(close(steps, 4.0, 1e-9), "steps {steps}");
        let win = chain.absorption_probability(2, 10_000, &[4]).unwrap();
        assert!(close(win, 0.5, 1e-6), "win {win}");
    }

    #[test]
    fn unreachable_absorption_is_singular() {
        // State 0 self-loops among transients only in a disconnected pair.
        let p = vec![
            vec![0.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let chain = AbsorbingDtmc::new(p, &[2]).unwrap();
        assert_eq!(
            chain.expected_steps_to_absorption(0).unwrap_err(),
            DtmcError::Singular
        );
    }
}
