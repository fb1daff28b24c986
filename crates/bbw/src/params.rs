//! The paper's parameter assignment (§3.3).

use std::fmt;

/// Dependability parameters of a brake-by-wire node, with the paper's §3.3
/// values as defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BbwParams {
    /// Permanent fault rate `λ_P` (per hour). Paper: `1.82e-5` from
    /// MIL-HDBK-217 for a 32-bit automotive node.
    pub lambda_p: f64,
    /// Transient fault rate `λ_T` (per hour). Paper: `10·λ_P`.
    pub lambda_t: f64,
    /// Error-detection coverage `C_D`. Paper baseline: 0.99.
    pub coverage: f64,
    /// P(TEM masks | transient detected). Paper: 0.90.
    pub p_t: f64,
    /// P(omission | transient detected). Paper: 0.05.
    pub p_om: f64,
    /// P(fail-silent | transient detected) — kernel hits. Paper: 0.05.
    pub p_fs: f64,
    /// Restart repair rate `μ_R` (per hour). Paper: `1.2e3` (3 s).
    pub mu_r: f64,
    /// Omission reintegration rate `μ_OM` (per hour). Paper: `2.25e3`
    /// (1.6 s).
    pub mu_om: f64,
}

impl BbwParams {
    /// The exact §3.3 parameter set.
    pub fn paper() -> Self {
        BbwParams {
            lambda_p: 1.82e-5,
            lambda_t: 1.82e-4,
            coverage: 0.99,
            p_t: 0.90,
            p_om: 0.05,
            p_fs: 0.05,
            mu_r: 1.2e3,
            mu_om: 2.25e3,
        }
    }

    /// Replaces the coverage (Fig. 14 sweeps it).
    pub fn with_coverage(mut self, coverage: f64) -> Self {
        self.coverage = coverage;
        self
    }

    /// Scales the transient fault rate by `k` (Fig. 14 sweeps it).
    pub fn with_transient_multiplier(mut self, k: f64) -> Self {
        self.lambda_t = 1.82e-4 * k;
        self
    }

    /// Validates invariants: all rates positive, probabilities in `[0,1]`,
    /// and the detected-transient split summing to 1.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), ParamError> {
        let positive = [
            ("lambda_p", self.lambda_p),
            ("lambda_t", self.lambda_t),
            ("mu_r", self.mu_r),
            ("mu_om", self.mu_om),
        ];
        for (name, v) in positive {
            if !(v > 0.0 && v.is_finite()) {
                return Err(ParamError::NonPositiveRate(name));
            }
        }
        let probs = [
            ("coverage", self.coverage),
            ("p_t", self.p_t),
            ("p_om", self.p_om),
            ("p_fs", self.p_fs),
        ];
        for (name, v) in probs {
            if !(0.0..=1.0).contains(&v) {
                return Err(ParamError::ProbabilityOutOfRange(name));
            }
        }
        if (self.p_t + self.p_om + self.p_fs - 1.0).abs() > 1e-9 {
            return Err(ParamError::SplitNotNormalised);
        }
        Ok(())
    }

    /// Rate at which a single NLFT node suffers a *non-masked* event
    /// (anything but a TEM-masked transient): `λ_P + λ_T(1 − C_D·P_T)`.
    pub(crate) fn nlft_unmasked_rate(&self) -> f64 {
        self.lambda_p + self.lambda_t * (1.0 - self.coverage * self.p_t)
    }

    /// Rate of any activated fault on one node: `λ_P + λ_T`.
    pub(crate) fn total_fault_rate(&self) -> f64 {
        self.lambda_p + self.lambda_t
    }

    /// Rate of uncovered (escaping) errors on one node:
    /// `(λ_P + λ_T)(1 − C_D)`.
    pub fn uncovered_rate(&self) -> f64 {
        self.total_fault_rate() * (1.0 - self.coverage)
    }
}

impl Default for BbwParams {
    fn default() -> Self {
        BbwParams::paper()
    }
}

/// Violation reported by [`BbwParams::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// A rate is zero, negative, or non-finite.
    NonPositiveRate(&'static str),
    /// A probability lies outside `[0, 1]`.
    ProbabilityOutOfRange(&'static str),
    /// `P_T + P_OM + P_FS ≠ 1`.
    SplitNotNormalised,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::NonPositiveRate(n) => write!(f, "rate `{n}` must be positive"),
            ParamError::ProbabilityOutOfRange(n) => {
                write!(f, "probability `{n}` must be in [0,1]")
            }
            ParamError::SplitNotNormalised => {
                write!(f, "p_t + p_om + p_fs must sum to 1")
            }
        }
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_validate() {
        let p = BbwParams::paper();
        assert!(p.validate().is_ok());
        assert!((p.lambda_t / p.lambda_p - 10.0).abs() < 1e-9);
        // 3 s and 1.6 s as rates.
        assert!((3600.0 / p.mu_r - 3.0).abs() < 1e-9);
        assert!((3600.0 / p.mu_om - 1.6).abs() < 1e-9);
    }

    #[test]
    fn derived_rates() {
        let p = BbwParams::paper();
        assert!((p.total_fault_rate() - 2.002e-4).abs() < 1e-12);
        let unmasked = p.lambda_p + p.lambda_t * (1.0 - 0.99 * 0.90);
        assert!((p.nlft_unmasked_rate() - unmasked).abs() < 1e-15);
        assert!(p.nlft_unmasked_rate() < p.total_fault_rate());
        assert!((p.uncovered_rate() - 2.002e-4 * 0.01).abs() < 1e-15);
    }

    #[test]
    fn builders_adjust_parameters() {
        let p = BbwParams::paper().with_coverage(0.999);
        assert_eq!(p.coverage, 0.999);
        let p = BbwParams::paper().with_transient_multiplier(100.0);
        assert!((p.lambda_t - 1.82e-2).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut p = BbwParams::paper();
        p.lambda_p = 0.0;
        assert_eq!(p.validate(), Err(ParamError::NonPositiveRate("lambda_p")));

        let mut p = BbwParams::paper();
        p.coverage = 1.5;
        assert_eq!(
            p.validate(),
            Err(ParamError::ProbabilityOutOfRange("coverage"))
        );

        let mut p = BbwParams::paper();
        p.p_t = 0.5;
        assert_eq!(p.validate(), Err(ParamError::SplitNotNormalised));
    }
}
