//! Seeded property-testing harness.
//!
//! A suite is a fixed master seed plus a case count. Each property derives
//! its own stream from the suite seed and its name; each case derives its
//! stream from the property stream and the case index. Nothing depends on
//! wall clock, thread identity or test ordering, so a failure is always
//! reproducible from the printed case seed:
//!
//! ```text
//! NLFT_PROP_SEED=0x1234ABCD cargo test -p nlft-sim failing_property_name
//! ```
//!
//! # Example
//!
//! ```
//! use nlft_testkit::prop::{gens, Suite};
//! use nlft_testkit::prop_assert;
//!
//! const SUITE: Suite = Suite::new(0x5EED_CAFE);
//!
//! SUITE.check(
//!     "reverse_is_involutive",
//!     gens::vec(|r| r.range(0, 1_000), 0..50),
//!     |xs| {
//!         let mut twice = xs.clone();
//!         twice.reverse();
//!         twice.reverse();
//!         prop_assert!(&twice == xs, "double reverse changed the vec");
//!         Ok(())
//!     },
//! );
//! ```

use std::fmt::Debug;

use crate::rng::{splitmix64, TkRng};

/// Why a single case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseError {
    /// The drawn input does not satisfy the property's precondition; the
    /// case is skipped (see [`prop_assume!`](crate::prop_assume)).
    Reject(String),
    /// The property is violated for this input.
    Fail(String),
}

/// Outcome of one property evaluation on one input.
pub(crate) type CaseResult = Result<(), CaseError>;

/// Default number of cases per property (matches proptest's default, the
/// floor the suites were originally written against).
pub(crate) const DEFAULT_CASES: u32 = 256;

fn hash_label(seed: u64, label: &str) -> u64 {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    for byte in label.bytes() {
        state ^= u64::from(byte);
        splitmix64(&mut state);
    }
    splitmix64(&mut state)
}

fn parse_u64(text: &str) -> Option<u64> {
    let t = text.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// A property-test suite: a master seed and a case count.
///
/// Declare one `const` per test file so every property in the file draws
/// from the same reproducible root.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    seed: u64,
    cases: u32,
}

impl Suite {
    /// A suite with the given master seed and the default case count.
    pub const fn new(seed: u64) -> Self {
        Suite {
            seed,
            cases: DEFAULT_CASES,
        }
    }

    /// Overrides the number of cases per property.
    pub const fn cases(self, cases: u32) -> Self {
        Suite { cases, ..self }
    }

    /// The master seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Checks one property: draws `cases` inputs from `gen` and evaluates
    /// `prop` on each.
    ///
    /// Environment overrides:
    ///
    /// * `NLFT_PROP_SEED=<dec|0xhex>` — run a single case with exactly this
    ///   case seed (for reproducing a reported failure);
    /// * `NLFT_PROP_CASES=<n>` — run `n` cases instead of the suite count.
    ///
    /// # Panics
    ///
    /// Panics with a reproduction banner when the property fails, and when
    /// every case in the run was rejected by `prop_assume!` (a property
    /// that never executes is a test bug, not a pass).
    pub fn check<T, G, P>(&self, name: &str, mut gen: G, mut prop: P)
    where
        T: Debug,
        G: FnMut(&mut TkRng) -> T,
        P: FnMut(&T) -> CaseResult,
    {
        if let Some(seed) = std::env::var("NLFT_PROP_SEED")
            .ok()
            .as_deref()
            .and_then(parse_u64)
        {
            run_case(name, seed, 0, 1, &mut gen, &mut prop);
            return;
        }
        let cases = std::env::var("NLFT_PROP_CASES")
            .ok()
            .as_deref()
            .and_then(parse_u64)
            .map(|n| n.clamp(1, u64::from(u32::MAX)) as u32)
            .unwrap_or(self.cases);
        let prop_seed = hash_label(self.seed, name);
        let mut rejected = 0u32;
        for case in 0..cases {
            let mut state = prop_seed ^ u64::from(case).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            let case_seed = splitmix64(&mut state);
            if !run_case(name, case_seed, case, cases, &mut gen, &mut prop) {
                rejected += 1;
            }
        }
        // A property whose precondition rejects everything is not testing
        // anything — surface that instead of passing silently.
        assert!(
            rejected < cases,
            "property '{name}': all {cases} cases were rejected by prop_assume!"
        );
    }
}

/// Runs one case; returns `false` if the input was rejected.
fn run_case<T, G, P>(
    name: &str,
    case_seed: u64,
    case: u32,
    cases: u32,
    gen: &mut G,
    prop: &mut P,
) -> bool
where
    T: Debug,
    G: FnMut(&mut TkRng) -> T,
    P: FnMut(&T) -> CaseResult,
{
    let mut rng = TkRng::new(case_seed);
    let input = gen(&mut rng);
    match prop(&input) {
        Ok(()) => true,
        Err(CaseError::Reject(_)) => false,
        Err(CaseError::Fail(msg)) => panic!(
            "property '{name}' failed at case {case}/{cases} (case seed {case_seed:#X})\n\
             \x20 input: {input:?}\n\
             \x20 error: {msg}\n\
             reproduce with: NLFT_PROP_SEED={case_seed:#X} cargo test {name}"
        ),
    }
}

/// Asserts a condition inside a property body; on failure the harness
/// reports the input and the reproducing seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::CaseError::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::CaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts two expressions are equal inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::prop::CaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::prop::CaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Asserts two expressions differ inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::prop::CaseError::Fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err($crate::prop::CaseError::Fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), l
            )));
        }
    }};
}

/// Skips the case when its precondition does not hold (counts as neither
/// pass nor failure; a property whose every case is rejected fails).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::prop::CaseError::Reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

/// Generator combinators.
///
/// A generator is any `FnMut(&mut TkRng) -> T`; plain closures compose
/// naturally (draw parts, build the value), and the functions here cover
/// the collection shapes that are tedious to write inline.
pub mod gens {
    use std::collections::BTreeSet;
    use std::ops::Range;

    use crate::rng::TkRng;

    /// A vector of `len` items (bounds drawn uniformly from the range).
    pub fn vec<T>(
        mut item: impl FnMut(&mut TkRng) -> T,
        len: Range<usize>,
    ) -> impl FnMut(&mut TkRng) -> Vec<T> {
        assert!(!len.is_empty(), "empty length range {len:?}");
        move |r| {
            let n = r.usize_range(len.start, len.end);
            (0..n).map(|_| item(r)).collect()
        }
    }

    /// A set built from up to `size` draws (duplicates collapse, so the
    /// result can be smaller than the drawn target — as with proptest).
    pub fn btree_set<T: Ord>(
        mut item: impl FnMut(&mut TkRng) -> T,
        size: Range<usize>,
    ) -> impl FnMut(&mut TkRng) -> BTreeSet<T> {
        assert!(!size.is_empty(), "empty size range {size:?}");
        move |r| {
            let n = r.usize_range(size.start, size.end);
            (0..n).map(|_| item(r)).collect()
        }
    }

    /// A string of characters drawn uniformly from `charset`.
    pub fn string_from(
        charset: &'static str,
        len: Range<usize>,
    ) -> impl FnMut(&mut TkRng) -> String {
        let chars: Vec<char> = charset.chars().collect();
        assert!(!chars.is_empty(), "empty charset");
        assert!(!len.is_empty(), "empty length range {len:?}");
        move |r| {
            let n = r.usize_range(len.start, len.end);
            (0..n)
                .map(|_| chars[r.usize_range(0, chars.len())])
                .collect()
        }
    }

    /// One of the given values, uniformly.
    pub fn select<T: Clone>(options: Vec<T>) -> impl FnMut(&mut TkRng) -> T {
        assert!(!options.is_empty(), "select needs options");
        move |r| options[r.usize_range(0, options.len())].clone()
    }

    /// An abstract index, resolved against a collection length at use site
    /// (the port of `proptest::sample::Index`).
    #[derive(Debug, Clone, Copy)]
    pub struct Index(pub u64);

    impl Index {
        /// The index into a collection of `len` elements.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "index into empty collection");
            (self.0 % len as u64) as usize
        }
    }

    /// Generates an [`Index`].
    pub fn index() -> impl FnMut(&mut TkRng) -> Index {
        |r| Index(r.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    const SUITE: Suite = Suite::new(0xC0FFEE).cases(64);

    #[test]
    fn passing_property_completes() {
        SUITE.check(
            "sum_commutes",
            |r| (r.range(0, 1000), r.range(0, 1000)),
            |&(a, b)| {
                prop_assert_eq!(a + b, b + a);
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_seed() {
        SUITE.check(
            "always_fails",
            |r| r.range(0, 10),
            |_| Err(CaseError::Fail("nope".into())),
        );
    }

    #[test]
    fn rejected_cases_are_skipped() {
        SUITE.check(
            "assume_filters",
            |r| r.range(0, 10),
            |&x| {
                prop_assume!(x % 2 == 0);
                prop_assert!(x % 2 == 0);
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "all 64 cases were rejected")]
    fn all_rejected_is_an_error() {
        SUITE.check(
            "assume_everything_away",
            |r| r.range(0, 10),
            |_| Err(CaseError::Reject("never valid".into())),
        );
    }

    #[test]
    fn same_suite_same_draws() {
        let collect = || {
            let seen = RefCell::new(Vec::new());
            SUITE.check(
                "deterministic",
                |r| r.next_u64(),
                |&x| {
                    seen.borrow_mut().push(x);
                    Ok(())
                },
            );
            seen.into_inner()
        };
        let first = collect();
        let second = collect();
        assert_eq!(first, second);
        assert_eq!(first.len(), 64);
    }

    #[test]
    fn properties_with_different_names_draw_differently() {
        let collect = |name: &str| {
            let seen = RefCell::new(Vec::new());
            SUITE.check(
                name,
                |r| r.next_u64(),
                |&x| {
                    seen.borrow_mut().push(x);
                    Ok(())
                },
            );
            seen.into_inner()
        };
        assert_ne!(collect("alpha"), collect("beta"));
    }

    #[test]
    fn gens_vec_respects_bounds() {
        SUITE.check("vec_bounds", gens::vec(|r| r.range(0, 5), 2..9), |v| {
            prop_assert!((2..9).contains(&v.len()), "len {} out of range", v.len());
            prop_assert!(v.iter().all(|&x| x < 5));
            Ok(())
        });
    }

    #[test]
    fn gens_string_uses_charset() {
        SUITE.check("string_charset", gens::string_from("ab", 1..5), |s| {
            prop_assert!(s.chars().all(|c| c == 'a' || c == 'b'));
            Ok(())
        });
    }

    #[test]
    fn gens_index_resolves_in_bounds() {
        SUITE.check("index_bounds", gens::index(), |ix| {
            for len in [1usize, 2, 7, 100] {
                prop_assert!(ix.index(len) < len);
            }
            Ok(())
        });
    }
}
