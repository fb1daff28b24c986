//! Command-line parsing shared by the `nlft-bench` binaries.
//!
//! Each binary walks its arguments with one [`ArgCursor`], which hands out
//! flag values and turns a missing value, a malformed number or a zero
//! count into a message naming the offending flag. The binaries print the
//! message and exit with status 2, so a bad command line never reaches a
//! generator's own argument asserts.

use std::str::FromStr;

/// A cursor over command-line arguments (the program name already
/// skipped).
#[derive(Debug, Clone)]
pub struct ArgCursor<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> ArgCursor<'a> {
    /// Starts at the first argument.
    pub fn new(args: &'a [String]) -> Self {
        ArgCursor { it: args.iter() }
    }

    /// The value following `flag`.
    ///
    /// # Errors
    ///
    /// When the arguments end right after `flag`, or the next one is
    /// itself a flag (`--…`). A lone `-` prefix, as in `-1`, is a value.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        match self.it.next().map(String::as_str) {
            Some(next) if next.starts_with("--") => {
                Err(format!("`{flag}` needs a value, got the flag `{next}`"))
            }
            Some(value) => Ok(value),
            None => Err(format!("`{flag}` needs a value")),
        }
    }

    /// The value following `flag`, parsed as a non-negative integer.
    ///
    /// # Errors
    ///
    /// When the value is missing or does not parse.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| format!("`{flag}` expects a non-negative integer, got `{value}`"))
    }

    /// The value following `flag`, parsed as a count of at least 1.
    ///
    /// # Errors
    ///
    /// When the value is missing, does not parse, or is zero.
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String> {
        let n = self.number(flag)?;
        if n == T::default() {
            return Err(format!("`{flag}` must be at least 1"));
        }
        Ok(n)
    }
}

impl<'a> Iterator for ArgCursor<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }
}

/// The message for an argument no binary flag matches.
pub fn unknown_flag(arg: &str) -> String {
    format!("unknown flag `{arg}`")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn values_follow_their_flag() {
        let a = args("--out base.json --n 7");
        let mut cur = ArgCursor::new(&a);
        assert_eq!(cur.next(), Some("--out"));
        assert_eq!(cur.value("--out"), Ok("base.json"));
        assert_eq!(cur.next(), Some("--n"));
        assert_eq!(cur.positive::<u64>("--n"), Ok(7));
        assert_eq!(cur.next(), None);
    }

    #[test]
    fn missing_values_name_the_flag() {
        let a = args("--trials");
        let mut cur = ArgCursor::new(&a);
        cur.next();
        assert_eq!(
            cur.number::<u64>("--trials"),
            Err("`--trials` needs a value".into())
        );
    }

    #[test]
    fn a_flag_is_not_a_value() {
        let a = args("--checkpoint --threads 2");
        let mut cur = ArgCursor::new(&a);
        cur.next();
        assert_eq!(
            cur.value("--checkpoint"),
            Err("`--checkpoint` needs a value, got the flag `--threads`".into())
        );
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for bad in ["abc", "-1", "1.5", ""] {
            let a = vec![bad.to_string()];
            let e = ArgCursor::new(&a).number::<u64>("--reps").unwrap_err();
            assert!(e.starts_with("`--reps` expects"), "{e}");
            assert!(e.contains(&format!("`{bad}`")), "{e}");
        }
    }

    #[test]
    fn zero_is_a_number_but_not_positive() {
        let a = args("0");
        assert_eq!(
            ArgCursor::new(&a).positive::<u64>("--trials"),
            Err("`--trials` must be at least 1".into())
        );
        assert_eq!(ArgCursor::new(&a).number::<u64>("--every"), Ok(0));
    }
}
