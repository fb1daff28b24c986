//! Text checkpoint codec for resumable campaigns.
//!
//! A checkpoint is a whitespace-separated token stream: a tag, then
//! the fields. Floats are serialised as their IEEE-754 bit pattern in
//! hex so a resumed accumulator is *bit-identical* to the uninterrupted
//! one — the engine's determinism guarantee survives a restart.
//!
//! Implementations are provided for the four `sim::stats` accumulators
//! and for [`ResumePoint`]; campaign crates compose them for their own
//! result structs.

use nlft_sim::stats::{Histogram, OnlineStats, Proportion, SurvivalCurve};

use crate::campaign::ResumePoint;

/// A type that can round-trip through the text checkpoint format.
pub trait Checkpoint: Sized {
    /// Serialises into checkpoint tokens.
    fn encode(&self) -> String;
    /// Parses tokens previously produced by [`Checkpoint::encode`].
    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String>;
}

/// Serialises a checkpointable value to a standalone string.
pub fn encode<T: Checkpoint>(value: &T) -> String {
    value.encode()
}

/// Parses a standalone string produced by [`encode`], rejecting
/// trailing garbage.
pub fn decode<T: Checkpoint>(text: &str) -> Result<T, String> {
    let mut reader = TokenReader::new(text);
    let value = T::decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Whitespace-token cursor over checkpoint text.
pub struct TokenReader<'a> {
    tokens: std::str::SplitWhitespace<'a>,
}

impl<'a> TokenReader<'a> {
    /// Starts reading `text` from its first token.
    pub fn new(text: &'a str) -> Self {
        TokenReader {
            tokens: text.split_whitespace(),
        }
    }

    /// Consumes one token.
    pub fn next_token(&mut self) -> Result<&'a str, String> {
        self.tokens
            .next()
            .ok_or_else(|| "checkpoint truncated".to_string())
    }

    /// Consumes one token and requires it to equal `tag`.
    pub fn expect_tag(&mut self, tag: &str) -> Result<(), String> {
        let t = self.next_token()?;
        if t == tag {
            Ok(())
        } else {
            Err(format!("expected checkpoint tag `{tag}`, found `{t}`"))
        }
    }

    /// Consumes one decimal `u64` token.
    pub fn next_u64(&mut self) -> Result<u64, String> {
        let t = self.next_token()?;
        t.parse().map_err(|_| format!("bad u64 token `{t}`"))
    }

    /// Consumes one `usize` token.
    pub(crate) fn next_usize(&mut self) -> Result<usize, String> {
        let t = self.next_token()?;
        t.parse().map_err(|_| format!("bad usize token `{t}`"))
    }

    /// Consumes one `f64` token serialised as hex bits (`0x…`).
    pub(crate) fn next_f64(&mut self) -> Result<f64, String> {
        let t = self.next_token()?;
        let hex = t
            .strip_prefix("0x")
            .ok_or_else(|| format!("bad f64-bits token `{t}`"))?;
        u64::from_str_radix(hex, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("bad f64-bits token `{t}`"))
    }

    /// Requires the stream to be exhausted.
    pub fn finish(mut self) -> Result<(), String> {
        match self.tokens.next() {
            None => Ok(()),
            Some(t) => Err(format!("trailing checkpoint token `{t}`")),
        }
    }
}

/// Appends an `f64` as its hex bit pattern.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    out.push_str(&format!(" 0x{:016x}", x.to_bits()));
}

/// Appends a `u64` in decimal.
pub fn push_u64(out: &mut String, x: u64) {
    out.push_str(&format!(" {x}"));
}

impl Checkpoint for OnlineStats {
    fn encode(&self) -> String {
        let (count, mean, m2, min, max) = self.to_raw();
        let mut out = String::from("online");
        push_u64(&mut out, count);
        for x in [mean, m2, min, max] {
            push_f64(&mut out, x);
        }
        out
    }

    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String> {
        reader.expect_tag("online")?;
        let count = reader.next_u64()?;
        let mean = reader.next_f64()?;
        let m2 = reader.next_f64()?;
        let min = reader.next_f64()?;
        let max = reader.next_f64()?;
        Ok(OnlineStats::from_raw((count, mean, m2, min, max)))
    }
}

impl Checkpoint for Proportion {
    fn encode(&self) -> String {
        let mut out = String::from("prop");
        push_u64(&mut out, self.successes());
        push_u64(&mut out, self.trials());
        out
    }

    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String> {
        reader.expect_tag("prop")?;
        let successes = reader.next_u64()?;
        let trials = reader.next_u64()?;
        if successes > trials {
            return Err("proportion successes exceed trials".to_string());
        }
        Ok(Proportion::from_counts(successes, trials))
    }
}

impl Checkpoint for Histogram {
    fn encode(&self) -> String {
        let mut out = String::from("hist");
        push_f64(&mut out, self.low());
        push_f64(&mut out, self.high());
        push_u64(&mut out, self.bins().len() as u64);
        for &b in self.bins() {
            push_u64(&mut out, b);
        }
        push_u64(&mut out, self.underflow());
        push_u64(&mut out, self.overflow());
        push_u64(&mut out, self.count());
        out
    }

    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String> {
        reader.expect_tag("hist")?;
        let low = reader.next_f64()?;
        let high = reader.next_f64()?;
        let n = reader.next_usize()?;
        if !(low.is_finite() && high.is_finite() && low < high) || n == 0 {
            return Err("bad histogram grid".to_string());
        }
        // The vectors grow as tokens arrive: a length read from the text
        // must not size an allocation before its tokens are there.
        let bins = (0..n)
            .map(|_| reader.next_u64())
            .collect::<Result<Vec<_>, _>>()?;
        let underflow = reader.next_u64()?;
        let overflow = reader.next_u64()?;
        let count = reader.next_u64()?;
        let total = bins
            .iter()
            .fold(underflow.saturating_add(overflow), |t, &b| {
                t.saturating_add(b)
            });
        if total != count {
            return Err("histogram count inconsistent with bins".to_string());
        }
        Ok(Histogram::from_raw(
            low, high, bins, underflow, overflow, count,
        ))
    }
}

impl Checkpoint for SurvivalCurve {
    fn encode(&self) -> String {
        let mut out = String::from("survival");
        push_u64(&mut out, self.grid().len() as u64);
        for &g in self.grid() {
            push_f64(&mut out, g);
        }
        for &s in self.survivors() {
            push_u64(&mut out, s);
        }
        push_u64(&mut out, self.replications());
        out
    }

    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String> {
        reader.expect_tag("survival")?;
        let n = reader.next_usize()?;
        // Grown as tokens arrive, as for a histogram's bins.
        let grid = (0..n)
            .map(|_| reader.next_f64())
            .collect::<Result<Vec<_>, _>>()?;
        // A NaN grid value must be rejected here, not panic later
        // inside SurvivalCurve::new.
        if grid.iter().any(|g| g.is_nan())
            || grid.is_empty()
            || grid.windows(2).any(|w| w[0] >= w[1])
        {
            return Err("bad survival grid".to_string());
        }
        let survivors = (0..n)
            .map(|_| reader.next_u64())
            .collect::<Result<Vec<_>, _>>()?;
        let replications = reader.next_u64()?;
        if survivors.iter().any(|&s| s > replications) {
            return Err("survivors exceed replications".to_string());
        }
        Ok(SurvivalCurve::from_raw(grid, survivors, replications))
    }
}

impl<A: Checkpoint> Checkpoint for ResumePoint<A> {
    fn encode(&self) -> String {
        let mut out = String::from("resume");
        push_u64(&mut out, self.trials_done);
        out.push(' ');
        out.push_str(&self.acc.encode());
        out
    }

    fn decode(reader: &mut TokenReader<'_>) -> Result<Self, String> {
        reader.expect_tag("resume")?;
        let trials_done = reader.next_u64()?;
        let acc = A::decode(reader)?;
        Ok(ResumePoint { trials_done, acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_histogram_claiming_usize_max_bins_is_truncated_not_a_panic() {
        let text = "hist 0x0000000000000000 0x3ff0000000000000 18446744073709551615";
        assert_eq!(
            decode::<Histogram>(text).unwrap_err(),
            "checkpoint truncated"
        );
    }

    #[test]
    fn a_survival_curve_claiming_usize_max_points_is_truncated_not_a_panic() {
        assert_eq!(
            decode::<SurvivalCurve>("survival 18446744073709551615").unwrap_err(),
            "checkpoint truncated"
        );
    }
}
