//! The front end both model languages share: the SHARPE-style
//! [`crate::lang`] and the scenario DSL [`crate::scenario`].
//!
//! Both are line-oriented: `#` starts a comment, tokens are separated by
//! whitespace, and a block opened by a keyword line runs up to a line that
//! reads `end`. This module turns the source into located tokens, hands out
//! its lines one at a time, runs keyword blocks, and builds every error as a
//! [`ParseError`] with the line and column of the token at fault. An
//! unknown keyword names the closest known one.

use std::fmt;
use std::fmt::Write as _;

/// A parse or semantic error in a model or scenario source, with the
/// 1-based line and column of the token at fault and, for an unknown
/// keyword close to a known one, a "did you mean" hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (character offset) of the offending token.
    pub col: usize,
    /// Description, including any suggestion.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(line: usize, col: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        col,
        message: message.into(),
    }
}

/// Classic dynamic-programming edit distance, for keyword hints.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// An "unknown keyword" error at `t`: a did-you-mean hint when a
/// candidate is within edit distance 2, the full list otherwise.
pub(crate) fn unknown(t: &Token<'_>, what: &str, candidates: &[&str]) -> ParseError {
    let mut message = format!("unknown {what} `{}`", t.text);
    let closest = candidates
        .iter()
        .map(|c| (levenshtein(t.text, c), c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d);
    match closest {
        Some((_, c)) => {
            let _ = write!(message, " — did you mean `{c}`?");
        }
        None => {
            let _ = write!(message, " (expected one of: {})", candidates.join(", "));
        }
    }
    t.err(message)
}

/// Looks `t` up in a table of keywords, or reports it as an unknown
/// `what` with a hint over the table's words.
pub(crate) fn keyword<V: Copy>(
    t: &Token<'_>,
    what: &str,
    table: &[(&str, V)],
) -> Result<V, ParseError> {
    match table.iter().find(|(word, _)| *word == t.text) {
        Some(&(_, value)) => Ok(value),
        None => {
            let words: Vec<&str> = table.iter().map(|&(word, _)| word).collect();
            Err(unknown(t, what, &words))
        }
    }
}

/// One whitespace-separated word of a source line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Token<'s> {
    /// The word itself.
    pub(crate) text: &'s str,
    /// 1-based line number.
    pub(crate) line: usize,
    /// 1-based column (character offset) of the first character.
    pub(crate) col: usize,
    /// Byte offset of the first character within its line.
    byte: usize,
}

impl Token<'_> {
    /// An error located at this token.
    pub(crate) fn err(&self, message: impl Into<String>) -> ParseError {
        err(self.line, self.col, message)
    }
}

/// The tokens of a source, comments and blank lines dropped.
pub(crate) struct Tokens<'s> {
    tokens: Vec<Token<'s>>,
    /// Per non-empty line: its number, its first token and its text up to
    /// any comment.
    lines: Vec<(usize, usize, &'s str)>,
}

/// Splits `source` into located tokens, stopping each line at its first `#`.
pub(crate) fn tokenize(source: &str) -> Tokens<'_> {
    // Sized so that no shipped model or scenario file, with at least 8
    // bytes per token and 23 per line, comments included, regrows them.
    let mut tokens = Vec::with_capacity(source.len() / 8);
    let mut lines = Vec::with_capacity(source.len() / 16);
    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let code = raw.find('#').map_or(raw, |p| &raw[..p]);
        let first = tokens.len();
        let mut start: Option<(usize, usize)> = None;
        for (col, (byte, ch)) in code.char_indices().enumerate() {
            if !ch.is_whitespace() {
                start.get_or_insert((byte, col));
            } else if let Some((s, c)) = start.take() {
                tokens.push(Token {
                    text: &code[s..byte],
                    line,
                    col: c + 1,
                    byte: s,
                });
            }
        }
        if let Some((s, c)) = start {
            tokens.push(Token {
                text: &code[s..],
                line,
                col: c + 1,
                byte: s,
            });
        }
        if tokens.len() > first {
            lines.push((line, first, code));
        }
    }
    Tokens { tokens, lines }
}

impl<'s> Tokens<'s> {
    /// A cursor at the first line.
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor {
            tokens: &self.tokens,
            lines: &self.lines,
            pos: 0,
        }
    }
}

/// One non-empty source line: at least one token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Line<'s> {
    /// 1-based line number.
    pub(crate) no: usize,
    /// The line's tokens, in order.
    pub(crate) tokens: &'s [Token<'s>],
    code: &'s str,
}

impl<'s> Line<'s> {
    /// The leading keyword.
    pub(crate) fn key(&self) -> &'s Token<'s> {
        &self.tokens[0]
    }

    /// Fixed-arity operand access: token `i`, or a "missing `what`" error
    /// just past the end of the line.
    pub(crate) fn operand(&self, i: usize, what: &str) -> Result<&'s Token<'s>, ParseError> {
        self.tokens.get(i).ok_or_else(|| {
            let last = self.tokens[self.tokens.len() - 1];
            err(
                self.no,
                last.col + last.text.chars().count(),
                format!("missing {what}"),
            )
        })
    }

    /// Rejects any token from index `len` on.
    pub(crate) fn expect_len(&self, len: usize) -> Result<(), ParseError> {
        match self.tokens.get(len) {
            Some(t) => Err(t.err(format!("unexpected trailing `{}`", t.text))),
            None => Ok(()),
        }
    }

    /// The text from operand `i` to the end of the line, spacing kept, for
    /// operands that are expressions rather than single words.
    pub(crate) fn rest(
        &self,
        i: usize,
        what: &str,
    ) -> Result<(&'s Token<'s>, &'s str), ParseError> {
        let first = self.operand(i, what)?;
        let last = self.tokens[self.tokens.len() - 1];
        Ok((first, &self.code[first.byte..last.byte + last.text.len()]))
    }
}

/// Hands out the lines of a [`Tokens`] one at a time.
pub(crate) struct Cursor<'s> {
    tokens: &'s [Token<'s>],
    lines: &'s [(usize, usize, &'s str)],
    pos: usize,
}

impl<'s> Cursor<'s> {
    /// The next non-empty line, if any.
    pub(crate) fn next_line(&mut self) -> Option<Line<'s>> {
        let &(no, first, code) = self.lines.get(self.pos)?;
        self.pos += 1;
        let end = self.lines.get(self.pos).map_or(self.tokens.len(), |l| l.1);
        Some(Line {
            no,
            tokens: &self.tokens[first..end],
            code,
        })
    }

    /// The number of the last non-empty line (1 for an empty source).
    pub(crate) fn last_line_no(&self) -> usize {
        self.lines.last().map_or(1, |l| l.0)
    }

    /// Runs a keyword block up to its `end` line. Every line whose keyword
    /// is one of `keys` goes to `body`, which gets this cursor back so that
    /// blocks can nest; as no other line reaches it, a `body` matching on
    /// the keyword takes the last of `keys` as `_`. Tokens after `end`, a keyword outside `keys` (an
    /// unknown `what`, hinted over `keys` and `end`) and a source that runs
    /// out first are errors; `unterminated` builds the last from the number
    /// of the source's last line.
    pub(crate) fn section(
        &mut self,
        what: &str,
        keys: &[&str],
        unterminated: impl FnOnce(usize) -> ParseError,
        mut body: impl FnMut(&mut Self, Line<'s>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        while let Some(line) = self.next_line() {
            let key = line.key();
            if key.text == "end" {
                return line.expect_len(1);
            }
            if !keys.contains(&key.text) {
                let mut expected = keys.to_vec();
                expected.push("end");
                return Err(unknown(key, what, &expected));
            }
            body(self, line)?;
        }
        Err(unterminated(self.last_line_no()))
    }
}

/// Parses a decimal or `0x` hexadecimal integer; `_` separators allowed.
pub(crate) fn parse_u64(t: &Token<'_>) -> Result<u64, ParseError> {
    let text = t.text;
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        text.replace('_', "").parse().ok()
    };
    parsed.ok_or_else(|| t.err(format!("expected an integer, got `{text}`")))
}

/// [`parse_u64`], narrowed to 32 bits.
pub(crate) fn parse_u32(t: &Token<'_>) -> Result<u32, ParseError> {
    let v = parse_u64(t)?;
    u32::try_from(v).map_err(|_| t.err(format!("`{}` does not fit in 32 bits", t.text)))
}

pub(crate) fn parse_i64(t: &Token<'_>) -> Result<i64, ParseError> {
    t.text
        .parse()
        .map_err(|_| t.err(format!("expected an integer, got `{}`", t.text)))
}

/// Parses a probability: a finite number in `[0, 1]`. NaN and
/// out-of-range values are parse errors, mirroring the typed
/// construction-time validation in the injector crates.
pub(crate) fn parse_probability(t: &Token<'_>) -> Result<f64, ParseError> {
    let v: f64 = t
        .text
        .parse()
        .map_err(|_| t.err(format!("expected a number, got `{}`", t.text)))?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(t.err(format!("`{}` is not a probability in [0, 1]", t.text)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_carry_line_and_character_column() {
        let src = tokenize("\n  façade  x # comment y\n# only a comment\nend");
        let mut p = src.cursor();
        let line = p.next_line().unwrap();
        assert_eq!(line.no, 2);
        let words: Vec<(&str, usize)> = line.tokens.iter().map(|t| (t.text, t.col)).collect();
        assert_eq!(words, vec![("façade", 3), ("x", 11)]);
        assert_eq!(p.next_line().unwrap().key().text, "end");
        assert!(p.next_line().is_none());
        assert_eq!(p.last_line_no(), 4);
    }

    #[test]
    fn rest_keeps_the_spacing_of_an_expression() {
        let src = tokenize("trans a b  2 *  (x + 1)   # rate");
        let line = src.cursor().next_line().unwrap();
        let (at, text) = line.rest(3, "rate").unwrap();
        assert_eq!((at.col, text), (12, "2 *  (x + 1)"));
        let e = line.rest(9, "rate").unwrap_err();
        assert_eq!((e.col, e.message.as_str()), (24, "missing rate"));
    }

    #[test]
    fn section_rejects_trailing_unknown_and_unterminated() {
        let run = |text: &str| {
            let src = tokenize(text);
            let mut p = src.cursor();
            let mut seen = 0;
            p.section(
                "block keyword",
                &["item"],
                |last| err(last, 1, "unterminated"),
                |_, _| {
                    seen += 1;
                    Ok(())
                },
            )
            .map(|()| seen)
        };
        assert_eq!(run("item\nitem 2\nend"), Ok(2));
        let e = run("item\nend now").unwrap_err();
        assert_eq!((e.line, e.col), (2, 5));
        let e = run("itme").unwrap_err();
        assert!(e.message.contains("did you mean `item`?"), "{e}");
        assert_eq!(run("item\n\n").unwrap_err().message, "unterminated");
    }
}
