//! A SHARPE-style model description language.
//!
//! The paper built its models in the SHARPE tool's input language. This
//! module provides a small, line-oriented dialect covering everything the
//! paper needs — named constants, Markov chains, reliability block
//! diagrams and fault trees, with *hierarchical* references (a block or a
//! basic event may take its reliability from a named Markov model):
//!
//! ```text
//! # the central unit of the BBW system, fail-silent nodes
//! bind lambda_p 1.82e-5
//! bind lambda_t 10 * lambda_p
//! bind cov      0.99
//!
//! markov cu
//!   trans up  pdown  2 * lambda_p * cov
//!   trans up  tdown  2 * lambda_t * cov
//!   trans up  failed 2 * (lambda_p + lambda_t) * (1 - cov)
//!   trans tdown up   1.2e3
//!   trans pdown failed lambda_p + lambda_t
//!   trans tdown failed lambda_p + lambda_t
//!   absorb failed
//!   init up 1
//! end
//!
//! rbd wheels
//!   comp node exp((lambda_p + lambda_t))
//!   kofn sub 3 node node node node
//!   top sub
//! end
//!
//! ftree system
//!   basic cu_fail markov(cu)
//!   basic wn_fail rbd(wheels)
//!   or top_gate cu_fail wn_fail
//!   top top_gate
//! end
//! ```
//!
//! Parse with [`parse`], then evaluate any named model's `R(t)` through
//! [`ModelSet::reliability`]. The scenario DSL ([`crate::scenario`]) shares
//! this language's front end, so an error carries the line and column of
//! the token at fault, and an unknown keyword names the closest known one.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ctmc::{CtmcBuilder, StateId};
use crate::faulttree::{FaultTreeBuilder, GateId};
use crate::model::{CtmcReliability, Exponential, ReliabilityModel};
use crate::rbd::Block;
use crate::syntax::{err, tokenize, unknown, Cursor, Line, ParseError, Token};

/// Largest transition rate, per hour, a `trans` line may declare. The
/// paper's largest rate is the omission repair μ_om = 2.25e3/h, so the
/// bound leaves a factor of 4·10⁵ above it. Near `f64::MAX` a rate makes
/// the one-norm of Q·t overflow, and the matrix exponential cannot scale
/// it back.
const MAX_RATE: f64 = 1e9;

// ---------------------------------------------------------------------------
// Expressions: numbers, identifiers, + - * / and parentheses.
// ---------------------------------------------------------------------------

/// Evaluates `src`, an expression that starts at column `col` of `line`.
fn eval_expr(
    src: &str,
    bindings: &BTreeMap<String, f64>,
    line: usize,
    col: usize,
) -> Result<f64, ParseError> {
    let mut e = Expr {
        tokens: tokenize_expr(src, line, col)?,
        pos: 0,
        bindings,
        line,
        end: col + src.chars().count(),
    };
    let v = e.sum()?;
    if let Some(&(_, at)) = e.tokens.get(e.pos) {
        return Err(err(
            line,
            at,
            format!("trailing tokens in expression `{src}`"),
        ));
    }
    Ok(v)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Num(f64),
    Ident(&'s str),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

/// The tokens of `src`, each with its column.
fn tokenize_expr(src: &str, line: usize, col: usize) -> Result<Vec<(Tok<'_>, usize)>, ParseError> {
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    let byte = |i: usize| chars.get(i).map_or(src.len(), |&(b, _)| b);
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let (start, c) = chars[i];
        let at = col + i;
        i += 1;
        let tok = match c {
            c if c.is_whitespace() => continue,
            '+' => Tok::Plus,
            '-' => Tok::Minus,
            '*' => Tok::Star,
            '/' => Tok::Slash,
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            c if c.is_ascii_digit() || c == '.' => {
                while let Some(&(_, d)) = chars.get(i) {
                    let exponent_sign =
                        (d == '+' || d == '-') && matches!(chars[i - 1].1, 'e' | 'E');
                    if !(d.is_ascii_digit() || matches!(d, '.' | 'e' | 'E') || exponent_sign) {
                        break;
                    }
                    i += 1;
                }
                let text = &src[start..byte(i)];
                Tok::Num(
                    text.parse()
                        .map_err(|_| err(line, at, format!("bad number `{text}`")))?,
                )
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while chars
                    .get(i)
                    .is_some_and(|&(_, d)| d.is_ascii_alphanumeric() || d == '_')
                {
                    i += 1;
                }
                Tok::Ident(&src[start..byte(i)])
            }
            other => return Err(err(line, at, format!("unexpected character `{other}`"))),
        };
        out.push((tok, at));
    }
    Ok(out)
}

/// A recursive-descent evaluator over one expression's tokens.
struct Expr<'s, 'b> {
    tokens: Vec<(Tok<'s>, usize)>,
    pos: usize,
    bindings: &'b BTreeMap<String, f64>,
    line: usize,
    /// The column just past the expression, for errors at its end.
    end: usize,
}

impl Expr<'_, '_> {
    /// The column of the next token, or of the expression's end.
    fn col(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.end, |&(_, at)| at)
    }

    fn next_is(&self, tok: Tok<'_>) -> bool {
        self.tokens.get(self.pos).is_some_and(|&(t, _)| t == tok)
    }

    fn sum(&mut self) -> Result<f64, ParseError> {
        let mut acc = self.product()?;
        loop {
            if self.next_is(Tok::Plus) {
                self.pos += 1;
                acc += self.product()?;
            } else if self.next_is(Tok::Minus) {
                self.pos += 1;
                acc -= self.product()?;
            } else {
                return Ok(acc);
            }
        }
    }

    fn product(&mut self) -> Result<f64, ParseError> {
        let mut acc = self.atom()?;
        loop {
            if self.next_is(Tok::Star) {
                self.pos += 1;
                acc *= self.atom()?;
            } else if self.next_is(Tok::Slash) {
                let at = self.col();
                self.pos += 1;
                let d = self.atom()?;
                if d == 0.0 {
                    return Err(err(self.line, at, "division by zero in expression"));
                }
                acc /= d;
            } else {
                return Ok(acc);
            }
        }
    }

    fn atom(&mut self) -> Result<f64, ParseError> {
        let at = self.col();
        let tok = self.tokens.get(self.pos).map(|&(t, _)| t);
        match tok {
            Some(Tok::Num(v)) => {
                self.pos += 1;
                Ok(v)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                self.bindings
                    .get(name)
                    .copied()
                    .ok_or_else(|| err(self.line, at, format!("unknown binding `{name}`")))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                Ok(-self.atom()?)
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let v = self.sum()?;
                if !self.next_is(Tok::RParen) {
                    return Err(err(self.line, self.col(), "missing `)`"));
                }
                self.pos += 1;
                Ok(v)
            }
            _ => Err(err(self.line, at, "expected number, name or `(`")),
        }
    }
}

/// Evaluates the expression running from operand `i` to the end of `line`,
/// returning its first token with its value.
fn expr_operand<'s>(
    line: &Line<'s>,
    i: usize,
    what: &str,
    bindings: &BTreeMap<String, f64>,
) -> Result<(&'s Token<'s>, f64), ParseError> {
    let (at, text) = line.rest(i, what)?;
    Ok((at, eval_expr(text, bindings, at.line, at.col)?))
}

// ---------------------------------------------------------------------------
// Model definitions (intermediate form), located by their tokens.
// ---------------------------------------------------------------------------

struct MarkovDef<'s> {
    name: &'s Token<'s>,
    /// `(from, to, rate, the rate expression's first token)`.
    transitions: Vec<(&'s Token<'s>, &'s Token<'s>, f64, &'s Token<'s>)>,
    absorbing: Vec<&'s Token<'s>>,
    init: Vec<(&'s Token<'s>, f64)>,
}

/// A `markov(name)` or `rbd(name)` reference to another model.
enum ModelRef<'s> {
    Markov(&'s str),
    Rbd(&'s str),
}

/// An RBD component: an exponential lifetime or another model.
enum CompRef<'s> {
    Exp(f64),
    Model(ModelRef<'s>),
}

/// A fault-tree basic event: a fixed probability or another model.
enum BasicRef<'s> {
    Fixed(f64),
    Model(ModelRef<'s>),
}

/// How a gate combines its children: RBD `series` / fault-tree `and` need
/// all of them, `parallel` / `or` any one, `kofn` at least `k`.
#[derive(Clone, Copy)]
enum Gate {
    All,
    Any,
    KOfN(usize),
}

/// A node of an RBD or fault tree: a leaf (with the token its spec starts
/// at) or a gate over earlier nodes.
enum NodeDef<'s, L> {
    Leaf(&'s Token<'s>, L),
    Gate(Gate, &'s [Token<'s>]),
}

/// An `rbd` (leaves [`CompRef`]) or `ftree` (leaves [`BasicRef`]) block.
struct TreeDef<'s, L> {
    name: &'s Token<'s>,
    nodes: Vec<(&'s Token<'s>, NodeDef<'s, L>)>,
    top: Option<&'s Token<'s>>,
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

/// Parses a model file into a resolved, evaluable [`ModelSet`].
///
/// # Errors
///
/// Returns the first [`ParseError`], located at the token at fault:
/// syntax errors, unknown bindings, dangling references, invalid or
/// over-bound rates, probabilities outside `[0, 1]`.
pub fn parse(source: &str) -> Result<ModelSet, ParseError> {
    let tokens = tokenize(source);
    let mut p = tokens.cursor();
    let mut bindings: BTreeMap<String, f64> = BTreeMap::new();
    let mut markovs = Vec::new();
    let mut rbds = Vec::new();
    let mut ftrees = Vec::new();
    while let Some(line) = p.next_line() {
        match line.key().text {
            "bind" => {
                let name = line.operand(1, "binding name")?;
                let (_, v) = expr_operand(&line, 2, "expression", &bindings)?;
                bindings.insert(name.text.to_string(), v);
            }
            "markov" => markovs.push(parse_markov(&mut p, line, &bindings)?),
            "rbd" => rbds.push(parse_tree(
                &mut p,
                line,
                ["comp", "series", "parallel"],
                |at, spec| parse_comp_ref(at, spec, &bindings),
            )?),
            "ftree" => ftrees.push(parse_tree(
                &mut p,
                line,
                ["basic", "and", "or"],
                |at, spec| parse_basic_ref(at, spec, &bindings),
            )?),
            _ => {
                return Err(unknown(
                    line.key(),
                    "top-level keyword",
                    &["bind", "markov", "rbd", "ftree"],
                ))
            }
        }
    }
    ModelSet::build(bindings, markovs, rbds, ftrees)
}

/// The model name on a block's header line, which holds nothing else.
fn model_name<'s>(header: &Line<'s>) -> Result<&'s Token<'s>, ParseError> {
    let name = header.operand(1, "model name")?;
    header.expect_len(2)?;
    Ok(name)
}

/// The error for a block the source ends inside.
fn missing_end(header: &Line<'_>, name: &Token<'_>) -> ParseError {
    let key = header.key();
    key.err(format!("{} `{}` missing end", key.text, name.text))
}

fn parse_markov<'s>(
    p: &mut Cursor<'s>,
    header: Line<'s>,
    bindings: &BTreeMap<String, f64>,
) -> Result<MarkovDef<'s>, ParseError> {
    let name = model_name(&header)?;
    let mut def = MarkovDef {
        name,
        transitions: Vec::new(),
        absorbing: Vec::new(),
        init: Vec::new(),
    };
    p.section(
        "markov keyword",
        &["trans", "absorb", "init"],
        |_| missing_end(&header, name),
        |_, line| {
            match line.key().text {
                "trans" => {
                    let from = line.operand(1, "source state")?;
                    let to = line.operand(2, "target state")?;
                    let (at, rate) = expr_operand(&line, 3, "rate expression", bindings)?;
                    if rate > MAX_RATE {
                        return Err(at.err(format!(
                            "rate {rate:e} exceeds the bound of {MAX_RATE:e} per hour"
                        )));
                    }
                    def.transitions.push((from, to, rate, at));
                }
                "absorb" => {
                    line.operand(1, "absorbing state")?;
                    for state in &line.tokens[1..] {
                        if def.absorbing.iter().any(|a| a.text == state.text) {
                            return Err(state.err(format!(
                                "state `{}` is already declared absorbing",
                                state.text
                            )));
                        }
                        def.absorbing.push(state);
                    }
                }
                _ => {
                    let state = line.operand(1, "state")?;
                    let (at, prob) = expr_operand(&line, 2, "probability expression", bindings)?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(at.err(format!("probability {prob} outside [0,1]")));
                    }
                    def.init.push((state, prob));
                }
            }
            Ok(())
        },
    )?;
    Ok(def)
}

/// Parses the body of an `rbd` or `ftree` block. `kinds` names its leaf
/// keyword and its all-of and any-of gates; `parse_leaf` reads a leaf's
/// spec, the text after the node name.
fn parse_tree<'s, L>(
    p: &mut Cursor<'s>,
    header: Line<'s>,
    kinds: [&str; 3],
    mut parse_leaf: impl FnMut(&'s Token<'s>, &'s str) -> Result<L, ParseError>,
) -> Result<TreeDef<'s, L>, ParseError> {
    let name = model_name(&header)?;
    let mut def = TreeDef {
        name,
        nodes: Vec::new(),
        top: None,
    };
    let [leaf, all, _] = kinds;
    p.section(
        &format!("{} keyword", header.key().text),
        &[kinds[0], kinds[1], kinds[2], "kofn", "top"],
        |_| missing_end(&header, name),
        |_, line| {
            let key = line.key().text;
            if key == "top" {
                def.top = Some(line.operand(1, "top node")?);
                return line.expect_len(2);
            }
            let node = line.operand(1, "node name")?;
            let node_def = if key == leaf {
                let (at, spec) = line.rest(2, "spec")?;
                NodeDef::Leaf(at, parse_leaf(at, spec)?)
            } else if key == "kofn" {
                let t = line.operand(2, "k")?;
                line.operand(3, "children")?;
                let children = &line.tokens[3..];
                let k: usize = t
                    .text
                    .parse()
                    .map_err(|_| t.err(format!("bad k `{}`", t.text)))?;
                if k < 1 || k > children.len() {
                    return Err(t.err(format!("kofn k={k} out of range")));
                }
                NodeDef::Gate(Gate::KOfN(k), children)
            } else {
                line.operand(2, "children")?;
                let gate = if key == all { Gate::All } else { Gate::Any };
                NodeDef::Gate(gate, &line.tokens[2..])
            };
            def.nodes.push((node, node_def));
            Ok(())
        },
    )?;
    Ok(def)
}

/// Parses `markov(name)` or `rbd(name)`.
fn parse_model_ref(spec: &str) -> Option<ModelRef<'_>> {
    let inner = |prefix: &str| spec.strip_prefix(prefix)?.strip_suffix(')').map(str::trim);
    inner("markov(")
        .map(ModelRef::Markov)
        .or_else(|| inner("rbd(").map(ModelRef::Rbd))
}

/// Parses `exp(expr)`, `markov(name)` or `rbd(name)`.
fn parse_comp_ref<'s>(
    at: &Token<'_>,
    spec: &'s str,
    bindings: &BTreeMap<String, f64>,
) -> Result<CompRef<'s>, ParseError> {
    if let Some(inner) = spec.strip_prefix("exp(").and_then(|s| s.strip_suffix(')')) {
        let rate = eval_expr(inner, bindings, at.line, at.col + "exp(".len())?;
        if !(rate >= 0.0 && rate.is_finite()) {
            return Err(at.err(format!("invalid rate {rate}")));
        }
        return Ok(CompRef::Exp(rate));
    }
    parse_model_ref(spec).map(CompRef::Model).ok_or_else(|| {
        at.err(format!(
            "expected exp(…), markov(…) or rbd(…), got `{spec}`"
        ))
    })
}

/// Parses a fixed probability expression, `markov(name)` or `rbd(name)`.
fn parse_basic_ref<'s>(
    at: &Token<'_>,
    spec: &'s str,
    bindings: &BTreeMap<String, f64>,
) -> Result<BasicRef<'s>, ParseError> {
    if let Some(model) = parse_model_ref(spec) {
        return Ok(BasicRef::Model(model));
    }
    let p = eval_expr(spec, bindings, at.line, at.col)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(at.err(format!("probability {p} outside [0,1]")));
    }
    Ok(BasicRef::Fixed(p))
}

// ---------------------------------------------------------------------------
// Resolved model set.
// ---------------------------------------------------------------------------

/// A compiled model in the set.
#[derive(Clone)]
enum Compiled {
    Markov(Arc<CtmcReliability>),
    Rbd(Arc<Block>),
    /// Fault tree with per-event sources (fixed or model-backed).
    Ftree(Arc<CompiledFtree>),
}

struct CompiledFtree {
    tree: crate::faulttree::FaultTree,
    sources: Vec<FtSource>,
}

enum FtSource {
    Fixed(f64),
    Model(Arc<dyn ReliabilityModel + Send + Sync>),
}

impl CompiledFtree {
    fn top_probability(&self, t_hours: f64) -> f64 {
        let probs: Vec<f64> = self
            .sources
            .iter()
            .map(|s| match s {
                FtSource::Fixed(p) => *p,
                FtSource::Model(m) => m.unreliability(t_hours).clamp(0.0, 1.0),
            })
            .collect();
        self.tree.top_probability(&probs)
    }
}

/// A parsed, resolved model file.
pub struct ModelSet {
    bindings: BTreeMap<String, f64>,
    models: BTreeMap<String, Compiled>,
}

impl fmt::Debug for ModelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSet")
            .field("bindings", &self.bindings.len())
            .field("models", &self.models.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ModelSet {
    fn build(
        bindings: BTreeMap<String, f64>,
        markovs: Vec<MarkovDef<'_>>,
        rbds: Vec<TreeDef<'_, CompRef<'_>>>,
        ftrees: Vec<TreeDef<'_, BasicRef<'_>>>,
    ) -> Result<ModelSet, ParseError> {
        let mut models: BTreeMap<String, Compiled> = BTreeMap::new();
        let fresh = |models: &BTreeMap<String, Compiled>, name: &Token<'_>| {
            if models.contains_key(name.text) {
                return Err(name.err(format!("duplicate model name `{}`", name.text)));
            }
            Ok(name.text.to_string())
        };
        for def in &markovs {
            let name = fresh(&models, def.name)?;
            let model = compile_markov(def)?;
            models.insert(name, Compiled::Markov(Arc::new(model)));
        }
        // RBDs may reference markov models (and earlier RBDs).
        for def in &rbds {
            let name = fresh(&models, def.name)?;
            let block = compile_rbd(def, &models)?;
            models.insert(name, Compiled::Rbd(Arc::new(block)));
        }
        for def in &ftrees {
            let name = fresh(&models, def.name)?;
            let ft = compile_ftree(def, &models)?;
            models.insert(name, Compiled::Ftree(Arc::new(ft)));
        }

        Ok(ModelSet { bindings, models })
    }

    /// Value of a named binding.
    pub fn binding(&self, name: &str) -> Option<f64> {
        self.bindings.get(name).copied()
    }

    /// Names of all models, in definition-kind order.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(|s| s.as_str()).collect()
    }

    /// Evaluates a named model's reliability at `t_hours`.
    ///
    /// For fault trees this is `1 − P(top)`; time-independent trees (all
    /// fixed probabilities) are constant in `t`.
    ///
    /// `None` when no model has that name, or when `t_hours` is negative
    /// or not finite: no model kind has a reliability there.
    pub fn reliability(&self, model: &str, t_hours: f64) -> Option<f64> {
        let model = self.models.get(model)?;
        if !(t_hours.is_finite() && t_hours >= 0.0) {
            return None;
        }
        Some(match model {
            Compiled::Markov(m) => m.reliability(t_hours),
            Compiled::Rbd(b) => b.reliability(t_hours),
            Compiled::Ftree(ft) => 1.0 - ft.top_probability(t_hours),
        })
    }

    /// Exact MTTF for a named Markov model (hours).
    pub fn markov_mttf(&self, model: &str) -> Option<Result<f64, crate::ctmc::CtmcError>> {
        match self.models.get(model)? {
            Compiled::Markov(m) => Some(m.mttf()),
            _ => None,
        }
    }
}

/// The Markov model a `markov(name)` reference at `at` names.
fn markov_model<'m>(
    models: &'m BTreeMap<String, Compiled>,
    name: &str,
    at: &Token<'_>,
) -> Result<&'m Arc<CtmcReliability>, ParseError> {
    match models.get(name) {
        Some(Compiled::Markov(model)) => Ok(model),
        _ => Err(at.err(format!("unknown markov model `{name}`"))),
    }
}

/// The RBD an `rbd(name)` reference at `at` names.
fn rbd_model<'m>(
    models: &'m BTreeMap<String, Compiled>,
    name: &str,
    at: &Token<'_>,
) -> Result<&'m Arc<Block>, ParseError> {
    match models.get(name) {
        Some(Compiled::Rbd(block)) => Ok(block),
        _ => Err(at.err(format!("unknown rbd model `{name}`"))),
    }
}

/// Looks up each child of a gate among the nodes built so far.
fn children<T: Clone>(
    built: &BTreeMap<&str, T>,
    children: &[Token<'_>],
    kind: &str,
) -> Result<Vec<T>, ParseError> {
    children
        .iter()
        .map(|c| {
            built
                .get(c.text)
                .cloned()
                .ok_or_else(|| c.err(format!("unknown {kind} node `{}`", c.text)))
        })
        .collect()
}

fn compile_markov<'s>(def: &MarkovDef<'s>) -> Result<CtmcReliability, ParseError> {
    let mut builder = CtmcBuilder::new();
    let mut states: BTreeMap<&'s str, StateId> = BTreeMap::new();
    let mut intern = |name: &Token<'s>| {
        *states
            .entry(name.text)
            .or_insert_with(|| builder.state(name.text))
    };
    let mut edges = Vec::with_capacity(def.transitions.len());
    for &(from, to, rate, at) in &def.transitions {
        edges.push((intern(from), intern(to), rate, at));
    }
    let absorbing: Vec<StateId> = def.absorbing.iter().map(|&a| intern(a)).collect();
    let init: Vec<(StateId, f64)> = def.init.iter().map(|&(s, p)| (intern(s), p)).collect();
    let name = def.name.text;
    if states.is_empty() {
        return Err(def.name.err(format!("markov `{name}` has no states")));
    }
    for (from, to, rate, at) in edges {
        builder
            .transition(from, to, rate)
            .map_err(|e| at.err(format!("markov `{name}`: {e}")))?;
    }
    let chain = builder.build();

    if init.is_empty() {
        return Err(def.name.err(format!("markov `{name}` needs an init line")));
    }
    let mut pi0 = vec![0.0; chain.num_states()];
    for (s, p) in init {
        pi0[s.0] += p;
    }
    if (pi0.iter().sum::<f64>() - 1.0).abs() > 1e-9 {
        return Err(def
            .name
            .err(format!("markov `{name}`: init probabilities must sum to 1")));
    }
    for (&a, at) in absorbing.iter().zip(&def.absorbing) {
        if (0..chain.num_states()).any(|j| j != a.0 && chain.generator().get(a.0, j) != 0.0) {
            return Err(at.err(format!(
                "markov `{name}`: declared absorbing state `{}` has outgoing transitions",
                at.text
            )));
        }
    }
    Ok(CtmcReliability::new(chain, pi0, absorbing))
}

fn compile_rbd(
    def: &TreeDef<'_, CompRef<'_>>,
    models: &BTreeMap<String, Compiled>,
) -> Result<Block, ParseError> {
    let mut built: BTreeMap<&str, Block> = BTreeMap::new();
    for (name, node) in &def.nodes {
        let block = match node {
            NodeDef::Leaf(_, CompRef::Exp(rate)) => Block::component(Exponential::new(*rate)),
            NodeDef::Leaf(at, CompRef::Model(ModelRef::Markov(m))) => {
                Block::Component(markov_model(models, m, at)?.clone())
            }
            NodeDef::Leaf(at, CompRef::Model(ModelRef::Rbd(r))) => {
                (**rbd_model(models, r, at)?).clone()
            }
            NodeDef::Gate(gate, kids) => {
                let blocks = children(&built, kids, "rbd")?;
                match *gate {
                    Gate::All => Block::series(blocks),
                    Gate::Any => Block::parallel(blocks),
                    Gate::KOfN(k) => Block::k_of_n(k, blocks),
                }
            }
        };
        if built.insert(name.text, block).is_some() {
            return Err(name.err(format!("duplicate rbd node `{}`", name.text)));
        }
    }
    let top = def.top.ok_or_else(|| {
        def.name
            .err(format!("rbd `{}` needs a top line", def.name.text))
    })?;
    built
        .remove(top.text)
        .ok_or_else(|| top.err(format!("unknown top node `{}`", top.text)))
}

fn compile_ftree(
    def: &TreeDef<'_, BasicRef<'_>>,
    models: &BTreeMap<String, Compiled>,
) -> Result<CompiledFtree, ParseError> {
    let mut builder = FaultTreeBuilder::new();
    let mut gates: BTreeMap<&str, GateId> = BTreeMap::new();
    let mut sources: Vec<FtSource> = Vec::new();
    for (name, node) in &def.nodes {
        let gate = match node {
            NodeDef::Leaf(at, basic) => {
                sources.push(match basic {
                    BasicRef::Fixed(p) => FtSource::Fixed(*p),
                    BasicRef::Model(ModelRef::Markov(m)) => {
                        FtSource::Model(markov_model(models, m, at)?.clone())
                    }
                    BasicRef::Model(ModelRef::Rbd(r)) => {
                        FtSource::Model(rbd_model(models, r, at)?.clone())
                    }
                });
                builder.basic_event(name.text)
            }
            NodeDef::Gate(gate, kids) => {
                let c = children(&gates, kids, "ftree")?;
                match *gate {
                    Gate::All => builder.and(c),
                    Gate::Any => builder.or(c),
                    Gate::KOfN(k) => builder.k_of_n(k, c),
                }
            }
        };
        if gates.insert(name.text, gate).is_some() {
            return Err(name.err(format!("duplicate ftree node `{}`", name.text)));
        }
    }
    let top = def.top.ok_or_else(|| {
        def.name
            .err(format!("ftree `{}` needs a top line", def.name.text))
    })?;
    let top_gate = *gates
        .get(top.text)
        .ok_or_else(|| top.err(format!("unknown top node `{}`", top.text)))?;
    Ok(CompiledFtree {
        tree: builder.build(top_gate),
        sources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn expressions_evaluate() {
        let mut b = BTreeMap::new();
        b.insert("x".to_string(), 2.0);
        assert_eq!(eval_expr("1 + 2 * 3", &b, 1, 1).unwrap(), 7.0);
        assert_eq!(eval_expr("(1 + 2) * 3", &b, 1, 1).unwrap(), 9.0);
        assert_eq!(eval_expr("10 * x", &b, 1, 1).unwrap(), 20.0);
        assert_eq!(eval_expr("-x + 5", &b, 1, 1).unwrap(), 3.0);
        assert_close(eval_expr("1.82e-5 * 10", &b, 1, 1).unwrap(), 1.82e-4, 1e-18);
        assert!(eval_expr("1 / 0", &b, 1, 1).is_err());
        assert!(eval_expr("unknown", &b, 1, 1).is_err());
        assert!(eval_expr("1 +", &b, 1, 1).is_err());
    }

    #[test]
    fn bindings_compose() {
        let set = parse("bind a 2\nbind b a * 3\nbind c a + b").unwrap();
        assert_eq!(set.binding("c"), Some(8.0));
        assert_eq!(set.binding("missing"), None);
    }

    #[test]
    fn markov_round_trips_closed_form() {
        let set = parse(
            "
            bind lam 0.01
            markov simple
              trans up down lam
              absorb down
              init up 1
            end
            ",
        )
        .unwrap();
        let t = 50.0;
        assert_close(
            set.reliability("simple", t).unwrap(),
            (-0.01f64 * t).exp(),
            1e-12,
        );
        assert_close(set.markov_mttf("simple").unwrap().unwrap(), 100.0, 1e-9);
    }

    #[test]
    fn rbd_with_markov_component() {
        let set = parse(
            "
            markov node
              trans up down 0.001
              absorb down
              init up 1
            end
            rbd pair
              comp a markov(node)
              comp b markov(node)
              parallel both a b
              top both
            end
            ",
        )
        .unwrap();
        let t = 100.0;
        let r1 = (-0.001f64 * t).exp();
        assert_close(
            set.reliability("pair", t).unwrap(),
            1.0 - (1.0 - r1) * (1.0 - r1),
            1e-12,
        );
    }

    #[test]
    fn full_bbw_file_reproduces_analytic_shape() {
        // The paper's system in the DSL: CU duplex markov + 3-of-4 wheel RBD
        // composed through the Fig. 5 fault tree.
        let set = parse(
            "
            bind lambda_p 1.82e-5
            bind lambda_t 10 * lambda_p
            bind cov 0.99
            bind mu_r 1.2e3

            markov cu
              trans up pdown 2 * lambda_p * cov
              trans up tdown 2 * lambda_t * cov
              trans up failed 2 * (lambda_p + lambda_t) * (1 - cov)
              trans tdown up mu_r
              trans pdown failed lambda_p + lambda_t
              trans tdown failed lambda_p + lambda_t
              absorb failed
              init up 1
            end

            rbd wheels
              comp node exp(lambda_p + lambda_t)
              kofn sub 3 node node node node
              top sub
            end

            ftree system
              basic cu_fail markov(cu)
              basic wn_fail rbd(wheels)
              or top_gate cu_fail wn_fail
              top top_gate
            end
            ",
        )
        .unwrap();
        let t = 8760.0;
        let r_sys = set.reliability("system", t).unwrap();
        let r_cu = set.reliability("cu", t).unwrap();
        let r_wn = set.reliability("wheels", t).unwrap();
        assert_close(r_sys, r_cu * r_wn, 1e-12);
        assert!(r_sys > 0.0 && r_sys < 1.0);
        // The DSL-built CU matches the native analytic FS central unit.
        let native = crate::model::ReliabilityModel::reliability(
            &{
                // Native equivalent built by hand:
                let mut b = CtmcBuilder::new();
                let up = b.state("up");
                let pd = b.state("pdown");
                let td = b.state("tdown");
                let f = b.state("failed");
                let (lp, lt, cov, mu) = (1.82e-5, 1.82e-4, 0.99, 1.2e3);
                b.transition(up, pd, 2.0 * lp * cov).unwrap();
                b.transition(up, td, 2.0 * lt * cov).unwrap();
                b.transition(up, f, 2.0 * (lp + lt) * (1.0 - cov)).unwrap();
                b.transition(td, up, mu).unwrap();
                b.transition(pd, f, lp + lt).unwrap();
                b.transition(td, f, lp + lt).unwrap();
                CtmcReliability::new(b.build(), vec![1.0, 0.0, 0.0, 0.0], vec![f])
            },
            t,
        );
        assert_close(r_cu, native, 1e-12);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let set = parse(
            "# header\n\nbind x 1 # trailing\nmarkov m\n trans a b x # rate\n absorb b\n init a 1\nend",
        )
        .unwrap();
        assert!(set.reliability("m", 1.0).is_some());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("bind x 1\nbogus y").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = parse("markov m\n trans a b not_a_binding\nend").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("markov m\n trans a b 1\n absorb b\n init a 1").unwrap_err();
        assert!(e.message.contains("missing end"));
    }

    #[test]
    fn semantic_errors_detected() {
        // init doesn't sum to 1.
        assert!(parse("markov m\n trans a b 1\n init a 0.5\nend")
            .unwrap_err()
            .message
            .contains("sum to 1"));
        // absorbing state with outgoing edges.
        assert!(
            parse("markov m\n trans a b 1\n trans b a 1\n absorb b\n init a 1\nend")
                .unwrap_err()
                .message
                .contains("outgoing")
        );
        // dangling reference.
        assert!(parse("rbd r\n comp a markov(nope)\n top a\nend")
            .unwrap_err()
            .message
            .contains("unknown markov"));
        // missing top.
        assert!(parse("rbd r\n comp a exp(1)\nend")
            .unwrap_err()
            .message
            .contains("top"));
        // bad probability.
        assert!(parse("ftree f\n basic e 1.5\n top e\nend").is_err());
        // duplicate model names.
        assert!(parse(
            "markov m\n trans a b 1\n init a 1\nend\nrbd m\n comp a exp(1)\n top a\nend"
        )
        .unwrap_err()
        .message
        .contains("duplicate"));
    }

    #[test]
    fn ftree_with_fixed_probabilities_is_time_independent() {
        let set = parse(
            "
            ftree f
              basic a 0.1
              basic b 0.2
              and g a b
              top g
            end
            ",
        )
        .unwrap();
        let r0 = set.reliability("f", 0.0).unwrap();
        let r1 = set.reliability("f", 1e6).unwrap();
        assert_close(r0, 1.0 - 0.02, 1e-12);
        assert_eq!(r0, r1);
    }

    #[test]
    fn kofn_bounds_checked_in_both_sections() {
        assert!(parse("rbd r\n comp a exp(1)\n kofn g 2 a\n top g\nend").is_err());
        assert!(parse("ftree f\n basic a 0.5\n kofn g 2 a\n top g\nend").is_err());
    }

    #[test]
    fn misspelled_keyword_gets_line_col_and_hint() {
        let e = parse("markvo m\n trans a b 1\n init a 1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (1, 1));
        assert!(e.message.contains("did you mean `markov`?"), "{e}");

        let e = parse("markov m\n  tran a b 1\n init a 1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert!(e.message.contains("did you mean `trans`?"), "{e}");
    }

    #[test]
    fn over_bound_rates_are_rejected_at_their_trans_line() {
        // Column c of Q·t would sum past f64::MAX: expm never finished.
        let e = parse(
            "markov m\n trans a c 1e305\n trans b c 1e305\n trans a b 1\n absorb c\n init a 1\nend",
        )
        .unwrap_err();
        assert_eq!((e.line, e.col), (2, 12));
        assert!(e.message.contains("exceeds the bound"), "{e}");
        // Q·t overflowed to an infinite entry: expm panicked.
        let e = parse("markov m\n trans a b   1e305 * 1\n absorb b\n init a 1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (2, 14));
        // The paper's largest rate is far inside the bound.
        let set = parse("markov m\n trans a b 2.25e3\n absorb b\n init a 1\nend").unwrap();
        assert!(set.reliability("m", 8760.0).is_some());
    }

    #[test]
    fn absorbing_state_declared_twice_is_rejected() {
        // Counted twice, it made R(1) = 1 - 2(1 - e^-1) < 0.
        let e = parse("markov m\n trans a b 1\n absorb b b\n init a 1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (3, 11));
        assert!(e.message.contains("already declared absorbing"), "{e}");
        let e = parse("markov m\n trans a b 1\n absorb b\n absorb b\n init a 1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (4, 9));
    }

    #[test]
    fn markov_errors_point_at_the_line_that_caused_them() {
        let e = parse("markov m\n trans a b 1\n trans b b 1\n init a 1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (3, 12));
        let e =
            parse("markov m\n trans a b 1\n trans b a 1\n absorb b\n init a 1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (4, 9));
        // A negative init probability summing to 1 with the rest used to
        // panic inside `reliability`.
        let e = parse("markov m\n trans a b 1\n absorb b\n init a 2\n init b -1\nend").unwrap_err();
        assert_eq!((e.line, e.col), (4, 9));
    }

    #[test]
    fn tokens_after_end_are_rejected() {
        let e = parse("rbd r\n comp a exp(1)\n top a\nend r").unwrap_err();
        assert_eq!((e.line, e.col), (4, 5));
        assert!(e.message.contains("unexpected trailing `r`"), "{e}");
    }

    #[test]
    fn expression_errors_carry_the_column_of_the_bad_token() {
        let e = parse("bind x 1\nbind y 2 * (x + nope)").unwrap_err();
        assert_eq!((e.line, e.col), (2, 17));
        assert!(e.message.contains("unknown binding `nope`"), "{e}");
        let e = parse("rbd r\n comp a exp(1 / 0)\n top a\nend").unwrap_err();
        assert_eq!((e.line, e.col), (2, 15));
    }

    #[test]
    fn duplicate_rbd_node_is_rejected_at_its_second_name() {
        // The second `comp a` used to replace the first: R(1) = e^-2.
        let e = parse("rbd r\n comp a exp(1)\n comp a exp(2)\n top a\nend").unwrap_err();
        assert_eq!((e.line, e.col), (3, 7));
        assert_eq!(e.message, "duplicate rbd node `a`");
        let e =
            parse("rbd r\n comp a exp(1)\n comp b exp(1)\n series a b\n top a\nend").unwrap_err();
        assert_eq!((e.line, e.col), (4, 9));
    }

    #[test]
    fn a_bad_time_has_no_reliability_for_any_model_kind() {
        let set = parse(
            "markov m\n trans a b 1\n absorb b\n init a 1\nend\n\
             rbd r\n comp c exp(0.5)\n top c\nend\n\
             ftree f\n basic e markov(m)\n top e\nend",
        )
        .unwrap();
        for name in ["m", "r", "f"] {
            for t in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert_eq!(set.reliability(name, t), None, "R_{name}({t})");
            }
            assert!(set.reliability(name, 0.0).is_some_and(|r| r == 1.0));
        }
        assert_eq!(set.reliability("nope", 1.0), None);
    }

    #[test]
    fn model_names_listed() {
        let set =
            parse("markov m\n trans a b 1\n init a 1\nend\nrbd r\n comp c exp(1)\n top c\nend")
                .unwrap();
        assert_eq!(set.model_names(), vec!["m", "r"]);
    }
}
