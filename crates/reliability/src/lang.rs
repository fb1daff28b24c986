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
//! [`ModelSet::reliability`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ctmc::{Ctmc, CtmcBuilder, StateId};
use crate::faulttree::{FaultTreeBuilder, GateId};
use crate::model::{CtmcReliability, Exponential, ReliabilityModel};
use crate::rbd::Block;

/// A parse or semantic error, with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LangError {}

fn err(line: usize, message: impl Into<String>) -> LangError {
    LangError {
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Expressions: numbers, identifiers, + - * / and parentheses.
// ---------------------------------------------------------------------------

fn eval_expr(src: &str, bindings: &BTreeMap<String, f64>, line: usize) -> Result<f64, LangError> {
    let tokens = tokenize_expr(src, line)?;
    let mut pos = 0usize;
    let v = parse_sum(&tokens, &mut pos, bindings, line)?;
    if pos != tokens.len() {
        return Err(err(line, format!("trailing tokens in expression `{src}`")));
    }
    Ok(v)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize_expr(src: &str, line: usize) -> Result<Vec<Tok>, LangError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == '.'
                        || bytes[i] == 'e'
                        || bytes[i] == 'E'
                        || ((bytes[i] == '+' || bytes[i] == '-')
                            && i > start
                            && (bytes[i - 1] == 'e' || bytes[i - 1] == 'E')))
                {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let v: f64 = text
                    .parse()
                    .map_err(|_| err(line, format!("bad number `{text}`")))?;
                out.push(Tok::Num(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Tok::Ident(bytes[start..i].iter().collect()));
            }
            other => return Err(err(line, format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

fn parse_sum(
    tokens: &[Tok],
    pos: &mut usize,
    bindings: &BTreeMap<String, f64>,
    line: usize,
) -> Result<f64, LangError> {
    let mut acc = parse_product(tokens, pos, bindings, line)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Tok::Plus => {
                *pos += 1;
                acc += parse_product(tokens, pos, bindings, line)?;
            }
            Tok::Minus => {
                *pos += 1;
                acc -= parse_product(tokens, pos, bindings, line)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_product(
    tokens: &[Tok],
    pos: &mut usize,
    bindings: &BTreeMap<String, f64>,
    line: usize,
) -> Result<f64, LangError> {
    let mut acc = parse_atom(tokens, pos, bindings, line)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Tok::Star => {
                *pos += 1;
                acc *= parse_atom(tokens, pos, bindings, line)?;
            }
            Tok::Slash => {
                *pos += 1;
                let d = parse_atom(tokens, pos, bindings, line)?;
                if d == 0.0 {
                    return Err(err(line, "division by zero in expression"));
                }
                acc /= d;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_atom(
    tokens: &[Tok],
    pos: &mut usize,
    bindings: &BTreeMap<String, f64>,
    line: usize,
) -> Result<f64, LangError> {
    match tokens.get(*pos) {
        Some(Tok::Num(v)) => {
            *pos += 1;
            Ok(*v)
        }
        Some(Tok::Ident(name)) => {
            *pos += 1;
            bindings
                .get(name)
                .copied()
                .ok_or_else(|| err(line, format!("unknown binding `{name}`")))
        }
        Some(Tok::Minus) => {
            *pos += 1;
            Ok(-parse_atom(tokens, pos, bindings, line)?)
        }
        Some(Tok::LParen) => {
            *pos += 1;
            let v = parse_sum(tokens, pos, bindings, line)?;
            if tokens.get(*pos) != Some(&Tok::RParen) {
                return Err(err(line, "missing `)`"));
            }
            *pos += 1;
            Ok(v)
        }
        _ => Err(err(line, "expected number, name or `(`")),
    }
}

// ---------------------------------------------------------------------------
// Model definitions (intermediate form).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct MarkovDef {
    name: String,
    transitions: Vec<(String, String, f64)>,
    absorbing: Vec<String>,
    init: Vec<(String, f64)>,
    line: usize,
}

#[derive(Debug, Clone)]
enum CompRef {
    Exp(f64),
    Markov(String),
    Rbd(String),
}

#[derive(Debug, Clone)]
enum RbdNodeDef {
    Comp(CompRef),
    Series(Vec<String>),
    Parallel(Vec<String>),
    KOfN(usize, Vec<String>),
}

#[derive(Debug, Clone)]
struct RbdDef {
    name: String,
    nodes: Vec<(String, RbdNodeDef, usize)>, // (name, def, line)
    top: Option<(String, usize)>,
    line: usize,
}

#[derive(Debug, Clone)]
enum BasicRef {
    Fixed(f64),
    Markov(String),
    Rbd(String),
}

#[derive(Debug, Clone)]
enum FtNodeDef {
    Basic(BasicRef),
    And(Vec<String>),
    Or(Vec<String>),
    KOfN(usize, Vec<String>),
}

#[derive(Debug, Clone)]
struct FtreeDef {
    name: String,
    nodes: Vec<(String, FtNodeDef, usize)>,
    top: Option<(String, usize)>,
    line: usize,
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

/// Parses a model file into a resolved, evaluable [`ModelSet`].
///
/// # Errors
///
/// Returns the first [`LangError`]: syntax errors, unknown bindings,
/// dangling references, invalid rates or probabilities.
pub fn parse(source: &str) -> Result<ModelSet, LangError> {
    let mut bindings: BTreeMap<String, f64> = BTreeMap::new();
    let mut markovs: Vec<MarkovDef> = Vec::new();
    let mut rbds: Vec<RbdDef> = Vec::new();
    let mut ftrees: Vec<FtreeDef> = Vec::new();

    #[derive(Debug)]
    enum Section {
        TopLevel,
        Markov(MarkovDef),
        Rbd(RbdDef),
        Ftree(FtreeDef),
    }
    let mut section = Section::TopLevel;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let text = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if text.is_empty() {
            continue;
        }
        let words: Vec<&str> = text.split_whitespace().collect();
        let keyword = words[0];

        match (&mut section, keyword) {
            (Section::TopLevel, "bind") => {
                if words.len() < 3 {
                    return Err(err(line_no, "bind needs a name and an expression"));
                }
                let name = words[1].to_string();
                let expr = words[2..].join(" ");
                let v = eval_expr(&expr, &bindings, line_no)?;
                bindings.insert(name, v);
            }
            (Section::TopLevel, "markov") => {
                if words.len() != 2 {
                    return Err(err(line_no, "markov needs exactly one name"));
                }
                section = Section::Markov(MarkovDef {
                    name: words[1].to_string(),
                    transitions: Vec::new(),
                    absorbing: Vec::new(),
                    init: Vec::new(),
                    line: line_no,
                });
            }
            (Section::TopLevel, "rbd") => {
                if words.len() != 2 {
                    return Err(err(line_no, "rbd needs exactly one name"));
                }
                section = Section::Rbd(RbdDef {
                    name: words[1].to_string(),
                    nodes: Vec::new(),
                    top: None,
                    line: line_no,
                });
            }
            (Section::TopLevel, "ftree") => {
                if words.len() != 2 {
                    return Err(err(line_no, "ftree needs exactly one name"));
                }
                section = Section::Ftree(FtreeDef {
                    name: words[1].to_string(),
                    nodes: Vec::new(),
                    top: None,
                    line: line_no,
                });
            }
            (Section::TopLevel, other) => {
                return Err(err(line_no, format!("unknown top-level keyword `{other}`")))
            }

            (Section::Markov(def), "trans") => {
                if words.len() < 4 {
                    return Err(err(line_no, "trans needs: from to rate-expr"));
                }
                let rate = eval_expr(&words[3..].join(" "), &bindings, line_no)?;
                def.transitions
                    .push((words[1].to_string(), words[2].to_string(), rate));
            }
            (Section::Markov(def), "absorb") => {
                if words.len() < 2 {
                    return Err(err(line_no, "absorb needs at least one state"));
                }
                def.absorbing
                    .extend(words[1..].iter().map(|s| s.to_string()));
            }
            (Section::Markov(def), "init") => {
                if words.len() < 3 {
                    return Err(err(line_no, "init needs: state prob-expr"));
                }
                let p = eval_expr(&words[2..].join(" "), &bindings, line_no)?;
                def.init.push((words[1].to_string(), p));
            }
            (Section::Markov(_), "end") => {
                if let Section::Markov(def) = std::mem::replace(&mut section, Section::TopLevel) {
                    markovs.push(def);
                }
            }
            (Section::Markov(_), other) => {
                return Err(err(line_no, format!("unknown markov keyword `{other}`")))
            }

            (Section::Rbd(def), "comp") => {
                if words.len() < 3 {
                    return Err(err(line_no, "comp needs: name spec"));
                }
                let spec = words[2..].join(" ");
                let comp = parse_comp_ref(&spec, &bindings, line_no)?;
                def.nodes
                    .push((words[1].to_string(), RbdNodeDef::Comp(comp), line_no));
            }
            (Section::Rbd(def), "series") => {
                if words.len() < 3 {
                    return Err(err(line_no, "series needs: name children…"));
                }
                def.nodes.push((
                    words[1].to_string(),
                    RbdNodeDef::Series(words[2..].iter().map(|s| s.to_string()).collect()),
                    line_no,
                ));
            }
            (Section::Rbd(def), "parallel") => {
                if words.len() < 3 {
                    return Err(err(line_no, "parallel needs: name children…"));
                }
                def.nodes.push((
                    words[1].to_string(),
                    RbdNodeDef::Parallel(words[2..].iter().map(|s| s.to_string()).collect()),
                    line_no,
                ));
            }
            (Section::Rbd(def), "kofn") => {
                if words.len() < 4 {
                    return Err(err(line_no, "kofn needs: name k children…"));
                }
                let k: usize = words[2]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad k `{}`", words[2])))?;
                def.nodes.push((
                    words[1].to_string(),
                    RbdNodeDef::KOfN(k, words[3..].iter().map(|s| s.to_string()).collect()),
                    line_no,
                ));
            }
            (Section::Rbd(def), "top") => {
                if words.len() != 2 {
                    return Err(err(line_no, "top needs exactly one node"));
                }
                def.top = Some((words[1].to_string(), line_no));
            }
            (Section::Rbd(_), "end") => {
                if let Section::Rbd(def) = std::mem::replace(&mut section, Section::TopLevel) {
                    rbds.push(def);
                }
            }
            (Section::Rbd(_), other) => {
                return Err(err(line_no, format!("unknown rbd keyword `{other}`")))
            }

            (Section::Ftree(def), "basic") => {
                if words.len() < 3 {
                    return Err(err(line_no, "basic needs: name spec"));
                }
                let spec = words[2..].join(" ");
                let basic = parse_basic_ref(&spec, &bindings, line_no)?;
                def.nodes
                    .push((words[1].to_string(), FtNodeDef::Basic(basic), line_no));
            }
            (Section::Ftree(def), "and") => {
                if words.len() < 3 {
                    return Err(err(line_no, "and needs: name children…"));
                }
                def.nodes.push((
                    words[1].to_string(),
                    FtNodeDef::And(words[2..].iter().map(|s| s.to_string()).collect()),
                    line_no,
                ));
            }
            (Section::Ftree(def), "or") => {
                if words.len() < 3 {
                    return Err(err(line_no, "or needs: name children…"));
                }
                def.nodes.push((
                    words[1].to_string(),
                    FtNodeDef::Or(words[2..].iter().map(|s| s.to_string()).collect()),
                    line_no,
                ));
            }
            (Section::Ftree(def), "kofn") => {
                if words.len() < 4 {
                    return Err(err(line_no, "kofn needs: name k children…"));
                }
                let k: usize = words[2]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad k `{}`", words[2])))?;
                def.nodes.push((
                    words[1].to_string(),
                    FtNodeDef::KOfN(k, words[3..].iter().map(|s| s.to_string()).collect()),
                    line_no,
                ));
            }
            (Section::Ftree(def), "top") => {
                if words.len() != 2 {
                    return Err(err(line_no, "top needs exactly one node"));
                }
                def.top = Some((words[1].to_string(), line_no));
            }
            (Section::Ftree(_), "end") => {
                if let Section::Ftree(def) = std::mem::replace(&mut section, Section::TopLevel) {
                    ftrees.push(def);
                }
            }
            (Section::Ftree(_), other) => {
                return Err(err(line_no, format!("unknown ftree keyword `{other}`")))
            }
        }
    }

    match section {
        Section::TopLevel => {}
        Section::Markov(d) => return Err(err(d.line, format!("markov `{}` missing end", d.name))),
        Section::Rbd(d) => return Err(err(d.line, format!("rbd `{}` missing end", d.name))),
        Section::Ftree(d) => return Err(err(d.line, format!("ftree `{}` missing end", d.name))),
    }

    ModelSet::build(bindings, markovs, rbds, ftrees)
}

/// Parses `exp(expr)`, `markov(name)` or `rbd(name)`.
fn parse_comp_ref(
    spec: &str,
    bindings: &BTreeMap<String, f64>,
    line: usize,
) -> Result<CompRef, LangError> {
    let spec = spec.trim();
    if let Some(inner) = spec.strip_prefix("exp(").and_then(|s| s.strip_suffix(')')) {
        let rate = eval_expr(inner, bindings, line)?;
        if !(rate >= 0.0 && rate.is_finite()) {
            return Err(err(line, format!("invalid rate {rate}")));
        }
        Ok(CompRef::Exp(rate))
    } else if let Some(inner) = spec
        .strip_prefix("markov(")
        .and_then(|s| s.strip_suffix(')'))
    {
        Ok(CompRef::Markov(inner.trim().to_string()))
    } else if let Some(inner) = spec.strip_prefix("rbd(").and_then(|s| s.strip_suffix(')')) {
        Ok(CompRef::Rbd(inner.trim().to_string()))
    } else {
        Err(err(
            line,
            format!("expected exp(…), markov(…) or rbd(…), got `{spec}`"),
        ))
    }
}

/// Parses a fixed probability expression, `markov(name)` or `rbd(name)`.
fn parse_basic_ref(
    spec: &str,
    bindings: &BTreeMap<String, f64>,
    line: usize,
) -> Result<BasicRef, LangError> {
    let spec = spec.trim();
    if let Some(inner) = spec
        .strip_prefix("markov(")
        .and_then(|s| s.strip_suffix(')'))
    {
        Ok(BasicRef::Markov(inner.trim().to_string()))
    } else if let Some(inner) = spec.strip_prefix("rbd(").and_then(|s| s.strip_suffix(')')) {
        Ok(BasicRef::Rbd(inner.trim().to_string()))
    } else {
        let p = eval_expr(spec, bindings, line)?;
        if !(0.0..=1.0).contains(&p) {
            return Err(err(line, format!("probability {p} outside [0,1]")));
        }
        Ok(BasicRef::Fixed(p))
    }
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
        markovs: Vec<MarkovDef>,
        rbds: Vec<RbdDef>,
        ftrees: Vec<FtreeDef>,
    ) -> Result<ModelSet, LangError> {
        let mut models: BTreeMap<String, Compiled> = BTreeMap::new();

        for def in markovs {
            if models.contains_key(&def.name) {
                return Err(err(
                    def.line,
                    format!("duplicate model name `{}`", def.name),
                ));
            }
            let model = compile_markov(&def)?;
            models.insert(def.name.clone(), Compiled::Markov(Arc::new(model)));
        }
        // RBDs may reference markov models (and earlier RBDs).
        for def in rbds {
            if models.contains_key(&def.name) {
                return Err(err(
                    def.line,
                    format!("duplicate model name `{}`", def.name),
                ));
            }
            let block = compile_rbd(&def, &models)?;
            models.insert(def.name.clone(), Compiled::Rbd(Arc::new(block)));
        }
        for def in ftrees {
            if models.contains_key(&def.name) {
                return Err(err(
                    def.line,
                    format!("duplicate model name `{}`", def.name),
                ));
            }
            let ft = compile_ftree(&def, &models)?;
            models.insert(def.name.clone(), Compiled::Ftree(Arc::new(ft)));
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
    pub fn reliability(&self, model: &str, t_hours: f64) -> Option<f64> {
        Some(match self.models.get(model)? {
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

fn compile_markov(def: &MarkovDef) -> Result<CtmcReliability, LangError> {
    let mut builder = CtmcBuilder::new();
    let mut states: BTreeMap<String, StateId> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let intern = |name: &str,
                  b: &mut CtmcBuilder,
                  states: &mut BTreeMap<String, StateId>,
                  order: &mut Vec<String>| {
        *states.entry(name.to_string()).or_insert_with(|| {
            order.push(name.to_string());
            b.state(name)
        })
    };
    for (from, to, rate) in &def.transitions {
        let f = intern(from, &mut builder, &mut states, &mut order);
        let t = intern(to, &mut builder, &mut states, &mut order);
        builder
            .transition(f, t, *rate)
            .map_err(|e| err(def.line, format!("markov `{}`: {e}", def.name)))?;
    }
    for a in &def.absorbing {
        intern(a, &mut builder, &mut states, &mut order);
    }
    for (s, _) in &def.init {
        intern(s, &mut builder, &mut states, &mut order);
    }
    if states.is_empty() {
        return Err(err(
            def.line,
            format!("markov `{}` has no states", def.name),
        ));
    }
    let chain: Ctmc = builder.build();

    let mut pi0 = vec![0.0; chain.num_states()];
    if def.init.is_empty() {
        return Err(err(
            def.line,
            format!("markov `{}` needs an init line", def.name),
        ));
    }
    for (sname, p) in &def.init {
        pi0[states[sname].0] += *p;
    }
    if (pi0.iter().sum::<f64>() - 1.0).abs() > 1e-9 {
        return Err(err(
            def.line,
            format!("markov `{}`: init probabilities must sum to 1", def.name),
        ));
    }
    let absorbing: Vec<StateId> = def.absorbing.iter().map(|a| states[a]).collect();
    for &a in &absorbing {
        for j in 0..chain.num_states() {
            if j != a.0 && chain.generator().get(a.0, j) != 0.0 {
                return Err(err(
                    def.line,
                    format!(
                        "markov `{}`: declared absorbing state `{}` has outgoing transitions",
                        def.name,
                        chain.name(a)
                    ),
                ));
            }
        }
    }
    Ok(CtmcReliability::new(chain, pi0, absorbing))
}

fn compile_rbd(def: &RbdDef, models: &BTreeMap<String, Compiled>) -> Result<Block, LangError> {
    let mut built: BTreeMap<String, Block> = BTreeMap::new();
    for (name, node, line) in &def.nodes {
        let resolve_children = |children: &[String],
                                built: &BTreeMap<String, Block>|
         -> Result<Vec<Block>, LangError> {
            children
                .iter()
                .map(|c| {
                    built
                        .get(c)
                        .cloned()
                        .ok_or_else(|| err(*line, format!("unknown rbd node `{c}`")))
                })
                .collect()
        };
        let block = match node {
            RbdNodeDef::Comp(CompRef::Exp(rate)) => Block::component(Exponential::new(*rate)),
            RbdNodeDef::Comp(CompRef::Markov(m)) => match models.get(m) {
                Some(Compiled::Markov(model)) => Block::Component(model.clone()),
                _ => return Err(err(*line, format!("unknown markov model `{m}`"))),
            },
            RbdNodeDef::Comp(CompRef::Rbd(r)) => match models.get(r) {
                Some(Compiled::Rbd(b)) => (**b).clone(),
                _ => return Err(err(*line, format!("unknown rbd model `{r}`"))),
            },
            RbdNodeDef::Series(children) => Block::series(resolve_children(children, &built)?),
            RbdNodeDef::Parallel(children) => Block::parallel(resolve_children(children, &built)?),
            RbdNodeDef::KOfN(k, children) => {
                let blocks = resolve_children(children, &built)?;
                if *k < 1 || *k > blocks.len() {
                    return Err(err(*line, format!("kofn k={k} out of range")));
                }
                Block::k_of_n(*k, blocks)
            }
        };
        built.insert(name.clone(), block);
    }
    let (top, top_line) = def
        .top
        .clone()
        .ok_or_else(|| err(def.line, format!("rbd `{}` needs a top line", def.name)))?;
    built
        .remove(&top)
        .ok_or_else(|| err(top_line, format!("unknown top node `{top}`")))
}

fn compile_ftree(
    def: &FtreeDef,
    models: &BTreeMap<String, Compiled>,
) -> Result<CompiledFtree, LangError> {
    let mut builder = FaultTreeBuilder::new();
    let mut gates: BTreeMap<String, GateId> = BTreeMap::new();
    let mut sources: Vec<FtSource> = Vec::new();
    for (name, node, line) in &def.nodes {
        let resolve = |children: &[String],
                       gates: &BTreeMap<String, GateId>|
         -> Result<Vec<GateId>, LangError> {
            children
                .iter()
                .map(|c| {
                    gates
                        .get(c)
                        .copied()
                        .ok_or_else(|| err(*line, format!("unknown ftree node `{c}`")))
                })
                .collect()
        };
        let gate = match node {
            FtNodeDef::Basic(basic) => {
                let source = match basic {
                    BasicRef::Fixed(p) => FtSource::Fixed(*p),
                    BasicRef::Markov(m) => match models.get(m) {
                        Some(Compiled::Markov(model)) => FtSource::Model(model.clone()),
                        _ => return Err(err(*line, format!("unknown markov model `{m}`"))),
                    },
                    BasicRef::Rbd(r) => match models.get(r) {
                        Some(Compiled::Rbd(b)) => FtSource::Model(b.clone()),
                        _ => return Err(err(*line, format!("unknown rbd model `{r}`"))),
                    },
                };
                sources.push(source);
                builder.basic_event(name.clone())
            }
            FtNodeDef::And(children) => builder.and(resolve(children, &gates)?),
            FtNodeDef::Or(children) => builder.or(resolve(children, &gates)?),
            FtNodeDef::KOfN(k, children) => {
                let c = resolve(children, &gates)?;
                if *k < 1 || *k > c.len() {
                    return Err(err(*line, format!("kofn k={k} out of range")));
                }
                builder.k_of_n(*k, c)
            }
        };
        if gates.insert(name.clone(), gate).is_some() {
            return Err(err(*line, format!("duplicate ftree node `{name}`")));
        }
    }
    let (top, top_line) = def
        .top
        .clone()
        .ok_or_else(|| err(def.line, format!("ftree `{}` needs a top line", def.name)))?;
    let top_gate = *gates
        .get(&top)
        .ok_or_else(|| err(top_line, format!("unknown top node `{top}`")))?;
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
        assert_eq!(eval_expr("1 + 2 * 3", &b, 1).unwrap(), 7.0);
        assert_eq!(eval_expr("(1 + 2) * 3", &b, 1).unwrap(), 9.0);
        assert_eq!(eval_expr("10 * x", &b, 1).unwrap(), 20.0);
        assert_eq!(eval_expr("-x + 5", &b, 1).unwrap(), 3.0);
        assert_close(eval_expr("1.82e-5 * 10", &b, 1).unwrap(), 1.82e-4, 1e-18);
        assert!(eval_expr("1 / 0", &b, 1).is_err());
        assert!(eval_expr("unknown", &b, 1).is_err());
        assert!(eval_expr("1 +", &b, 1).is_err());
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
    fn model_names_listed() {
        let set =
            parse("markov m\n trans a b 1\n init a 1\nend\nrbd r\n comp c exp(1)\n top c\nend")
                .unwrap();
        assert_eq!(set.model_names(), vec!["m", "r"]);
    }
}
