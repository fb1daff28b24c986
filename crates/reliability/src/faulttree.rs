//! Fault trees with exact BDD evaluation — the fault-tree half of SHARPE.
//!
//! The paper's system model (Fig. 5) is a fault tree whose basic events are
//! subsystem failures. This module supports AND/OR/k-of-n gates over a DAG
//! of nodes with *shared* basic events, evaluated exactly through a reduced
//! ordered binary decision diagram (BDD) — naive gate-by-gate probability
//! arithmetic would double-count shared events.
//!
//! [`HierarchicalTree`] closes the SHARPE loop: basic events are themselves
//! [`ReliabilityModel`]s (Markov chains, RBDs, …), and the tree is again a
//! `ReliabilityModel`, so models nest arbitrarily.

use std::collections::HashMap;
use std::sync::Arc;

use crate::model::ReliabilityModel;

/// Index of a basic event (a BDD variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub usize);

/// Index of a gate/node in the tree DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(usize);

#[derive(Debug, Clone)]
enum Node {
    Basic(EventId),
    And(Vec<GateId>),
    Or(Vec<GateId>),
    KOfN(usize, Vec<GateId>),
}

/// Builder for a fault tree.
///
/// # Examples
///
/// ```
/// use nlft_reliability::faulttree::FaultTreeBuilder;
///
/// // System fails if the CU fails OR the wheel-node subsystem fails (Fig. 5).
/// let mut b = FaultTreeBuilder::new();
/// let cu = b.basic_event("central unit fails");
/// let wn = b.basic_event("wheel subsystem fails");
/// let top = b.or(vec![cu, wn]);
/// let tree = b.build(top);
/// let p = tree.top_probability(&[0.1, 0.2]);
/// assert!((p - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultTreeBuilder {
    event_names: Vec<String>,
    nodes: Vec<Node>,
}

impl FaultTreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        FaultTreeBuilder::default()
    }

    /// Declares a basic event; returns its gate for wiring. The event's
    /// index (for the probability vector) is allocated in call order.
    pub fn basic_event(&mut self, name: impl Into<String>) -> GateId {
        let ev = EventId(self.event_names.len());
        self.event_names.push(name.into());
        self.nodes.push(Node::Basic(ev));
        GateId(self.nodes.len() - 1)
    }

    /// References an already-declared basic event again (shared event).
    ///
    /// # Panics
    ///
    /// Panics if the event does not exist.
    pub fn shared_event(&mut self, event: EventId) -> GateId {
        assert!(event.0 < self.event_names.len(), "unknown event");
        self.nodes.push(Node::Basic(event));
        GateId(self.nodes.len() - 1)
    }

    /// AND gate: fails when **all** children fail.
    ///
    /// # Panics
    ///
    /// Panics on empty children or dangling ids.
    pub fn and(&mut self, children: Vec<GateId>) -> GateId {
        self.check_children(&children);
        self.nodes.push(Node::And(children));
        GateId(self.nodes.len() - 1)
    }

    /// OR gate: fails when **any** child fails.
    ///
    /// # Panics
    ///
    /// Panics on empty children or dangling ids.
    pub fn or(&mut self, children: Vec<GateId>) -> GateId {
        self.check_children(&children);
        self.nodes.push(Node::Or(children));
        GateId(self.nodes.len() - 1)
    }

    /// k-of-n gate: fails when at least `k` children fail.
    ///
    /// # Panics
    ///
    /// Panics on empty children, dangling ids, or `k` out of range.
    pub fn k_of_n(&mut self, k: usize, children: Vec<GateId>) -> GateId {
        self.check_children(&children);
        assert!(k >= 1 && k <= children.len(), "k out of range");
        self.nodes.push(Node::KOfN(k, children));
        GateId(self.nodes.len() - 1)
    }

    fn check_children(&self, children: &[GateId]) {
        assert!(!children.is_empty(), "gate needs children");
        for c in children {
            assert!(c.0 < self.nodes.len(), "dangling gate id");
        }
    }

    /// Compiles the tree rooted at `top` into its BDD.
    ///
    /// # Panics
    ///
    /// Panics if `top` is dangling.
    pub fn build(self, top: GateId) -> FaultTree {
        assert!(top.0 < self.nodes.len(), "dangling top gate");
        let mut bdd = Bdd::new();
        let mut memo: HashMap<usize, u32> = HashMap::new();
        let root = compile(&self.nodes, top.0, &mut bdd, &mut memo);
        FaultTree {
            event_names: self.event_names,
            bdd,
            root,
        }
    }
}

fn compile(nodes: &[Node], idx: usize, bdd: &mut Bdd, memo: &mut HashMap<usize, u32>) -> u32 {
    if let Some(&r) = memo.get(&idx) {
        return r;
    }
    let result = match &nodes[idx] {
        Node::Basic(ev) => bdd.var(ev.0),
        Node::And(children) => {
            let mut acc = Bdd::TRUE;
            for &c in children {
                let cb = compile(nodes, c.0, bdd, memo);
                acc = bdd.and(acc, cb);
            }
            acc
        }
        Node::Or(children) => {
            let mut acc = Bdd::FALSE;
            for &c in children {
                let cb = compile(nodes, c.0, bdd, memo);
                acc = bdd.or(acc, cb);
            }
            acc
        }
        Node::KOfN(k, children) => {
            let child_bdds: Vec<u32> = children
                .iter()
                .map(|&c| compile(nodes, c.0, bdd, memo))
                .collect();
            bdd.at_least(*k, &child_bdds)
        }
    };
    memo.insert(idx, result);
    result
}

/// A compiled fault tree.
#[derive(Debug, Clone)]
pub struct FaultTree {
    event_names: Vec<String>,
    bdd: Bdd,
    root: u32,
}

impl FaultTree {
    /// Number of basic events (length of the probability vector).
    pub(crate) fn num_events(&self) -> usize {
        self.event_names.len()
    }

    /// Birnbaum importance of every basic event:
    /// `I_B(i) = P(top | eᵢ occurs) − P(top | eᵢ does not occur)` —
    /// the classic sensitivity measure identifying reliability bottlenecks
    /// (the quantitative form of the paper's Fig. 13 observation).
    ///
    /// # Panics
    ///
    /// As for [`FaultTree::top_probability`].
    pub fn birnbaum_importance(&self, probs: &[f64]) -> Vec<f64> {
        assert_eq!(probs.len(), self.num_events(), "wrong probability count");
        (0..self.num_events())
            .map(|i| {
                let mut hi = probs.to_vec();
                hi[i] = 1.0;
                let mut lo = probs.to_vec();
                lo[i] = 0.0;
                self.top_probability(&hi) - self.top_probability(&lo)
            })
            .collect()
    }

    /// Exact top-event probability given each basic event's probability.
    ///
    /// # Panics
    ///
    /// Panics if `probs` has the wrong length or holds values outside
    /// `[0, 1]`.
    pub fn top_probability(&self, probs: &[f64]) -> f64 {
        assert_eq!(probs.len(), self.num_events(), "wrong probability count");
        assert!(
            probs.iter().all(|p| (0.0..=1.0).contains(p)),
            "probabilities must be in [0,1]"
        );
        let mut memo: HashMap<u32, f64> = HashMap::new();
        self.bdd.probability(self.root, probs, &mut memo)
    }
}

/// A fault tree whose basic events are reliability models; itself a
/// [`ReliabilityModel`] (the hierarchical-composition idiom of SHARPE).
#[derive(Clone)]
pub struct HierarchicalTree {
    tree: FaultTree,
    /// `models[i]` supplies the probability of basic event `i` at time `t`
    /// as its *unreliability*.
    models: Vec<Arc<dyn ReliabilityModel + Send + Sync>>,
}

impl std::fmt::Debug for HierarchicalTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchicalTree")
            .field("events", &self.tree.num_events())
            .finish()
    }
}

impl HierarchicalTree {
    /// Binds one model per basic event, in event order.
    ///
    /// # Panics
    ///
    /// Panics if the count does not match the tree's events.
    pub fn new(tree: FaultTree, models: Vec<Arc<dyn ReliabilityModel + Send + Sync>>) -> Self {
        assert_eq!(
            models.len(),
            tree.num_events(),
            "one model per basic event required"
        );
        HierarchicalTree { tree, models }
    }

    /// The wrapped tree.
    pub fn tree(&self) -> &FaultTree {
        &self.tree
    }
}

impl ReliabilityModel for HierarchicalTree {
    fn reliability(&self, t_hours: f64) -> f64 {
        let probs: Vec<f64> = self
            .models
            .iter()
            .map(|m| m.unreliability(t_hours).clamp(0.0, 1.0))
            .collect();
        1.0 - self.tree.top_probability(&probs)
    }
}

// ---------------------------------------------------------------------------
// Reduced ordered BDD engine.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BddNode {
    var: usize,
    lo: u32,
    hi: u32,
}

#[derive(Debug, Clone)]
struct Bdd {
    nodes: Vec<BddNode>,
    unique: HashMap<BddNode, u32>,
    and_cache: HashMap<(u32, u32), u32>,
    or_cache: HashMap<(u32, u32), u32>,
    not_cache: HashMap<u32, u32>,
}

impl Bdd {
    const FALSE: u32 = 0;
    const TRUE: u32 = 1;
    const TERMINAL_VAR: usize = usize::MAX;

    fn new() -> Self {
        let terminal = |v| BddNode {
            var: Self::TERMINAL_VAR,
            lo: v,
            hi: v,
        };
        Bdd {
            nodes: vec![terminal(0), terminal(1)],
            unique: HashMap::new(),
            and_cache: HashMap::new(),
            or_cache: HashMap::new(),
            not_cache: HashMap::new(),
        }
    }

    fn mk(&mut self, var: usize, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let node = BddNode { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    fn var(&mut self, v: usize) -> u32 {
        self.mk(v, Self::FALSE, Self::TRUE)
    }

    fn var_of(&self, f: u32) -> usize {
        self.nodes[f as usize].var
    }

    fn cofactors(&self, f: u32, v: usize) -> (u32, u32) {
        let n = self.nodes[f as usize];
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    fn and(&mut self, f: u32, g: u32) -> u32 {
        match (f, g) {
            (Self::FALSE, _) | (_, Self::FALSE) => return Self::FALSE,
            (Self::TRUE, x) | (x, Self::TRUE) => return x,
            _ if f == g => return f,
            _ => {}
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.and_cache.get(&key) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g));
        let (flo, fhi) = self.cofactors(f, v);
        let (glo, ghi) = self.cofactors(g, v);
        let lo = self.and(flo, glo);
        let hi = self.and(fhi, ghi);
        let r = self.mk(v, lo, hi);
        self.and_cache.insert(key, r);
        r
    }

    fn or(&mut self, f: u32, g: u32) -> u32 {
        match (f, g) {
            (Self::TRUE, _) | (_, Self::TRUE) => return Self::TRUE,
            (Self::FALSE, x) | (x, Self::FALSE) => return x,
            _ if f == g => return f,
            _ => {}
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.or_cache.get(&key) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g));
        let (flo, fhi) = self.cofactors(f, v);
        let (glo, ghi) = self.cofactors(g, v);
        let lo = self.or(flo, glo);
        let hi = self.or(fhi, ghi);
        let r = self.mk(v, lo, hi);
        self.or_cache.insert(key, r);
        r
    }

    fn not(&mut self, f: u32) -> u32 {
        match f {
            Self::FALSE => return Self::TRUE,
            Self::TRUE => return Self::FALSE,
            _ => {}
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return r;
        }
        let n = self.nodes[f as usize];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(f, r);
        r
    }

    fn ite(&mut self, f: u32, g: u32, h: u32) -> u32 {
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    /// BDD for "at least `k` of these functions are true".
    fn at_least(&mut self, k: usize, fns: &[u32]) -> u32 {
        fn rec(
            bdd: &mut Bdd,
            k: usize,
            idx: usize,
            fns: &[u32],
            memo: &mut HashMap<(usize, usize), u32>,
        ) -> u32 {
            if k == 0 {
                return Bdd::TRUE;
            }
            if fns.len() - idx < k {
                return Bdd::FALSE;
            }
            if let Some(&r) = memo.get(&(k, idx)) {
                return r;
            }
            let with = rec(bdd, k - 1, idx + 1, fns, memo);
            let without = rec(bdd, k, idx + 1, fns, memo);
            let r = bdd.ite(fns[idx], with, without);
            memo.insert((k, idx), r);
            r
        }
        let mut memo = HashMap::new();
        rec(self, k, 0, fns, &mut memo)
    }

    fn probability(&self, f: u32, probs: &[f64], memo: &mut HashMap<u32, f64>) -> f64 {
        match f {
            Self::FALSE => return 0.0,
            Self::TRUE => return 1.0,
            _ => {}
        }
        if let Some(&p) = memo.get(&f) {
            return p;
        }
        let n = self.nodes[f as usize];
        let p_var = probs[n.var];
        let p = p_var * self.probability(n.hi, probs, memo)
            + (1.0 - p_var) * self.probability(n.lo, probs, memo);
        memo.insert(f, p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Exponential;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn or_gate_probability() {
        let mut b = FaultTreeBuilder::new();
        let e1 = b.basic_event("a");
        let e2 = b.basic_event("b");
        let top = b.or(vec![e1, e2]);
        let t = b.build(top);
        assert_close(t.top_probability(&[0.1, 0.2]), 1.0 - 0.9 * 0.8, 1e-12);
    }

    #[test]
    fn and_gate_probability() {
        let mut b = FaultTreeBuilder::new();
        let e1 = b.basic_event("a");
        let e2 = b.basic_event("b");
        let top = b.and(vec![e1, e2]);
        let t = b.build(top);
        assert_close(t.top_probability(&[0.1, 0.2]), 0.02, 1e-12);
    }

    #[test]
    fn k_of_n_gate() {
        let mut b = FaultTreeBuilder::new();
        let es: Vec<GateId> = (0..4).map(|i| b.basic_event(format!("e{i}"))).collect();
        let top = b.k_of_n(2, es);
        let t = b.build(top);
        // 2+ of 4 events with p=0.5 each: 1 - C(4,0)q⁴ - C(4,1)pq³ = 11/16.
        assert_close(t.top_probability(&[0.5; 4]), 11.0 / 16.0, 1e-12);
    }

    #[test]
    fn shared_event_not_double_counted() {
        // top = (A AND B) OR (A AND C): with independence-naive arithmetic,
        // P = 1 - (1-p_AB)(1-p_AC) would be wrong. Exact:
        // P = P(A and (B or C)) = pa (pb + pc - pb pc).
        let mut b = FaultTreeBuilder::new();
        let a1 = b.basic_event("A");
        let bb = b.basic_event("B");
        let cc = b.basic_event("C");
        let a2 = b.shared_event(EventId(0));
        let g1 = b.and(vec![a1, bb]);
        let g2 = b.and(vec![a2, cc]);
        let top = b.or(vec![g1, g2]);
        let t = b.build(top);
        let (pa, pb, pc) = (0.3, 0.4, 0.5);
        let exact = pa * (pb + pc - pb * pc);
        assert_close(t.top_probability(&[pa, pb, pc]), exact, 1e-12);
        // And it differs from the naive computation.
        let naive = 1.0 - (1.0 - pa * pb) * (1.0 - pa * pc);
        assert!((exact - naive).abs() > 1e-3);
    }

    #[test]
    fn nested_gates() {
        // top = OR(AND(a,b), c)
        let mut b = FaultTreeBuilder::new();
        let a = b.basic_event("a");
        let bb = b.basic_event("b");
        let c = b.basic_event("c");
        let g = b.and(vec![a, bb]);
        let top = b.or(vec![g, c]);
        let t = b.build(top);
        let p = |pa: f64, pb: f64, pc: f64| pa * pb + pc - pa * pb * pc;
        assert_close(t.top_probability(&[0.2, 0.3, 0.4]), p(0.2, 0.3, 0.4), 1e-12);
    }

    #[test]
    fn degenerate_probabilities() {
        let mut b = FaultTreeBuilder::new();
        let a = b.basic_event("a");
        let bb = b.basic_event("b");
        let top = b.or(vec![a, bb]);
        let t = b.build(top);
        assert_eq!(t.top_probability(&[0.0, 0.0]), 0.0);
        assert_eq!(t.top_probability(&[1.0, 0.0]), 1.0);
        assert_eq!(t.top_probability(&[1.0, 1.0]), 1.0);
    }

    #[test]
    fn hierarchical_tree_is_reliability_model() {
        // Fig. 5: system fails if CU fails OR WN fails, each exponential.
        let mut b = FaultTreeBuilder::new();
        let cu = b.basic_event("cu");
        let wn = b.basic_event("wn");
        let top = b.or(vec![cu, wn]);
        let tree = b.build(top);
        let model = HierarchicalTree::new(
            tree,
            vec![
                Arc::new(Exponential::new(1e-4)),
                Arc::new(Exponential::new(3e-4)),
            ],
        );
        let t = 1000.0;
        // Independent series: R = R_cu · R_wn = e^{-(λ1+λ2)t}.
        assert_close(model.reliability(t), (-(4e-4) * t).exp(), 1e-12);
        assert_close(model.reliability(0.0), 1.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "wrong probability count")]
    fn probability_vector_length_checked() {
        let mut b = FaultTreeBuilder::new();
        let a = b.basic_event("a");
        let t = b.build(a);
        t.top_probability(&[0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn k_of_n_validates() {
        let mut b = FaultTreeBuilder::new();
        let a = b.basic_event("a");
        b.k_of_n(2, vec![a]);
    }

    #[test]
    fn birnbaum_importance_closed_forms() {
        // top = a OR b: I_B(a) = 1 - p_b, I_B(b) = 1 - p_a.
        let mut b = FaultTreeBuilder::new();
        let a = b.basic_event("a");
        let bb = b.basic_event("b");
        let top = b.or(vec![a, bb]);
        let t = b.build(top);
        let imp = t.birnbaum_importance(&[0.3, 0.1]);
        assert_close(imp[0], 0.9, 1e-12);
        assert_close(imp[1], 0.7, 1e-12);

        // top = a AND b: I_B(a) = p_b.
        let mut b = FaultTreeBuilder::new();
        let a = b.basic_event("a");
        let bb = b.basic_event("b");
        let top = b.and(vec![a, bb]);
        let t = b.build(top);
        let imp = t.birnbaum_importance(&[0.3, 0.1]);
        assert_close(imp[0], 0.1, 1e-12);
        assert_close(imp[1], 0.3, 1e-12);
    }

    #[test]
    fn large_k_of_n_is_tractable() {
        // 8-of-16 shared structure stays small thanks to hash-consing.
        let mut b = FaultTreeBuilder::new();
        let events: Vec<GateId> = (0..16).map(|i| b.basic_event(format!("e{i}"))).collect();
        let top = b.k_of_n(8, events);
        let t = b.build(top);
        let p = t.top_probability(&[0.5; 16]);
        // Symmetric: P(X ≥ 8), X ~ Bin(16, 0.5) = (1 + C(16,8)/2^16)/2.
        let c168 = 12870.0;
        let expect = 0.5 + c168 / 2f64.powi(17);
        assert_close(p, expect, 1e-12);
    }
}
