//! The BDD manager: arena, unique table, and operations.

use crate::fxhash::FxHashMap;
use crate::word::AsBits;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Upper bound on the capacity pre-reserved for the unique table and op
/// caches.
///
/// Pattern monitors insert thousands of nodes during construction; starting
/// the tables at a realistic size avoids the rehash cascade that dominated
/// profile traces of the seed implementation. The actual reservation scales
/// with the variable count (see [`initial_capacity`]) so that per-class /
/// multi-layer deployments holding many small managers don't pay ~100 KB of
/// idle table each.
const MAX_INITIAL_TABLE_CAPACITY: usize = 1 << 12;

/// Initial table capacity for a manager over `num_vars` variables: roughly
/// one insertion wave of cube nodes, clamped to a sane range.
fn initial_capacity(num_vars: usize) -> usize {
    (num_vars * 16)
        .next_power_of_two()
        .clamp(16, MAX_INITIAL_TABLE_CAPACITY)
}

/// Index of a BDD node within its [`Bdd`] manager.
///
/// `NodeId`s are only meaningful together with the manager that created
/// them. The two terminals are [`Bdd::FALSE`] and [`Bdd::TRUE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct Node {
    /// Decision variable (level); terminals use `u32::MAX`.
    var: u32,
    /// Child when the variable is 0.
    lo: NodeId,
    /// Child when the variable is 1.
    hi: NodeId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
}

/// Hit/miss counters of the manager's internal tables, exposed so the
/// benchmark suite can attribute construction speedups to cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `mk` calls answered from the unique table.
    pub unique_hits: u64,
    /// `mk` calls that allocated a fresh node.
    pub unique_misses: u64,
    /// Binary operations answered from the op cache.
    pub op_hits: u64,
    /// Binary operations that recursed.
    pub op_misses: u64,
}

impl CacheStats {
    /// Fraction of `mk` calls answered from the unique table.
    pub fn unique_hit_rate(&self) -> f64 {
        let total = self.unique_hits + self.unique_misses;
        if total == 0 {
            0.0
        } else {
            self.unique_hits as f64 / total as f64
        }
    }

    /// Fraction of binary operations answered from the op cache.
    pub fn op_hit_rate(&self) -> f64 {
        let total = self.op_hits + self.op_misses;
        if total == 0 {
            0.0
        } else {
            self.op_hits as f64 / total as f64
        }
    }
}

/// A reduced ordered BDD manager over a fixed variable count.
///
/// Nodes are hash-consed (the *unique table*), so structural equality is
/// pointer equality: two [`NodeId`]s are equal iff they denote the same
/// Boolean function. Operations are memoized per `(op, lhs, rhs)`.
///
/// The manager only grows; monitors only ever add patterns, so no garbage
/// collection is needed (and none is provided).
#[derive(Debug, Clone)]
pub struct Bdd {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: FxHashMap<Node, NodeId>,
    op_cache: FxHashMap<(Op, NodeId, NodeId), NodeId>,
    not_cache: FxHashMap<NodeId, NodeId>,
    stats: CacheStats,
}

impl Bdd {
    /// The constant-false terminal.
    pub const FALSE: NodeId = NodeId(0);
    /// The constant-true terminal.
    pub const TRUE: NodeId = NodeId(1);

    /// Creates a manager over `num_vars` variables (indices `0..num_vars`,
    /// ordered by index: variable 0 is the root-most level).
    pub fn new(num_vars: usize) -> Self {
        let terminals = vec![
            Node {
                var: u32::MAX,
                lo: Self::FALSE,
                hi: Self::FALSE,
            },
            Node {
                var: u32::MAX,
                lo: Self::TRUE,
                hi: Self::TRUE,
            },
        ];
        Self {
            num_vars,
            nodes: terminals,
            unique: FxHashMap::with_capacity_and_hasher(
                initial_capacity(num_vars),
                Default::default(),
            ),
            op_cache: FxHashMap::with_capacity_and_hasher(
                initial_capacity(num_vars),
                Default::default(),
            ),
            not_cache: FxHashMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Hit/miss counters of the unique table and op cache since creation
    /// (or the last [`Bdd::reset_cache_stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the cache counters (the caches themselves are kept).
    pub fn reset_cache_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total nodes allocated by this manager (including both terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the node is one of the two terminals.
    pub fn is_terminal(&self, n: NodeId) -> bool {
        n == Self::FALSE || n == Self::TRUE
    }

    /// The hash-consed node `(var, lo, hi)` with the reduction rule
    /// `lo == hi ⇒ lo`.
    fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            self.stats.unique_hits += 1;
            return id;
        }
        self.stats.unique_misses += 1;
        let id = NodeId(u32::try_from(self.nodes.len()).expect("BDD node arena overflow"));
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    /// The function of the single variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_vars()`.
    pub fn var(&mut self, i: usize) -> NodeId {
        assert!(
            i < self.num_vars,
            "variable {i} out of range ({} vars)",
            self.num_vars
        );
        self.mk(i as u32, Self::FALSE, Self::TRUE)
    }

    /// The negation of the single variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_vars()`.
    pub fn nvar(&mut self, i: usize) -> NodeId {
        assert!(
            i < self.num_vars,
            "variable {i} out of range ({} vars)",
            self.num_vars
        );
        self.mk(i as u32, Self::TRUE, Self::FALSE)
    }

    fn node(&self, n: NodeId) -> Node {
        self.nodes[n.index()]
    }

    /// Logical negation.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if a == Self::FALSE {
            return Self::TRUE;
        }
        if a == Self::TRUE {
            return Self::FALSE;
        }
        if let Some(&r) = self.not_cache.get(&a) {
            return r;
        }
        let n = self.node(a);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(a, r);
        r
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        // Terminal short-circuits.
        match op {
            Op::And => {
                if a == Self::FALSE || b == Self::FALSE {
                    return Self::FALSE;
                }
                if a == Self::TRUE {
                    return b;
                }
                if b == Self::TRUE {
                    return a;
                }
            }
            Op::Or => {
                if a == Self::TRUE || b == Self::TRUE {
                    return Self::TRUE;
                }
                if a == Self::FALSE {
                    return b;
                }
                if b == Self::FALSE {
                    return a;
                }
            }
        }
        if a == b {
            return a;
        }
        // Normalize operand order for cache hits (both ops commute).
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&r) = self.op_cache.get(&key) {
            self.stats.op_hits += 1;
            return r;
        }
        self.stats.op_misses += 1;
        let na = self.node(a);
        let nb = self.node(b);
        let var = na.var.min(nb.var);
        let (alo, ahi) = if na.var == var {
            (na.lo, na.hi)
        } else {
            (a, a)
        };
        let (blo, bhi) = if nb.var == var {
            (nb.lo, nb.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, alo, blo);
        let hi = self.apply(op, ahi, bhi);
        let r = self.mk(var, lo, hi);
        self.op_cache.insert(key, r);
        r
    }

    /// Conjunction.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::And, a, b)
    }

    /// Disjunction.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Or, a, b)
    }

    /// If-then-else `(c ∧ t) ∨ (¬c ∧ e)`.
    pub fn ite(&mut self, c: NodeId, t: NodeId, e: NodeId) -> NodeId {
        let nc = self.not(c);
        let a = self.and(c, t);
        let b = self.and(nc, e);
        self.or(a, b)
    }

    /// Builds the cube described by `literals` (`Some(true)` = positive,
    /// `Some(false)` = negative, `None` = don't care).
    ///
    /// Linear in the number of variables: this is the `word2set` primitive
    /// of the paper's robust monitors.
    ///
    /// # Panics
    ///
    /// Panics if `literals.len() != self.num_vars()`.
    pub fn cube(&mut self, literals: &[Option<bool>]) -> NodeId {
        assert_eq!(literals.len(), self.num_vars, "cube arity");
        let mut node = Self::TRUE;
        for (i, lit) in literals.iter().enumerate().rev() {
            node = match lit {
                None => node,
                Some(true) => self.mk(i as u32, Self::FALSE, node),
                Some(false) => self.mk(i as u32, node, Self::FALSE),
            };
        }
        node
    }

    /// `root ∨ cube(literals)` — inserts a (partial) word into a set.
    ///
    /// # Panics
    ///
    /// Panics if `literals.len() != self.num_vars()`.
    pub fn insert_cube(&mut self, root: NodeId, literals: &[Option<bool>]) -> NodeId {
        let c = self.cube(literals);
        self.or(root, c)
    }

    /// Inserts a fully-specified word (packed or `bool`-slice form; no
    /// intermediate literal vector is allocated).
    ///
    /// # Panics
    ///
    /// Panics if `word.bit_len() != self.num_vars()`.
    pub fn insert_word<W: AsBits + ?Sized>(&mut self, root: NodeId, word: &W) -> NodeId {
        assert_eq!(word.bit_len(), self.num_vars, "insert_word arity");
        let mut node = Self::TRUE;
        for i in (0..self.num_vars).rev() {
            node = if word.bit(i) {
                self.mk(i as u32, Self::FALSE, node)
            } else {
                self.mk(i as u32, node, Self::FALSE)
            };
        }
        self.or(root, node)
    }

    /// Evaluates the function under a full assignment ([`BitWord`],
    /// `&[bool]`, or array). The walk visits at most one node per variable
    /// and performs no allocation.
    ///
    /// [`BitWord`]: crate::BitWord
    ///
    /// # Panics
    ///
    /// Panics if `assignment.bit_len() != self.num_vars()`.
    #[inline(always)]
    pub fn eval<W: AsBits + ?Sized>(&self, root: NodeId, assignment: &W) -> bool {
        assert_eq!(assignment.bit_len(), self.num_vars, "eval arity");
        let mut n = root;
        while !self.is_terminal(n) {
            let node = self.node(n);
            n = if assignment.bit(node.var as usize) {
                node.hi
            } else {
                node.lo
            };
        }
        n == Self::TRUE
    }

    /// Number of satisfying assignments over all `num_vars` variables.
    ///
    /// Returned as `f64` (pattern spaces reach `2^hundreds`; exact integers
    /// overflow, while the monitors only need coverage *ratios*).
    pub fn satcount(&self, root: NodeId) -> f64 {
        let mut memo: FxHashMap<NodeId, f64> = FxHashMap::default();
        let total_level = self.num_vars as u32;
        // count(n) = satisfying assignments over variables var(n)..num_vars.
        fn go(bdd: &Bdd, n: NodeId, memo: &mut FxHashMap<NodeId, f64>, total: u32) -> f64 {
            if n == Bdd::FALSE {
                return 0.0;
            }
            if n == Bdd::TRUE {
                return 1.0;
            }
            if let Some(&c) = memo.get(&n) {
                return c;
            }
            let node = bdd.node(n);
            let lo = go(bdd, node.lo, memo, total);
            let hi = go(bdd, node.hi, memo, total);
            let lo_var = if bdd.is_terminal(node.lo) {
                total
            } else {
                bdd.node(node.lo).var
            };
            let hi_var = if bdd.is_terminal(node.hi) {
                total
            } else {
                bdd.node(node.hi).var
            };
            let c = lo * 2f64.powi((lo_var - node.var - 1) as i32)
                + hi * 2f64.powi((hi_var - node.var - 1) as i32);
            memo.insert(n, c);
            c
        }
        let root_var = if self.is_terminal(root) {
            total_level
        } else {
            self.node(root).var
        };
        go(self, root, &mut memo, total_level) * 2f64.powi(root_var as i32)
    }

    /// Fraction of the full `2^num_vars` space that satisfies the function.
    pub fn coverage(&self, root: NodeId) -> f64 {
        self.satcount(root) / 2f64.powi(self.num_vars as i32)
    }

    /// Number of distinct nodes reachable from `root` (terminals included).
    pub fn reachable_nodes(&self, root: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) || self.is_terminal(n) {
                continue;
            }
            let node = self.node(n);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        seen.len()
    }

    /// Internal view used by the DOT exporter.
    pub(crate) fn node_parts(&self, n: NodeId) -> (u32, NodeId, NodeId) {
        let node = self.node(n);
        (node.var, node.lo, node.hi)
    }

    /// Whether the set contains a word within Hamming distance `tau` of
    /// `word`.
    ///
    /// Variables skipped by the BDD admit both values, so they never cost
    /// distance. The search explores at most `O(nodes · tau)` states.
    ///
    /// # Panics
    ///
    /// Panics if `word.bit_len() != self.num_vars()`.
    pub fn contains_within_hamming<W: AsBits + ?Sized>(
        &self,
        root: NodeId,
        word: &W,
        tau: usize,
    ) -> bool {
        assert_eq!(
            word.bit_len(),
            self.num_vars,
            "contains_within_hamming arity"
        );
        fn go<W: AsBits + ?Sized>(bdd: &Bdd, n: NodeId, word: &W, budget: usize) -> bool {
            if n == Bdd::FALSE {
                return false;
            }
            if n == Bdd::TRUE {
                return true;
            }
            let node = bdd.node(n);
            let bit = word.bit(node.var as usize);
            let follow = if bit { node.hi } else { node.lo };
            if go(bdd, follow, word, budget) {
                return true;
            }
            if budget > 0 {
                let flipped = if bit { node.lo } else { node.hi };
                return go(bdd, flipped, word, budget - 1);
            }
            false
        }
        go(self, root, word, tau)
    }

    /// Builds the conjunction over consecutive variable *blocks* of
    /// per-block allowed symbol sets — the `word2set` of the paper's
    /// multi-bit interval monitors.
    ///
    /// Block `i` spans variables `i*bits .. (i+1)*bits` (variable
    /// `i*bits` is the most significant bit of the symbol). `blocks[i]`
    /// lists the allowed symbols of block `i`; the result accepts a word
    /// iff every block reads an allowed symbol. Because blocks occupy
    /// disjoint consecutive levels, the construction is one bottom-up pass
    /// and the result has at most `O(Σ_i bits · 2^bits)` nodes — no
    /// enumeration of the cross product.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() * bits != num_vars`, any symbol is
    /// `>= 2^bits`, or any block's allowed set is empty.
    pub fn product_of_blocks(&mut self, blocks: &[Vec<u16>], bits: usize) -> NodeId {
        assert!(bits > 0 && bits <= 16, "bits per block must be in 1..=16");
        assert_eq!(
            blocks.len() * bits,
            self.num_vars,
            "blocks do not tile the variables"
        );
        let mut tail = Self::TRUE;
        for (i, allowed) in blocks.iter().enumerate().rev() {
            assert!(!allowed.is_empty(), "block {i} allows no symbols");
            let mut sorted: Vec<u16> = allowed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert!(
                *sorted.last().unwrap() < (1u32 << bits) as u16,
                "block {i}: symbol out of range"
            );
            tail = self.block_node(i * bits, bits, &sorted, tail);
        }
        tail
    }

    /// Recursive helper: the sub-BDD over `bits` variables starting at
    /// `var_base` that routes allowed symbols to `tail` and others to
    /// FALSE. `allowed` is sorted.
    fn block_node(
        &mut self,
        var_base: usize,
        bits: usize,
        allowed: &[u16],
        tail: NodeId,
    ) -> NodeId {
        if allowed.is_empty() {
            return Self::FALSE;
        }
        if bits == 0 {
            return tail;
        }
        // Split on the most significant remaining bit.
        let msb = 1u16 << (bits - 1);
        let split = allowed.partition_point(|&s| s & msb == 0);
        let (lo_syms, hi_syms) = allowed.split_at(split);
        let hi_stripped: Vec<u16> = hi_syms.iter().map(|&s| s & !msb).collect();
        let lo = self.block_node(var_base + 1, bits - 1, lo_syms, tail);
        let hi = self.block_node(var_base + 1, bits - 1, &hi_stripped, tail);
        self.mk(var_base as u32, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_tensor::Prng;
    use std::collections::HashSet;

    #[test]
    fn terminals_behave() {
        let bdd = Bdd::new(2);
        assert!(bdd.eval(Bdd::TRUE, &[false, true]));
        assert!(!bdd.eval(Bdd::FALSE, &[false, true]));
        assert_eq!(bdd.satcount(Bdd::TRUE), 4.0);
        assert_eq!(bdd.satcount(Bdd::FALSE), 0.0);
    }

    #[test]
    fn single_variable_semantics() {
        let mut bdd = Bdd::new(3);
        let x1 = bdd.var(1);
        assert!(bdd.eval(x1, &[false, true, false]));
        assert!(!bdd.eval(x1, &[true, false, true]));
        assert_eq!(bdd.satcount(x1), 4.0);
        let nx1 = bdd.nvar(1);
        let neg = bdd.not(x1);
        assert_eq!(nx1, neg, "hash-consing makes equal functions identical");
    }

    #[test]
    fn de_morgan_holds_structurally() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(2);
        let and = bdd.and(a, b);
        let nand = bdd.not(and);
        let na = bdd.not(a);
        let nb = bdd.not(b);
        let or = bdd.or(na, nb);
        assert_eq!(nand, or);
    }

    #[test]
    fn ite_matches_truth_table() {
        let mut bdd = Bdd::new(3);
        let c = bdd.var(0);
        let t = bdd.var(1);
        let e = bdd.var(2);
        let f = bdd.ite(c, t, e);
        for bits in 0..8u32 {
            let a = [(bits & 4) != 0, (bits & 2) != 0, (bits & 1) != 0];
            let expected = if a[0] { a[1] } else { a[2] };
            assert_eq!(bdd.eval(f, &a), expected, "assignment {a:?}");
        }
    }

    #[test]
    fn cube_with_dont_cares_counts_expanded_words() {
        let mut bdd = Bdd::new(5);
        // 1 - - 0 -  => 2^3 = 8 words.
        let c = bdd.cube(&[Some(true), None, None, Some(false), None]);
        assert_eq!(bdd.satcount(c), 8.0);
        assert!(bdd.eval(c, &[true, true, false, false, true]));
        assert!(!bdd.eval(c, &[false, true, false, false, true]));
    }

    #[test]
    fn insert_word_then_membership() {
        let mut bdd = Bdd::new(4);
        let mut set = Bdd::FALSE;
        set = bdd.insert_word(set, &[true, false, true, false]);
        set = bdd.insert_word(set, &[false, false, false, false]);
        assert!(bdd.eval(set, &[true, false, true, false]));
        assert!(bdd.eval(set, &[false, false, false, false]));
        assert!(!bdd.eval(set, &[true, true, true, false]));
        assert_eq!(bdd.satcount(set), 2.0);
    }

    #[test]
    fn reinserting_is_idempotent() {
        let mut bdd = Bdd::new(3);
        let w = [true, true, false];
        let s1 = bdd.insert_word(Bdd::FALSE, &w);
        let s2 = bdd.insert_word(s1, &w);
        assert_eq!(s1, s2);
    }

    #[test]
    fn coverage_is_satcount_normalized() {
        let mut bdd = Bdd::new(10);
        let cube: Vec<Option<bool>> = (0..10)
            .map(|i| if i < 3 { Some(true) } else { None })
            .collect();
        let s = bdd.cube(&cube);
        assert!((bdd.coverage(s) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn reachable_nodes_of_cube_is_linear() {
        let mut bdd = Bdd::new(64);
        let cube: Vec<Option<bool>> = (0..64).map(|i| Some(i % 2 == 0)).collect();
        let c = bdd.cube(&cube);
        // 64 decision nodes + 2 terminals.
        assert_eq!(bdd.reachable_nodes(c), 66);
    }

    #[test]
    fn product_of_blocks_matches_explicit_enumeration() {
        let mut bdd = Bdd::new(6); // 3 blocks x 2 bits
        let blocks = vec![vec![0b00u16, 0b01], vec![0b01, 0b10, 0b11], vec![0b10]];
        let f = bdd.product_of_blocks(&blocks, 2);
        assert_eq!(bdd.satcount(f), (2 * 3) as f64);
        // Word: block symbols (00, 11, 10) -> allowed.
        assert!(bdd.eval(f, &[false, false, true, true, true, false]));
        // Word: (01, 00, 10) -> block 1 forbids 00.
        assert!(!bdd.eval(f, &[false, true, false, false, true, false]));
    }

    #[test]
    #[should_panic(expected = "allows no symbols")]
    fn empty_block_panics() {
        let mut bdd = Bdd::new(2);
        bdd.product_of_blocks(&[vec![]], 2);
    }

    #[test]
    fn randomized_equivalence_with_hashset_reference() {
        let mut rng = Prng::seed(71);
        for _ in 0..20 {
            let vars = 6;
            let mut bdd = Bdd::new(vars);
            let mut root = Bdd::FALSE;
            let mut reference: HashSet<Vec<bool>> = HashSet::new();
            for _ in 0..rng.index(30) {
                // Random cube with ~30% don't-cares.
                let literals: Vec<Option<bool>> = (0..vars)
                    .map(|_| {
                        if rng.chance(0.3) {
                            None
                        } else {
                            Some(rng.chance(0.5))
                        }
                    })
                    .collect();
                root = bdd.insert_cube(root, &literals);
                // Expand into the reference set.
                let free: Vec<usize> = literals
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.is_none())
                    .map(|(i, _)| i)
                    .collect();
                for mask in 0..(1u32 << free.len()) {
                    let mut w: Vec<bool> = literals.iter().map(|l| l.unwrap_or(false)).collect();
                    for (bit, &pos) in free.iter().enumerate() {
                        w[pos] = (mask >> bit) & 1 == 1;
                    }
                    reference.insert(w);
                }
            }
            // Compare on the full truth table.
            for bits in 0..(1u32 << vars) {
                let a: Vec<bool> = (0..vars)
                    .map(|i| (bits >> (vars - 1 - i)) & 1 == 1)
                    .collect();
                assert_eq!(
                    bdd.eval(root, &a),
                    reference.contains(&a),
                    "assignment {a:?}"
                );
            }
            assert_eq!(bdd.satcount(root), reference.len() as f64);
        }
    }

    #[test]
    fn randomized_block_products_match_reference() {
        let mut rng = Prng::seed(72);
        for _ in 0..15 {
            let bits = 2;
            let neurons = 3;
            let mut bdd = Bdd::new(bits * neurons);
            let blocks: Vec<Vec<u16>> = (0..neurons)
                .map(|_| {
                    let mut symbols: Vec<u16> = (0..4u16).filter(|_| rng.chance(0.6)).collect();
                    if symbols.is_empty() {
                        symbols.push(rng.index(4) as u16);
                    }
                    symbols
                })
                .collect();
            let f = bdd.product_of_blocks(&blocks, bits);
            for word in 0..(1u32 << (bits * neurons)) {
                let a: Vec<bool> = (0..bits * neurons)
                    .map(|i| (word >> (bits * neurons - 1 - i)) & 1 == 1)
                    .collect();
                let expected = (0..neurons).all(|n| {
                    let sym = ((a[2 * n] as u16) << 1) | a[2 * n + 1] as u16;
                    blocks[n].contains(&sym)
                });
                assert_eq!(bdd.eval(f, &a), expected, "word {a:?} blocks {blocks:?}");
            }
        }
    }
}

#[cfg(test)]
mod hamming_tests {
    use super::*;

    #[test]
    fn hamming_zero_is_plain_membership() {
        let mut bdd = Bdd::new(4);
        let s = bdd.insert_word(Bdd::FALSE, &[true, false, true, true]);
        assert!(bdd.contains_within_hamming(s, &[true, false, true, true], 0));
        assert!(!bdd.contains_within_hamming(s, &[true, true, true, true], 0));
    }

    #[test]
    fn hamming_radius_grows_acceptance() {
        let mut bdd = Bdd::new(4);
        let s = bdd.insert_word(Bdd::FALSE, &[true, true, true, true]);
        let q = [false, false, true, true]; // distance 2
        assert!(!bdd.contains_within_hamming(s, &q, 1));
        assert!(bdd.contains_within_hamming(s, &q, 2));
        assert!(bdd.contains_within_hamming(s, &q, 3));
    }

    #[test]
    fn skipped_levels_cost_nothing() {
        let mut bdd = Bdd::new(4);
        // Cube 1 - - 1: middle vars free.
        let s = bdd.insert_cube(Bdd::FALSE, &[Some(true), None, None, Some(true)]);
        // Query flips both middle bits relative to any expansion: still 0 away.
        assert!(bdd.contains_within_hamming(s, &[true, true, false, true], 0));
        // One real mismatch needs budget 1.
        assert!(!bdd.contains_within_hamming(s, &[false, true, false, true], 0));
        assert!(bdd.contains_within_hamming(s, &[false, true, false, true], 1));
    }
}

/// Serialized form: the arena is enough — the unique table and operation
/// caches are rebuildable derived state.
#[derive(Serialize, Deserialize)]
struct BddData {
    num_vars: usize,
    nodes: Vec<Node>,
}

impl Serialize for Bdd {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        BddData {
            num_vars: self.num_vars,
            nodes: self.nodes.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Bdd {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let data = BddData::deserialize(deserializer)?;
        if data.nodes.len() < 2 {
            return Err(serde::de::Error::custom(
                "BDD arena must contain the two terminals",
            ));
        }
        let mut unique = FxHashMap::with_capacity_and_hasher(data.nodes.len(), Default::default());
        for (i, node) in data.nodes.iter().enumerate().skip(2) {
            unique.insert(*node, NodeId(i as u32));
        }
        Ok(Bdd {
            num_vars: data.num_vars,
            nodes: data.nodes,
            unique,
            op_cache: FxHashMap::with_capacity_and_hasher(
                initial_capacity(data.num_vars),
                Default::default(),
            ),
            not_cache: FxHashMap::default(),
            stats: CacheStats::default(),
        })
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn round_trip_preserves_semantics_and_sharing() {
        let mut bdd = Bdd::new(4);
        let mut root = Bdd::FALSE;
        root = bdd.insert_cube(root, &[Some(true), None, Some(false), None]);
        root = bdd.insert_word(root, &[false, false, true, true]);
        let json = serde_json::to_string(&(&bdd, root)).unwrap();
        let (mut back, back_root): (Bdd, NodeId) = serde_json::from_str(&json).unwrap();
        for bits in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(bdd.eval(root, &a), back.eval(back_root, &a));
        }
        assert_eq!(back.satcount(back_root), bdd.satcount(root));
        // The rebuilt unique table keeps hash-consing working: inserting an
        // already-present word must not change the root.
        let again = back.insert_word(back_root, &[false, false, true, true]);
        assert_eq!(again, back_root);
    }

    #[test]
    fn truncated_arena_is_rejected() {
        let err = serde_json::from_str::<Bdd>("{\"num_vars\":2,\"nodes\":[]}");
        assert!(err.is_err());
    }
}
