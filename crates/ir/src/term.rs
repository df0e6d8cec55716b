//! Terms (right-hand-side expressions) and the hash-consing term arena.
//!
//! Terms are interned: structurally equal terms receive the same [`TermId`]
//! within a program. This makes assignment-pattern equality (`x := t`,
//! Section 2 of the paper) an O(1) comparison and gives dense indices for
//! the bit-vector analyses.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::var::Var;

/// Binary operators usable in terms.
///
/// Comparison and logical operators evaluate to `0` or `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division; division by zero yields `0` (total semantics, see
    /// `interp`).
    Div,
    /// Remainder; remainder by zero yields `0`.
    Mod,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Logical conjunction (operands are truthy iff nonzero).
    And,
    /// Logical disjunction.
    Or,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding strength used by the pretty-printer; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators usable in terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnOp {
    /// Wrapping negation.
    Neg,
    /// Logical negation (`!0 == 1`, `!nonzero == 0`).
    Not,
}

impl UnOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Handle to an interned term inside a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Dense index of the term within its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Structure of a term. Children are [`TermId`]s into the same arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermData {
    /// Integer literal.
    Const(i64),
    /// Variable reference.
    Var(Var),
    /// Unary application.
    Unary(UnOp, TermId),
    /// Binary application.
    Binary(BinOp, TermId, TermId),
}

/// Hash-consing arena of terms.
///
/// Structurally equal terms are interned to the same [`TermId`]. For every
/// term the arena caches its sorted set of occurring variables, which the
/// local-predicate computations (`USED`, `MOD` of an operand, Table 1/2 of
/// the paper) query constantly.
///
/// The variable sets live in one flat array (`vars[starts[i]..starts[i +
/// 1]]` for term `i`), so cloning an arena — which translation
/// validation does once per round — copies two buffers rather than
/// allocating once per term.
#[derive(Debug, Clone)]
pub struct TermArena {
    data: Vec<TermData>,
    starts: Vec<u32>,
    vars: Vec<Var>,
    dedup: HashMap<TermData, TermId>,
}

impl Default for TermArena {
    fn default() -> TermArena {
        TermArena {
            data: Vec::new(),
            starts: vec![0],
            vars: Vec::new(),
            dedup: HashMap::new(),
        }
    }
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    fn var_range(&self, id: TermId) -> (usize, usize) {
        let i = id.index();
        (self.starts[i] as usize, self.starts[i + 1] as usize)
    }

    /// Interns `data`, returning the existing id for structurally equal terms.
    ///
    /// # Panics
    ///
    /// Panics if a child [`TermId`] does not belong to this arena.
    pub fn intern(&mut self, data: TermData) -> TermId {
        // One hash per call: a miss fills the vacant slot once the
        // term's variable run is in place.
        let TermArena {
            data: terms,
            starts,
            vars,
            dedup,
        } = self;
        let slot = match dedup.entry(data) {
            Entry::Occupied(hit) => return *hit.get(),
            Entry::Vacant(slot) => slot,
        };
        let range = |t: TermId| (starts[t.index()] as usize, starts[t.index() + 1] as usize);
        match data {
            TermData::Const(_) => {}
            TermData::Var(v) => vars.push(v),
            TermData::Unary(_, a) => {
                let (lo, hi) = range(a);
                vars.extend_from_within(lo..hi);
            }
            TermData::Binary(_, a, b) => {
                // Merge the children's sorted runs straight onto the
                // end of the flat array; they sit before it, so the
                // pushes never overwrite what is still to be read.
                let (mut i, ahi) = range(a);
                let (mut j, bhi) = range(b);
                while i < ahi && j < bhi {
                    let (x, y) = (vars[i], vars[j]);
                    vars.push(x.min(y));
                    i += usize::from(x <= y);
                    j += usize::from(y <= x);
                }
                vars.extend_from_within(i..ahi);
                vars.extend_from_within(j..bhi);
            }
        }
        let id = TermId(u32::try_from(terms.len()).expect("too many terms"));
        terms.push(data);
        starts.push(u32::try_from(vars.len()).expect("too many term variables"));
        *slot.insert(id)
    }

    /// Convenience: intern an integer constant.
    pub fn constant(&mut self, value: i64) -> TermId {
        self.intern(TermData::Const(value))
    }

    /// Convenience: intern a variable reference.
    pub fn var(&mut self, v: Var) -> TermId {
        self.intern(TermData::Var(v))
    }

    /// Convenience: intern a binary application.
    pub fn binary(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        self.intern(TermData::Binary(op, a, b))
    }

    /// Convenience: intern a unary application.
    pub fn unary(&mut self, op: UnOp, a: TermId) -> TermId {
        self.intern(TermData::Unary(op, a))
    }

    /// Returns the structure of `id`.
    pub fn data(&self, id: TermId) -> TermData {
        self.data[id.index()]
    }

    /// Sorted, deduplicated set of variables occurring in `id`.
    pub fn vars_of(&self, id: TermId) -> &[Var] {
        let (lo, hi) = self.var_range(id);
        &self.vars[lo..hi]
    }

    /// Whether variable `v` occurs in term `id`.
    pub fn term_uses(&self, id: TermId, v: Var) -> bool {
        self.vars_of(id).binary_search(&v).is_ok()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size (number of operators and atoms) of term `id`.
    pub fn size(&self, id: TermId) -> usize {
        match self.data(id) {
            TermData::Const(_) | TermData::Var(_) => 1,
            TermData::Unary(_, a) => 1 + self.size(a),
            TermData::Binary(_, a, b) => 1 + self.size(a) + self.size(b),
        }
    }

    /// Copies term `id` from arena `other` into `self`, returning the new id.
    pub fn import(&mut self, other: &TermArena, id: TermId) -> TermId {
        match other.data(id) {
            d @ (TermData::Const(_) | TermData::Var(_)) => self.intern(d),
            TermData::Unary(op, a) => {
                let a = self.import(other, a);
                self.intern(TermData::Unary(op, a))
            }
            TermData::Binary(op, a, b) => {
                let a = self.import(other, a);
                let b = self.import(other, b);
                self.intern(TermData::Binary(op, a, b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarPool;

    fn setup() -> (VarPool, TermArena) {
        (VarPool::new(), TermArena::new())
    }

    #[test]
    fn interning_dedups_structurally() {
        let (mut vars, mut arena) = setup();
        let a = vars.intern("a");
        let b = vars.intern("b");
        let ta = arena.var(a);
        let tb = arena.var(b);
        let s1 = arena.binary(BinOp::Add, ta, tb);
        let s2 = arena.binary(BinOp::Add, ta, tb);
        assert_eq!(s1, s2);
        let s3 = arena.binary(BinOp::Add, tb, ta);
        assert_ne!(s1, s3, "a+b and b+a are distinct terms");
    }

    #[test]
    fn vars_of_is_sorted_union() {
        let (mut vars, mut arena) = setup();
        let a = vars.intern("a");
        let b = vars.intern("b");
        let c = vars.intern("c");
        let ta = arena.var(a);
        let tb = arena.var(b);
        let tc = arena.var(c);
        let t1 = arena.binary(BinOp::Mul, tc, tb);
        let t2 = arena.binary(BinOp::Add, t1, ta);
        assert_eq!(arena.vars_of(t2), &[a, b, c]);
        assert!(arena.term_uses(t2, a));
        let konst = arena.constant(7);
        assert!(!arena.term_uses(konst, a));
    }

    #[test]
    fn vars_of_dedups() {
        let (mut vars, mut arena) = setup();
        let x = vars.intern("x");
        let tx = arena.var(x);
        let t = arena.binary(BinOp::Add, tx, tx);
        assert_eq!(arena.vars_of(t), &[x]);
    }

    #[test]
    fn size_counts_nodes() {
        let (mut vars, mut arena) = setup();
        let x = vars.intern("x");
        let tx = arena.var(x);
        let one = arena.constant(1);
        let t = arena.binary(BinOp::Add, tx, one);
        let t2 = arena.unary(UnOp::Neg, t);
        assert_eq!(arena.size(t2), 4);
    }

    #[test]
    fn import_copies_across_arenas() {
        let (mut vars, mut arena) = setup();
        let x = vars.intern("x");
        let tx = arena.var(x);
        let one = arena.constant(1);
        let t = arena.binary(BinOp::Add, tx, one);

        let mut other = TermArena::new();
        let imported = other.import(&arena, t);
        assert_eq!(other.data(imported), {
            let txo = other.var(x);
            let oneo = other.constant(1);
            TermData::Binary(BinOp::Add, txo, oneo)
        });
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }
}
