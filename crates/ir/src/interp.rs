//! A small-step interpreter with observable output traces.
//!
//! The interpreter is the semantic ground truth of the reproduction: a
//! transformation is *semantics preserving* when, for every initial
//! environment and every resolution of nondeterministic branches, the
//! optimized program emits the same output trace as the original
//! (Definition 3.2 of the paper guarantees this for admissible sinkings;
//! eliminations may only reduce run-time effort, never observable output).
//!
//! Arithmetic is total: additions/subtractions/multiplications wrap,
//! division and remainder by zero yield `0`. This mirrors the paper's
//! remark (footnote 3) that eliminating dead code may reduce the potential
//! of run-time errors — with total arithmetic there are none, so trace
//! equality is exactly the right preservation property for tests.
//!
//! Nondeterministic branches are resolved by a [`DecisionOracle`]. The
//! oracle's decisions are recorded in the [`Trace`], so a run of the
//! original program can be *replayed* on the optimized program: PDE
//! preserves the branching structure, hence decision sequences transfer
//! between the two programs and corresponding paths can be compared.

use crate::program::{NodeId, Program, Terminator};
use crate::stmt::Stmt;
use crate::term::{BinOp, TermData, TermId, UnOp};
use crate::var::Var;

/// Resolves nondeterministic branches.
pub trait DecisionOracle {
    /// Chooses a successor index in `0..n_choices` at `node`.
    fn choose(&mut self, node: NodeId, n_choices: usize) -> usize;
}

/// Oracle that always takes the first successor.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstChoice;

impl DecisionOracle for FirstChoice {
    fn choose(&mut self, _node: NodeId, _n: usize) -> usize {
        0
    }
}

/// Deterministic pseudo-random oracle (xorshift64*), seed-reproducible
/// without external dependencies.
#[derive(Debug, Clone)]
pub struct SeededOracle {
    state: u64,
}

impl SeededOracle {
    /// Creates an oracle from a nonzero-normalized seed.
    pub fn new(seed: u64) -> SeededOracle {
        SeededOracle {
            state: seed | 1, // xorshift must not start at 0
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl DecisionOracle for SeededOracle {
    fn choose(&mut self, _node: NodeId, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Oracle replaying a previously recorded decision sequence.
///
/// Decisions beyond the recorded sequence default to `0`, so replays of
/// equal-length runs are exact and longer runs stay deterministic.
#[derive(Debug, Clone)]
pub struct ReplayOracle {
    decisions: Vec<usize>,
    pos: usize,
}

impl ReplayOracle {
    /// Creates a replay oracle from recorded decisions.
    pub fn new(decisions: Vec<usize>) -> ReplayOracle {
        ReplayOracle { decisions, pos: 0 }
    }
}

impl DecisionOracle for ReplayOracle {
    fn choose(&mut self, _node: NodeId, n: usize) -> usize {
        let d = self.decisions.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        d.min(n.saturating_sub(1))
    }
}

/// Variable environment (dense, defaulting to `0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    values: Vec<i64>,
}

impl Env {
    /// Zero-initialized environment for `prog`'s variables.
    pub fn zeroed(prog: &Program) -> Env {
        Env {
            values: vec![0; prog.num_vars()],
        }
    }

    /// Environment with named initial values; unnamed variables are `0`.
    ///
    /// Names not present in the program are ignored (useful when the same
    /// inputs are fed to original and optimized variants whose variable
    /// pools may differ after dead-code removal).
    pub fn with_values(prog: &Program, values: &[(&str, i64)]) -> Env {
        let mut env = Env::zeroed(prog);
        for (name, v) in values {
            if let Some(var) = prog.vars().lookup(name) {
                env.set(var, *v);
            }
        }
        env
    }

    /// Reads a variable.
    pub fn get(&self, v: Var) -> i64 {
        self.values[v.index()]
    }

    /// Writes a variable.
    pub fn set(&mut self, v: Var, value: i64) {
        self.values[v.index()] = value;
    }
}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Maximum number of basic-block visits before the run is cut off.
    ///
    /// The limit counts *blocks*, not statements: corresponding runs of an
    /// original and an optimized program visit the same block sequence, so
    /// cutting both at the same block count keeps their traces comparable.
    pub max_block_visits: u64,
}

impl Default for ExecLimits {
    fn default() -> ExecLimits {
        ExecLimits {
            max_block_visits: 100_000,
        }
    }
}

/// The observable outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Values emitted by `out(t)` statements, in order.
    pub outputs: Vec<i64>,
    /// Decisions taken at `nondet` terminators, in order.
    pub decisions: Vec<usize>,
    /// Number of statements executed (`skip` included).
    pub executed_stmts: u64,
    /// Number of assignment statements executed — the paper's measure of
    /// run-time effort (Definition 3.6 counts assignment occurrences on
    /// paths).
    pub executed_assignments: u64,
    /// Number of operator applications evaluated (unary + binary term
    /// nodes) — the measure partial redundancy elimination improves.
    pub executed_operations: u64,
    /// Whether the run reached the exit node (vs. hitting the limit).
    pub completed: bool,
}

/// Evaluates a term in `env`.
pub fn eval_term(prog: &Program, env: &Env, t: TermId) -> i64 {
    let mut ops = 0;
    eval_term_counting(prog, env, t, &mut ops)
}

/// Evaluates a term, counting operator applications into `ops`.
pub fn eval_term_counting(prog: &Program, env: &Env, t: TermId, ops: &mut u64) -> i64 {
    match prog.terms().data(t) {
        TermData::Const(v) => v,
        TermData::Var(v) => env.get(v),
        TermData::Unary(op, a) => {
            *ops += 1;
            let va = eval_term_counting(prog, env, a, ops);
            match op {
                UnOp::Neg => va.wrapping_neg(),
                UnOp::Not => i64::from(va == 0),
            }
        }
        TermData::Binary(op, a, b) => {
            *ops += 1;
            let va = eval_term_counting(prog, env, a, ops);
            let vb = eval_term_counting(prog, env, b, ops);
            match op {
                BinOp::Add => va.wrapping_add(vb),
                BinOp::Sub => va.wrapping_sub(vb),
                BinOp::Mul => va.wrapping_mul(vb),
                BinOp::Div => {
                    if vb == 0 {
                        0
                    } else {
                        va.wrapping_div(vb)
                    }
                }
                BinOp::Mod => {
                    if vb == 0 {
                        0
                    } else {
                        va.wrapping_rem(vb)
                    }
                }
                BinOp::Lt => i64::from(va < vb),
                BinOp::Le => i64::from(va <= vb),
                BinOp::Gt => i64::from(va > vb),
                BinOp::Ge => i64::from(va >= vb),
                BinOp::Eq => i64::from(va == vb),
                BinOp::Ne => i64::from(va != vb),
                BinOp::And => i64::from(va != 0 && vb != 0),
                BinOp::Or => i64::from(va != 0 || vb != 0),
            }
        }
    }
}

/// Runs `prog` from its entry with the given environment and oracle.
///
/// The environment is mutated in place; the returned [`Trace`] holds the
/// observable behaviour.
pub fn run(
    prog: &Program,
    env: &mut Env,
    oracle: &mut dyn DecisionOracle,
    limits: ExecLimits,
) -> Trace {
    let mut trace = Trace {
        outputs: Vec::new(),
        decisions: Vec::new(),
        executed_stmts: 0,
        executed_assignments: 0,
        executed_operations: 0,
        completed: false,
    };
    let mut node = prog.entry();
    let mut visits: u64 = 0;
    loop {
        if visits >= limits.max_block_visits {
            return trace;
        }
        visits += 1;
        let block = prog.block(node);
        for stmt in &block.stmts {
            trace.executed_stmts += 1;
            match *stmt {
                Stmt::Skip => {}
                Stmt::Assign { lhs, rhs } => {
                    trace.executed_assignments += 1;
                    let v = eval_term_counting(prog, env, rhs, &mut trace.executed_operations);
                    env.set(lhs, v);
                }
                Stmt::Out(t) => trace.outputs.push(eval_term_counting(
                    prog,
                    env,
                    t,
                    &mut trace.executed_operations,
                )),
            }
        }
        node = match &block.term {
            Terminator::Goto(n) => *n,
            Terminator::Cond {
                cond,
                then_to,
                else_to,
            } => {
                if eval_term_counting(prog, env, *cond, &mut trace.executed_operations) != 0 {
                    *then_to
                } else {
                    *else_to
                }
            }
            Terminator::Nondet(ns) => {
                let d = oracle.choose(node, ns.len()).min(ns.len() - 1);
                trace.decisions.push(d);
                ns[d]
            }
            Terminator::Halt => {
                trace.completed = true;
                return trace;
            }
        };
    }
}

/// Convenience: run with named inputs and a replayed decision sequence.
pub fn run_with(
    prog: &Program,
    inputs: &[(&str, i64)],
    decisions: Vec<usize>,
    limits: ExecLimits,
) -> Trace {
    let mut env = Env::with_values(prog, inputs);
    let mut oracle = ReplayOracle::new(decisions);
    run(prog, &mut env, &mut oracle, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn straight_line_arithmetic() {
        let p = parse(
            "prog {
               block s { x := a + b * 2; out(x); out(x - 1); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let t = run_with(&p, &[("a", 1), ("b", 3)], vec![], ExecLimits::default());
        assert_eq!(t.outputs, vec![7, 6]);
        assert!(t.completed);
        assert_eq!(t.executed_stmts, 3);
        assert_eq!(t.executed_assignments, 1);
    }

    #[test]
    fn division_and_mod_by_zero_are_total() {
        let p =
            parse("prog { block s { out(a / b); out(a % b); goto e } block e { halt } }").unwrap();
        let t = run_with(&p, &[("a", 5), ("b", 0)], vec![], ExecLimits::default());
        assert_eq!(t.outputs, vec![0, 0]);
    }

    #[test]
    fn wrapping_semantics() {
        let p =
            parse("prog { block s { out(a + 1); out(-a - 1); goto e } block e { halt } }").unwrap();
        let t = run_with(&p, &[("a", i64::MAX)], vec![], ExecLimits::default());
        assert_eq!(t.outputs, vec![i64::MIN, i64::MIN]);
    }

    #[test]
    fn conditional_branching_follows_env() {
        let p = parse(
            "prog {
               block s { if a < 10 then t else f }
               block t { out(1); goto e }
               block f { out(2); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let t = run_with(&p, &[("a", 5)], vec![], ExecLimits::default());
        assert_eq!(t.outputs, vec![1]);
        let t = run_with(&p, &[("a", 50)], vec![], ExecLimits::default());
        assert_eq!(t.outputs, vec![2]);
    }

    #[test]
    fn loop_executes_until_condition_flips() {
        let p = parse(
            "prog {
               block s { i := 0; goto h }
               block h { if i < 4 then body else x }
               block body { out(i); i := i + 1; goto h }
               block x { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let t = run_with(&p, &[], vec![], ExecLimits::default());
        assert_eq!(t.outputs, vec![0, 1, 2, 3]);
        assert_eq!(t.executed_assignments, 5); // i:=0 plus four increments
    }

    #[test]
    fn nondet_records_and_replays_decisions() {
        let p = parse(
            "prog {
               block s { nondet a b }
               block a { out(1); goto e }
               block b { out(2); goto e }
               block e { halt }
             }",
        )
        .unwrap();
        let mut env = Env::zeroed(&p);
        let mut oracle = SeededOracle::new(7);
        let t1 = run(&p, &mut env, &mut oracle, ExecLimits::default());
        assert_eq!(t1.decisions.len(), 1);
        // Replaying yields the identical trace.
        let t2 = run_with(&p, &[], t1.decisions.clone(), ExecLimits::default());
        assert_eq!(t1.outputs, t2.outputs);
        assert_eq!(t1.decisions, t2.decisions);
        assert_eq!(t1.executed_stmts, t2.executed_stmts);
    }

    #[test]
    fn block_visit_limit_cuts_infinite_loops() {
        let p = parse(
            "prog {
               block s { nondet s2 e }
               block s2 { out(1); nondet s2 e }
               block e { halt }
             }",
        )
        .unwrap();
        let mut env = Env::zeroed(&p);
        let mut oracle = FirstChoice;
        let t = run(
            &p,
            &mut env,
            &mut oracle,
            ExecLimits {
                max_block_visits: 10,
            },
        );
        assert!(!t.completed);
        // Ten visits: `s`, then `s2` nine times, each ending in a
        // decision; only the `s2` visits run `out(1)`.
        assert_eq!(t.decisions.len(), 10);
        assert_eq!(t.outputs, vec![1; 9]);
        assert_eq!(t.executed_stmts, 9);
    }

    #[test]
    fn replay_oracle_clamps_out_of_range() {
        let mut o = ReplayOracle::new(vec![9]);
        assert_eq!(o.choose(NodeId::from_index(0), 2), 1);
        assert_eq!(o.choose(NodeId::from_index(0), 2), 0); // exhausted → 0
    }

    #[test]
    fn every_operator_semantics() {
        let p = parse(
            "prog { block s {
                out(a + b); out(a - b); out(a * b); out(a / b); out(a % b);
                out(a < b); out(a <= b); out(a > b); out(a >= b);
                out(a == b); out(a != b); out(a && b); out(a || b);
                out(-(a)); out(!a);
                goto e } block e { halt } }",
        )
        .unwrap();
        let t = run_with(&p, &[("a", 7), ("b", 3)], vec![], ExecLimits::default());
        assert_eq!(
            t.outputs,
            vec![10, 4, 21, 2, 1, 0, 0, 1, 1, 0, 1, 1, 1, -7, 0]
        );
        let t = run_with(&p, &[("a", 0), ("b", -3)], vec![], ExecLimits::default());
        assert_eq!(
            t.outputs,
            vec![-3, 3, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1]
        );
    }

    #[test]
    fn operation_counter_counts_operator_nodes() {
        let p = parse(
            "prog { block s { x := a + b * 2; out(x); if x < 9 then t else e }
              block t { goto e } block e { halt } }",
        )
        .unwrap();
        let t = run_with(&p, &[("a", 1), ("b", 1)], vec![], ExecLimits::default());
        // a + b*2 → 2 ops; out(x) → 0; x < 9 → 1 op.
        assert_eq!(t.executed_operations, 3);
    }

    #[test]
    fn with_values_ignores_unknown_names() {
        let p = parse("prog { block s { out(a); goto e } block e { halt } }").unwrap();
        let t = run_with(&p, &[("a", 3), ("ghost", 9)], vec![], ExecLimits::default());
        assert_eq!(t.outputs, vec![3]);
    }
}
