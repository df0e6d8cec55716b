//! The benchmark's own output check: an optimized program must produce
//! the same `out` trace as its input on seeded input vectors.
//! Nondeterministic branch decisions are drawn on the input and replayed
//! positionally on the output (the transforms never touch terminators,
//! and split critical edges add only `goto` blocks), so corresponding
//! runs follow corresponding paths.

use pdce_ir::interp::{run, DecisionOracle, Env, ExecLimits};
use pdce_ir::{NodeId, Program};

/// Seeded vectors run per checked program.
const VECTORS: u64 = 4;
/// Block visits allowed on the input; the output gets twice as many,
/// since every input edge may have become a split block plus its target.
const INPUT_VISITS: u64 = 4_096;

/// Dynamic and static effort of one checked pair, summed over vectors
/// whose runs both reached the exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effort {
    pub assigns_before: u64,
    pub assigns_after: u64,
    pub stmts_before: u64,
    pub stmts_after: u64,
}

impl Effort {
    pub fn add(&mut self, other: &Effort) {
        self.assigns_before += other.assigns_before;
        self.assigns_after += other.assigns_after;
        self.stmts_before += other.stmts_before;
        self.stmts_after += other.stmts_after;
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over `s`, mixed into `seed`: an input value per variable name,
/// so a variable keeps its value on both sides of the pair.
fn value_of(seed: u64, name: &str) -> i64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (splitmix(&mut h) % 1_024) as i64 - 512
}

fn env_for(prog: &Program, seed: u64) -> Env {
    let mut env = Env::zeroed(prog);
    for v in prog.vars().iter() {
        env.set(v, value_of(seed, prog.vars().name(v)));
    }
    env
}

/// Draws decisions from a seed and records them.
struct Recording {
    state: u64,
    taken: Vec<usize>,
}

impl DecisionOracle for Recording {
    fn choose(&mut self, _node: NodeId, n: usize) -> usize {
        let d = (splitmix(&mut self.state) % n as u64) as usize;
        self.taken.push(d);
        d
    }
}

/// Replays recorded decisions; past their end it takes the first
/// successor.
struct Replaying {
    decisions: Vec<usize>,
    pos: usize,
}

impl DecisionOracle for Replaying {
    fn choose(&mut self, _node: NodeId, n: usize) -> usize {
        let d = self.decisions.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        d.min(n - 1)
    }
}

/// Checks that `output` behaves like `input` on [`VECTORS`] vectors
/// derived from `seed`. A run cut at the visit limit is compared as a
/// prefix: the input's outputs must start the output's.
pub fn check_pair(input: &Program, output: &Program, seed: u64) -> Result<Effort, String> {
    let mut effort = Effort {
        stmts_before: input.num_stmts() as u64,
        stmts_after: output.num_stmts() as u64,
        ..Effort::default()
    };
    for v in 0..VECTORS {
        let vec_seed = seed ^ (v + 1).wrapping_mul(0xa076_1d64_78bd_642f);
        let mut record = Recording {
            state: vec_seed,
            taken: Vec::new(),
        };
        let before = run(
            input,
            &mut env_for(input, vec_seed),
            &mut record,
            ExecLimits {
                max_block_visits: INPUT_VISITS,
            },
        );
        let after = run(
            output,
            &mut env_for(output, vec_seed),
            &mut Replaying {
                decisions: record.taken,
                pos: 0,
            },
            ExecLimits {
                max_block_visits: 2 * INPUT_VISITS,
            },
        );
        if before.completed {
            if !after.completed || after.outputs != before.outputs {
                return Err(format!(
                    "vector {v}: outputs differ (input {:?}, output {:?})",
                    before.outputs, after.outputs
                ));
            }
            effort.assigns_before += before.executed_assignments;
            effort.assigns_after += after.executed_assignments;
        } else if !after.outputs.starts_with(&before.outputs) {
            return Err(format!("vector {v}: output trace diverges within the cut"));
        }
    }
    Ok(effort)
}
