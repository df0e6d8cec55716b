//! Seeded inputs. Every program, request line and op order is a pure
//! function of the workload seed, so one seed always yields the same
//! byte stream and the program under test only ever sees these inputs.

use pdce_core::PdceConfig;
use pdce_ir::printer::print_program;
use pdce_progen::{structured, tangled, GenConfig};
use pdce_rng::Rng;

/// Optimization mode of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Pde,
    Pfe,
}

impl Mode {
    /// The protocol and CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Pde => "pde",
            Mode::Pfe => "pfe",
        }
    }

    /// The configuration `pdce opt --mode <label>` runs with.
    pub fn config(self) -> PdceConfig {
        match self {
            Mode::Pde => PdceConfig::pde(),
            Mode::Pfe => PdceConfig::pfe(),
        }
    }
}

/// A seed for item `index` of input family `domain`, decorrelated from
/// every other (seed, domain, index) triple.
fn mix(seed: u64, domain: u64, index: u64) -> u64 {
    let mut rng = Rng::new(seed ^ domain.wrapping_mul(0xa076_1d64_78bd_642f));
    for _ in 0..2 {
        rng.next_u64();
    }
    rng.next_u64() ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db)
}

const LARGE: u64 = 1;
const LARGE_WARMUP: u64 = 2;
const SMALL: u64 = 3;
const SMALL_WARMUP: u64 = 4;
const MEDIUM: u64 = 5;
const MEDIUM_FRESH: u64 = 6;
const ORDER: u64 = 7;
const MIXED_ORDER: u64 = 8;

/// Program `i` of an `n`-program large corpus: 100–400 blocks, 16–24
/// variables, and every eighth program a `progen::tangled` irreducible
/// variant. Sizes sit on a stratified grid, so every seed draws the
/// same size mix; the grid is log-uniform (median ~200 blocks), which
/// keeps a window's op count high enough for a steady p99.
fn large_program(seed: u64, warmup: bool, i: usize, n: usize) -> String {
    let s = mix(seed, if warmup { LARGE_WARMUP } else { LARGE }, i as u64);
    let mut rng = Rng::new(s);
    let position = (i as f64 + rng.gen_f64()) / n as f64;
    let target_blocks = (100.0 * 4f64.powf(position)) as usize;
    let config = GenConfig {
        seed: s,
        target_blocks,
        num_vars: rng.gen_range_inclusive(16, 24),
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    };
    let prog = if i % 8 == 7 {
        tangled(&config, target_blocks / 12)
    } else {
        structured(&config)
    };
    print_program(&prog)
}

/// A program shaped like the T5 serving corpus: 10–26 blocks, 8
/// variables.
fn small_program(seed: u64, warmup: bool, i: usize) -> String {
    let s = mix(seed, if warmup { SMALL_WARMUP } else { SMALL }, i as u64);
    print_program(&structured(&GenConfig {
        seed: s,
        target_blocks: 10 + (i % 5) * 4,
        num_vars: 8,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    }))
}

/// A 30–60-block program of the mixed-traffic working set (`fresh`
/// draws from a disjoint family for first sights).
fn medium_program(seed: u64, fresh: bool, i: usize) -> String {
    let s = mix(seed, if fresh { MEDIUM_FRESH } else { MEDIUM }, i as u64);
    let mut rng = Rng::new(s);
    print_program(&structured(&GenConfig {
        seed: s,
        target_blocks: 30 + (i * 13) % 31,
        num_vars: rng.gen_range_inclusive(8, 12),
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    }))
}

/// A seeded permutation of `0..n`.
fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(mix(seed, ORDER, n as u64));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0, i + 1));
    }
    order
}

/// Appends `s` as a JSON string literal.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One optimize request line. `program_first` flips the field order,
/// which the server must treat as the same request.
fn request_line(
    id: &str,
    program: &str,
    mode: Mode,
    validate: Option<u32>,
    program_first: bool,
) -> String {
    let mut out = String::with_capacity(program.len() + 96);
    out.push_str("{\"id\":");
    push_json_str(&mut out, id);
    if program_first {
        out.push_str(",\"program\":");
        push_json_str(&mut out, program);
        out.push_str(",\"mode\":\"");
        out.push_str(mode.label());
        out.push('"');
    } else {
        out.push_str(",\"op\":\"optimize\",\"mode\":\"");
        out.push_str(mode.label());
        out.push_str("\",\"program\":");
        push_json_str(&mut out, program);
    }
    if let Some(k) = validate {
        out.push_str(&format!(",\"validate\":{k}"));
    }
    out.push('}');
    out
}

/// A whitespace-only variant of `program`, distinct for every
/// `variant`: the bits of `variant + 1` pick which of the first 48
/// lines get two extra spaces of indentation.
fn reformat(program: &str, variant: u64) -> String {
    let bits = variant + 1;
    let mut out = String::with_capacity(program.len() + 96);
    for (k, line) in program.split_inclusive('\n').enumerate() {
        if k < 48 && bits >> k & 1 == 1 {
            out.push_str("  ");
        }
        out.push_str(line);
    }
    out
}

/// The opt_large corpus: programs, the op order of one pass over it,
/// and a disjoint warm-up slice.
pub struct OptCorpus {
    pub programs: Vec<String>,
    /// `(program index, mode)`, each program once per mode, seeded order.
    pub ops: Vec<(usize, Mode)>,
    pub warmup: Vec<String>,
}

/// Programs in the opt_large corpus.
const LARGE_PROGRAMS: usize = 1024;
/// Programs in its warm-up slice.
const LARGE_WARMUP_PROGRAMS: usize = 16;

pub fn opt_corpus(seed: u64) -> OptCorpus {
    let n = LARGE_PROGRAMS;
    let programs: Vec<String> = (0..n).map(|i| large_program(seed, false, i, n)).collect();
    let all: Vec<(usize, Mode)> = (0..n)
        .flat_map(|i| [(i, Mode::Pde), (i, Mode::Pfe)])
        .collect();
    let ops = shuffled(seed, all.len())
        .into_iter()
        .map(|k| all[k])
        .collect();
    let warmup = (0..LARGE_WARMUP_PROGRAMS)
        .map(|i| large_program(seed, true, i, LARGE_WARMUP_PROGRAMS))
        .collect();
    OptCorpus {
        programs,
        ops,
        warmup,
    }
}

/// What one serve request is, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Never sent before: the server must compute it.
    First,
    /// Byte-for-byte repeat of an earlier program text.
    Verbatim,
    /// Whitespace/field-order variant of an earlier program.
    Reformatted,
}

/// One request of a serve stream.
#[derive(Debug, Clone)]
pub struct Send {
    pub kind: Kind,
    /// Index into [`ServeStream::programs`].
    pub program: usize,
    pub mode: Mode,
    pub validate: Option<u32>,
    /// Whitespace variant number (reformatted requests only).
    pub variant: u64,
}

/// A serve workload's inputs: the distinct programs, the requests that
/// warm the server before the window, and the measured requests.
pub struct ServeStream {
    pub programs: Vec<String>,
    pub warmup: Vec<Send>,
    pub measured: Vec<Send>,
}

impl ServeStream {
    /// The request line of `send`, with id `id`.
    pub fn line(&self, send: &Send, id: &str) -> String {
        let text = &self.programs[send.program];
        match send.kind {
            Kind::First | Kind::Verbatim => request_line(id, text, send.mode, send.validate, false),
            Kind::Reformatted => request_line(
                id,
                &reformat(text, send.variant),
                send.mode,
                send.validate,
                true,
            ),
        }
    }
}

/// A cold-stream request for program `program`: pde, every fourth
/// carrying `"validate":8`.
fn cold_send(i: usize, program: usize) -> Send {
    Send {
        kind: Kind::First,
        program,
        mode: Mode::Pde,
        validate: (i % 4 == 3).then_some(8),
        variant: 0,
    }
}

/// serve_cold: `measured` distinct T5-shaped pde programs, every fourth
/// carrying `"validate":8`, after `warmup` disjoint ones.
pub fn cold_stream(seed: u64, warmup: usize, measured: usize) -> ServeStream {
    let mut programs: Vec<String> = (0..warmup).map(|i| small_program(seed, true, i)).collect();
    let warmup = (0..warmup).map(|i| cold_send(i, i)).collect();
    let measured = (0..measured)
        .map(|i| {
            programs.push(small_program(seed, false, i));
            cold_send(i, programs.len() - 1)
        })
        .collect();
    ServeStream {
        programs,
        warmup,
        measured,
    }
}

/// The serve_mixed stream is built from blocks of [`MIXED_BLOCK`]
/// requests holding exactly this many first sights and reformatted
/// repeats (5% and 10%), the rest verbatim repeats, in a seeded order
/// within the block: every seed, and every prefix of the stream, has
/// the same mix to within one block.
const MIXED_BLOCK: usize = 20;
const MIXED_FIRSTS_PER_BLOCK: usize = 1;
const MIXED_REFORMATS_PER_BLOCK: usize = 2;
/// Zipf exponent of the repeat popularity.
const MIXED_ZIPF_S: f64 = 1.3;

/// serve_mixed: a working set of `working_set` medium programs (every
/// fourth in pfe mode), prefilled coldest first, then `measured`
/// requests: 85% verbatim repeats and 10% reformatted repeats drawn
/// with Zipf skew, 5% first sights (every fourth carrying
/// `"validate":8`, so translation validation runs here too).
pub fn mixed_stream(seed: u64, working_set: usize, measured: usize) -> ServeStream {
    let mode_of = |i: usize| if i % 4 == 3 { Mode::Pfe } else { Mode::Pde };
    let mut programs: Vec<String> = (0..working_set)
        .map(|i| medium_program(seed, false, i))
        .collect();
    // Popularity rank r has weight 1/(r+1)^s; rank r is item r.
    let weights: Vec<f64> = (0..working_set)
        .map(|r| 1.0 / ((r + 1) as f64).powf(MIXED_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(working_set);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let warmup = (0..working_set)
        .rev()
        .map(|i| Send {
            kind: Kind::First,
            program: i,
            mode: mode_of(i),
            validate: None,
            variant: 0,
        })
        .collect();
    let mut block = [Kind::Verbatim; MIXED_BLOCK];
    block[..MIXED_FIRSTS_PER_BLOCK].fill(Kind::First);
    block[MIXED_FIRSTS_PER_BLOCK..MIXED_FIRSTS_PER_BLOCK + MIXED_REFORMATS_PER_BLOCK]
        .fill(Kind::Reformatted);
    let mut rng = Rng::new(mix(seed, MIXED_ORDER, 0));
    let mut fresh = 0usize;
    let mut variant = 0u64;
    let mut sends = Vec::with_capacity(measured);
    while sends.len() < measured {
        for i in (1..MIXED_BLOCK).rev() {
            block.swap(i, rng.gen_range(0, i + 1));
        }
        for &kind in &block {
            if kind == Kind::First {
                programs.push(medium_program(seed, true, fresh));
                fresh += 1;
                sends.push(Send {
                    kind,
                    program: programs.len() - 1,
                    mode: Mode::Pde,
                    validate: fresh.is_multiple_of(4).then_some(8),
                    variant: 0,
                });
                continue;
            }
            let pick = rng.gen_f64();
            let item = cdf.partition_point(|&c| c < pick).min(working_set - 1);
            if kind == Kind::Reformatted {
                variant += 1;
            }
            sends.push(Send {
                kind,
                program: item,
                mode: mode_of(item),
                validate: None,
                variant,
            });
        }
    }
    sends.truncate(measured);
    ServeStream {
        programs,
        warmup,
        measured: sends,
    }
}
