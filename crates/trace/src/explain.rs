//! Human-readable rendering of the provenance log — the `--explain`
//! answer to "why did this assignment disappear?".
//!
//! One line per record, grouped by global round, naming the responsible
//! pass, the action, the statement, and the block it happened in.

use crate::{ProvAction, ProvenanceRecord};
use std::fmt::Write as _;

/// Renders the provenance log like [`render`], followed by a one-line
/// analysis summary: how many fixpoints were solved and what the
/// worklist popped.
pub fn render_with_solver(records: &[ProvenanceRecord], solver: &crate::SolverStats) -> String {
    let mut out = render(records);
    let _ = writeln!(
        out,
        "analyses: {} solve(s), {} worklist pop(s)",
        solver.problems, solver.priority_pops
    );
    out
}

/// Renders the provenance log, in record order, grouped by round.
pub fn render(records: &[ProvenanceRecord]) -> String {
    if records.is_empty() {
        return "no transformations recorded\n".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} transformation(s), in application order:",
        records.len()
    );
    let mut current_round: Option<u64> = None;
    for r in records {
        if current_round != Some(r.round) {
            current_round = Some(r.round);
            let _ = writeln!(out, "round {}:", r.round);
        }
        let verb = match r.action {
            ProvAction::Eliminated => "eliminated",
            ProvAction::Sunk => "sank",
            ProvAction::Inserted => "inserted",
        };
        let _ = writeln!(
            out,
            "  [{:<4}] {verb:<10} `{}` {} block {}  ({}, rev {})",
            r.pass,
            r.stmt,
            if r.action == ProvAction::Inserted {
                "into"
            } else {
                "from"
            },
            r.block,
            r.detail,
            r.revision
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(action: ProvAction, pass: &'static str, round: u64, stmt: &str) -> ProvenanceRecord {
        ProvenanceRecord {
            action,
            pass,
            round,
            revision: 40 + round,
            block: "n1".into(),
            stmt: stmt.into(),
            detail: "test",
        }
    }

    #[test]
    fn empty_log_renders_placeholder() {
        assert_eq!(render(&[]), "no transformations recorded\n");
    }

    #[test]
    fn solver_footer_names_solves_and_worklist_pops() {
        let solver = crate::SolverStats {
            problems: 3,
            priority_pops: 37,
            ..crate::SolverStats::ZERO
        };
        let text = render_with_solver(&[rec(ProvAction::Eliminated, "dce", 1, "x := 1")], &solver);
        assert!(
            text.ends_with("analyses: 3 solve(s), 37 worklist pop(s)\n"),
            "{text}"
        );
    }

    #[test]
    fn names_pass_round_action_and_statement() {
        let text = render(&[
            rec(ProvAction::Sunk, "sink", 1, "y := a + b"),
            rec(ProvAction::Inserted, "sink", 1, "y := a + b"),
            rec(ProvAction::Eliminated, "dce", 2, "y := a + b"),
        ]);
        assert!(text.contains("round 1:"));
        assert!(text.contains("round 2:"));
        assert!(text.contains("[dce ] eliminated `y := a + b` from block n1"));
        assert!(text.contains("[sink] sank"));
        assert!(text.contains("inserted   `y := a + b` into block n1"));
    }
}
