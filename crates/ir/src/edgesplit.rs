//! Critical-edge splitting (Section 2.1 of the paper).
//!
//! Partial dead code elimination, like partial redundancy elimination, is
//! blocked by *critical edges*: edges from a node with more than one
//! successor to a node with more than one predecessor (Figure 8). The
//! remedy is to insert a synthetic node into every such edge; the paper
//! restricts attention to programs preprocessed this way, and the driver
//! in `pdce-core` calls [`split_critical_edges`] before optimizing.

use std::collections::BTreeSet;

use crate::cfg::CfgView;
use crate::program::{split_name, NodeId, Program};

/// Splits every critical edge of `prog` by inserting a synthetic block,
/// returning the new blocks (named `S_<from>_<to>` after the paper's
/// `S_{m,n}` notation, suffixed with `_` until the name is free).
///
/// Only a name that starts with `S_` can collide with a generated one,
/// so the names are probed against one set of the program's `S_` names,
/// built once per call and grown with each new block, instead of a scan
/// over every block per split.
///
/// Idempotent: a second call returns an empty vector.
pub fn split_critical_edges(prog: &mut Program) -> Vec<NodeId> {
    let view = CfgView::new(prog);
    // The view's critical-edge table is already sorted and deduplicated:
    // parallel edges (e.g. `nondet x x`) collapse to one entry, and a
    // single synthetic node serves all of them (retargeting rewrites
    // every matching successor).
    let critical = view.critical_edges();
    let mut inserted = Vec::with_capacity(critical.len());
    if critical.is_empty() {
        return inserted;
    }
    let mut taken: BTreeSet<String> = prog
        .node_ids()
        .map(|n| &prog.block(n).name)
        .filter(|name| name.starts_with("S_"))
        .cloned()
        .collect();
    for &(from, to) in critical {
        let mut name = split_name(&prog.block(from).name, &prog.block(to).name);
        while taken.contains(&name) {
            name.push('_');
        }
        taken.insert(name.clone());
        inserted.push(prog.split_edge_named(from, to, name));
    }
    inserted
}

/// Whether the program currently contains a critical edge.
pub fn has_critical_edges(prog: &Program) -> bool {
    !CfgView::new(prog).critical_edges().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::validate::validate;

    /// Figure 8(a): edge (1,2) is critical; splitting inserts `S_1_2`.
    #[test]
    fn splits_figure_8() {
        let mut p = parse(
            "prog {
               block s  { goto n1 }
               block n1 { x := a + b; nondet n2 n3 }
               block n2 { out(x); goto e }
               block n3 { x := 5; goto n2 }
               block e  { halt }
             }",
        )
        .unwrap();
        assert!(has_critical_edges(&p));
        let inserted = split_critical_edges(&mut p);
        assert_eq!(inserted.len(), 1);
        let s12 = inserted[0];
        assert_eq!(p.block(s12).name, "S_n1_n2");
        assert!(p.block(s12).is_synthetic());
        assert!(p.block(s12).stmts.is_empty());
        // Wiring: n1 -> S -> n2, n1 -> n3 unchanged.
        let n1 = p.block_by_name("n1").unwrap();
        let n2 = p.block_by_name("n2").unwrap();
        let n3 = p.block_by_name("n3").unwrap();
        assert_eq!(p.successors(n1), vec![s12, n3]);
        assert_eq!(p.successors(s12), vec![n2]);
        assert!(!has_critical_edges(&p));
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn idempotent() {
        let mut p = parse(
            "prog {
               block s  { goto n1 }
               block n1 { nondet n2 n3 }
               block n2 { goto n4 }
               block n3 { goto n4 }
               block n4 { nondet n1 e }
               block e  { halt }
             }",
        )
        .unwrap();
        let first = split_critical_edges(&mut p);
        assert!(!first.is_empty());
        let second = split_critical_edges(&mut p);
        assert!(second.is_empty());
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn no_op_on_clean_graphs() {
        let mut p = parse(
            "prog {
               block s { nondet a b }
               block a { goto j }
               block b { goto j }
               block j { goto e }
               block e { halt }
             }",
        )
        .unwrap();
        assert!(split_critical_edges(&mut p).is_empty());
    }

    #[test]
    fn splits_self_loop() {
        // A self-loop on a branching node is a critical edge (the node is
        // both a multi-successor source and multi-predecessor target).
        let mut p = parse(
            "prog {
               block s { goto l }
               block l { nondet l e }
               block e { halt }
             }",
        )
        .unwrap();
        let inserted = split_critical_edges(&mut p);
        assert_eq!(inserted.len(), 1);
        let l = p.block_by_name("l").unwrap();
        assert_eq!(p.successors(inserted[0]), vec![l]);
        assert_eq!(validate(&p), Ok(()));
    }

    /// A generated name that a user block already holds takes `_`
    /// suffixes until it is free, exactly as the per-split scan of
    /// [`Program::split_edge`] names it.
    #[test]
    fn split_names_skip_user_blocks_named_like_splits() {
        let src = "prog {
               block s     { goto a }
               block a     { nondet b S_a_b }
               block S_a_b { goto S_a_b_ }
               block S_a_b_ { nondet b e }
               block b     { nondet a e }
               block e     { halt }
             }";
        let mut p = parse(src).unwrap();
        let inserted = split_critical_edges(&mut p);
        let names: Vec<&str> = inserted.iter().map(|&n| p.block(n).name.as_str()).collect();
        assert!(names.contains(&"S_a_b__"), "{names:?}");
        assert_eq!(validate(&p), Ok(()));

        let mut scanned = parse(src).unwrap();
        let critical = CfgView::new(&scanned).critical_edges().to_vec();
        for (from, to) in critical {
            scanned.split_edge(from, to);
        }
        assert_eq!(
            crate::printer::print_program(&p),
            crate::printer::print_program(&scanned)
        );
    }
}
