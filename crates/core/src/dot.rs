//! Graphviz export: render a function's CFG with its task partition.
//!
//! Each task becomes a `subgraph cluster` (one colour per task), blocks
//! are nodes labelled with their instruction counts, and edges are solid
//! when included within a task or dashed when exposed (a task boundary —
//! a sequencer transition the predictor must get right).

use std::fmt::Write as _;

use ms_ir::{FuncId, Program, Terminator};

use crate::task::TaskPartition;

/// Pastel fill colours cycled across tasks.
const COLORS: [&str; 8] =
    ["#cfe8fc", "#ffe2b8", "#d8f0cf", "#f3d1f4", "#fff3b0", "#d9d7f1", "#ffd5cc", "#c8f0ea"];

/// Renders function `f` of `program`, partitioned by `partition`, as a
/// Graphviz `digraph` (returns the DOT source).
///
/// ```
/// # use ms_analysis::ProgramContext;
/// # use ms_ir::{FunctionBuilder, Opcode, ProgramBuilder, Reg, Terminator};
/// # use ms_tasksel::{to_dot, SelectorBuilder, Strategy};
/// # let mut fb = FunctionBuilder::new("main");
/// # let b = fb.add_block();
/// # fb.push_inst(b, Opcode::IAdd.inst().dst(Reg::int(1)));
/// # fb.set_terminator(b, Terminator::Halt);
/// # let mut pb = ProgramBuilder::new();
/// # let m = pb.declare_function("main");
/// # pb.define_function(m, fb.finish(b).unwrap());
/// # let ctx = ProgramContext::new(pb.finish(m).unwrap());
/// let sel = SelectorBuilder::new(Strategy::ControlFlow).max_targets(4).build().select(&ctx);
/// let dot = to_dot(&sel.program, &sel.partition, sel.program.entry());
/// assert!(dot.starts_with("digraph"));
/// ```
pub fn to_dot(program: &Program, partition: &TaskPartition, f: FuncId) -> String {
    let func = program.function(f);
    let fp = partition.func(f);
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", func.name());
    let _ = writeln!(out, "  rankdir=TB; node [shape=box, style=filled, fontname=monospace];");
    let _ = writeln!(
        out,
        "  label=\"{} — {} tasks ({})\"; labelloc=t;",
        func.name(),
        fp.tasks().len(),
        partition.strategy()
    );
    for (ti, task) in fp.tasks().iter().enumerate() {
        let color = COLORS[ti % COLORS.len()];
        let _ = writeln!(out, "  subgraph cluster_t{ti} {{");
        let _ = writeln!(out, "    label=\"t{ti}\"; color=gray60;");
        for &b in task.blocks() {
            let blk = func.block(b);
            let marker = if b == task.entry() { "▶ " } else { "" };
            let _ = writeln!(
                out,
                "    b{} [label=\"{marker}{b}\\n{} insts\", fillcolor=\"{color}\"];",
                b.index(),
                blk.insts().len(),
            );
        }
        let _ = writeln!(out, "  }}");
    }
    // Edges: solid inside a task, dashed when crossing tasks.
    for b in func.block_ids() {
        if fp.task_of(b).is_none() {
            continue; // unreachable
        }
        let same_task = |x| fp.task_of(b) == fp.task_of(x);
        match func.block(b).terminator() {
            Terminator::Call { callee, ret_to } => {
                let included = partition.is_included_call(f, b);
                let _ = writeln!(
                    out,
                    "  b{} -> b{} [style={}, label=\"call {}\"];",
                    b.index(),
                    ret_to.index(),
                    if included { "solid" } else { "dashed" },
                    program.function(*callee).name(),
                );
            }
            term => {
                for s in term.successors() {
                    if fp.task_of(s).is_none() {
                        continue;
                    }
                    let style = if same_task(s) && fp.task(fp.task_of(b).unwrap()).entry() != s {
                        "solid"
                    } else {
                        "dashed"
                    };
                    let _ = writeln!(out, "  b{} -> b{} [style={style}];", b.index(), s.index());
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SelectorBuilder, Strategy};
    use ms_analysis::ProgramContext;
    use ms_ir::{BranchBehavior, FunctionBuilder, Opcode, ProgramBuilder, Reg};

    fn loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let entry = fb.add_block();
        let head = fb.add_block();
        let latch = fb.add_block();
        let exit = fb.add_block();
        fb.push_inst(head, Opcode::IAdd.inst().dst(Reg::int(1)).src(Reg::int(1)));
        fb.set_terminator(entry, Terminator::Jump { target: head });
        fb.set_terminator(head, Terminator::Jump { target: latch });
        fb.set_terminator(
            latch,
            Terminator::Branch {
                taken: head,
                fall: exit,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::exact_loop(8),
            },
        );
        fb.set_terminator(exit, Terminator::Halt);
        pb.define_function(m, fb.finish(entry).unwrap());
        pb.finish(m).unwrap()
    }

    #[test]
    fn dot_contains_clusters_and_edge_styles() {
        let p = loop_program();
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let dot = to_dot(&sel.program, &sel.partition, p.entry());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("subgraph cluster_t0"));
        // The loop back edge to the task's own entry is a task boundary.
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=solid"));
        assert!(dot.trim_end().ends_with('}'));
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn dot_marks_task_entries() {
        let p = loop_program();
        let sel = SelectorBuilder::new(Strategy::ControlFlow)
            .max_targets(4)
            .build()
            .select(&ProgramContext::new(p.clone()));
        let dot = to_dot(&sel.program, &sel.partition, p.entry());
        assert!(dot.contains('▶'), "entries are marked");
    }
}
