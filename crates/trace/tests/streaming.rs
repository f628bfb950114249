//! Streamed traces equal whole ones: [`TraceStream::fill`] chunks
//! concatenate to [`TraceGenerator::generate`]'s trace, and a
//! [`TaskSplitter`] fed any piece sizes emits [`split_tasks`]'s tasks.

use ms_analysis::ProgramContext;
use ms_ir::Program;
use ms_tasksel::{Selection, Strategy, TaskPartition};
use ms_trace::{split_tasks, DynTask, TaskSplitter, Trace, TraceGenerator, TraceStep};

fn select(bench: &str, strategy: Strategy) -> Selection {
    let program = ms_workloads::by_name(bench).unwrap().build();
    strategy.selector(4).select(&ProgramContext::new(program))
}

/// Every step of `trace` with its addresses.
fn steps_with_addrs(trace: &Trace) -> Vec<(TraceStep, Vec<u64>)> {
    (0..trace.steps().len())
        .map(|i| (trace.steps()[i].clone(), trace.mem_addrs(i).to_vec()))
        .collect()
}

/// Streams `insts` from `seed` in chunks of `chunk` instructions into one
/// reused buffer, dropping each chunk once read.
fn streamed(
    program: &Program,
    seed: u64,
    insts: usize,
    chunk: usize,
) -> (Vec<(TraceStep, Vec<u64>)>, usize) {
    let mut stream = TraceGenerator::new(program, seed).stream(insts);
    let mut trace = Trace::default();
    let (mut out, mut total) = (Vec::new(), 0);
    loop {
        let ended = stream.fill(&mut trace, chunk);
        total += trace.num_insts();
        out.extend(steps_with_addrs(&trace));
        trace.drop_front(trace.steps().len(), program);
        assert_eq!(trace.num_insts(), 0);
        if ended {
            return (out, total);
        }
    }
}

#[test]
fn stream_chunks_concatenate_to_the_generated_trace() {
    for bench in ["compress", "li", "go", "fpppp", "swim"] {
        let program = ms_workloads::by_name(bench).unwrap().build();
        for insts in [0, 1, 2_000, 25_000] {
            let whole = TraceGenerator::new(&program, 9).generate(insts);
            for chunk in [1, 1_000, 7_919, usize::MAX] {
                let (steps, total) = streamed(&program, 9, insts, chunk);
                assert_eq!(steps, steps_with_addrs(&whole), "{bench} {insts} by {chunk}");
                assert_eq!(total, whole.num_insts(), "{bench} {insts} by {chunk}");
            }
        }
    }
}

#[test]
fn dropping_a_prefix_keeps_the_rest_of_the_trace() {
    let program = ms_workloads::by_name("compress").unwrap().build();
    let whole = TraceGenerator::new(&program, 3).generate(3_000);
    let all = steps_with_addrs(&whole);
    for n in [0, 1, 17, whole.steps().len()] {
        let mut t = whole.clone();
        t.drop_front(n, &program);
        assert_eq!(steps_with_addrs(&t), all[n..]);
        let insts: usize = t.steps().iter().map(|s| s.num_insts(&program)).sum();
        assert_eq!(t.num_insts(), insts);
    }
}

/// Feeds `steps` to a splitter `piece` steps at a time, dropping the
/// finished prefix after every piece as a streamed run does, and renumbers
/// the tasks to whole-trace steps.
fn split_in_pieces(
    steps: &[TraceStep],
    program: &Program,
    partition: &TaskPartition,
    piece: usize,
) -> Vec<DynTask> {
    let mut splitter = TaskSplitter::new(program, partition);
    let (mut buf, mut out, mut got) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fed, mut base) = (0, 0);
    loop {
        let n = piece.min(steps.len() - fed);
        buf.extend_from_slice(&steps[fed..fed + n]);
        fed += n;
        let last = fed == steps.len();
        out.clear();
        splitter.split(&buf, last, &mut out);
        got.extend(out.iter().map(|t| DynTask {
            start: t.start + base,
            end: t.end + base,
            ..t.clone()
        }));
        if last {
            return got;
        }
        let cut = splitter.pending_start();
        buf.drain(..cut);
        splitter.drop_front(cut);
        base += cut;
    }
}

#[test]
fn splitter_fed_in_pieces_matches_the_whole_split() {
    let mut inline_tasks = 0;
    let mut longest = 0;
    for bench in ["compress", "li", "go", "fpppp"] {
        for strategy in [
            Strategy::BasicBlock,
            Strategy::ControlFlow,
            Strategy::DataDependence,
            Strategy::TaskSize,
        ] {
            let sel = select(bench, strategy);
            let trace = TraceGenerator::new(&sel.program, 5).generate(4_000);
            let whole = split_tasks(&trace, &sel.program, &sel.partition);
            for piece in 1..=64 {
                let got = split_in_pieces(trace.steps(), &sel.program, &sel.partition, piece);
                assert_eq!(got, whole, "{bench} {} in pieces of {piece}", strategy.label());
            }
            // Pieces of one step put a boundary inside every included
            // call: count the tasks that enter one.
            let steps = trace.steps();
            inline_tasks += whole
                .iter()
                .filter(|t| steps[t.start..t.end].iter().any(|s| s.depth > steps[t.start].depth))
                .count();
            if (bench, strategy) == ("fpppp", Strategy::TaskSize) {
                longest = whole.iter().map(DynTask::num_steps).max().unwrap_or(0);
            }
        }
    }
    assert!(inline_tasks > 0, "no task runs through an included call");
    eprintln!("longest {longest}");
}
