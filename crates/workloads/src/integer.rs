//! The eight SPECint95-shaped synthetic benchmarks.
//!
//! Each function mirrors the *statistical personality* the paper's Table
//! 1 and Figure 5 report for its namesake: basic-block size, branch
//! predictability, loop structure, call behaviour and memory reference
//! style. Absolute instruction counts are synthetic; the shapes are what
//! the task-selection heuristics respond to.

use ms_ir::{
    AddrSpec, BranchBehavior, FunctionBuilder, Program, ProgramBuilder, Reg, SplitMix64, Terminator,
};

use crate::build::{
    call, close_driver, counted_loop, diamond, dispatch, fill_block, leaf_function, open_driver,
    tangle, OpMix, RegPool,
};

fn pool() -> RegPool {
    RegPool::default_window()
}

/// The driver loop's trip-count jitter is `trips / DRIVER_JITTER`.
const DRIVER_JITTER: u32 = 8;

/// 099.go — game tree search: small blocks, hard-to-predict branches,
/// board state in a shared table, mid-sized evaluation calls.
pub fn go(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let board = pb.add_addr_gen(AddrSpec::Indexed { base: 0x1_0000, len: 512 });
    let stack0 = pb.add_addr_gen(AddrSpec::Stack { slot: 0 });
    let mems = [board, stack0];
    let mix = OpMix::int();

    let eval = pb.declare_function("eval");
    {
        // A branchy evaluation function: five unpredictable diamonds.
        let mut fb = FunctionBuilder::new("eval");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 5, mix, &mems, pool());
        let cur = tangle(&mut fb, &mut rng, entry, 6, (4, 6), (0.62, 0.80), mix, &mems, pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(eval, fb.finish(entry).unwrap());
    }

    // Pattern matcher: scans board neighbourhoods, very irregular.
    let pattern = pb.declare_function("pattern_match");
    {
        let mut fb = FunctionBuilder::new("pattern_match");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 4, mix, &[board], pool());
        let mid = tangle(&mut fb, &mut rng, entry, 5, (3, 6), (0.60, 0.78), mix, &[board], pool());
        let cur = counted_loop(&mut fb, &mut rng, mid, 5, 4, 1, mix, &[board], pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(pattern, fb.finish(entry).unwrap());
    }

    // Life-and-death reader: a short search loop over group liberties.
    let life = pb.declare_function("life_death");
    {
        let mut fb = FunctionBuilder::new("life_death");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 3, mix, &mems, pool());
        let mid = counted_loop(&mut fb, &mut rng, entry, 6, 5, 2, mix, &[board], pool());
        let cur = tangle(&mut fb, &mut rng, mid, 4, (3, 5), (0.62, 0.80), mix, &mems, pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(life, fb.finish(entry).unwrap());
    }

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &mems, pool());
    // Move generation / board scan: irregular, hard-to-predict flow.
    let mut cur = tangle(&mut fb, &mut rng, head, 8, (4, 7), (0.60, 0.82), mix, &mems, pool());
    cur = call(&mut fb, cur, pattern);
    fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
    cur = call(&mut fb, cur, eval);
    fill_block(&mut fb, cur, &mut rng, 5, mix, &mems, pool());
    // Life-and-death reading happens only for contested groups.
    {
        let read = fb.add_block();
        let skip = fb.add_block();
        fb.set_terminator(
            cur,
            Terminator::Branch {
                taken: read,
                fall: skip,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Taken(0.3),
            },
        );
        fill_block(&mut fb, read, &mut rng, 2, mix, &mems, pool());
        let after = call(&mut fb, read, life);
        fb.set_terminator(after, Terminator::Jump { target: skip });
        cur = skip;
    }
    cur = tangle(&mut fb, &mut rng, cur, 4, (3, 6), (0.58, 0.78), mix, &mems, pool());
    fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
    close_driver(&mut fb, head, cur, 300, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("go builds a valid program")
}

/// 124.m88ksim — CPU simulator: a fetch/decode/execute loop with a
/// skewed opcode switch and highly predictable branches.
pub fn m88ksim(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let imem = pb.add_addr_gen(AddrSpec::Stride { base: 0x2_0000, stride: 8, len: 4096 });
    let regs = pb.add_addr_gen(AddrSpec::Indexed { base: 0x8_0000, len: 32 });
    let state = pb.add_addr_gen(AddrSpec::Global { addr: 0x9_0000 });
    let mix = OpMix::int();

    let helper = pb.declare_function("update_flags");
    {
        let mut r2 = SplitMix64::seed_from_u64(seed ^ 1);
        pb.define_function(
            helper,
            leaf_function("update_flags", &mut r2, 9, mix, &[state], pool()),
        );
    }

    // Simulated data memory stage: address translate + access.
    let dmem = pb.add_addr_gen(AddrSpec::Indexed { base: 0xa_0000, len: 2048 });
    let mem_stage = pb.declare_function("mem_stage");
    {
        let mut fb = FunctionBuilder::new("mem_stage");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 5, mix, &[dmem], pool());
        let cur = diamond(&mut fb, &mut rng, entry, 0.93, (4, 4), mix, &[dmem, state], pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(mem_stage, fb.finish(entry).unwrap());
    }
    // Tiny interrupt poll — prime call-inclusion material.
    let intr = pb.declare_function("check_interrupts");
    {
        let mut r2 = SplitMix64::seed_from_u64(seed ^ 7);
        pb.define_function(
            intr,
            leaf_function("check_interrupts", &mut r2, 4, mix, &[state], pool()),
        );
    }

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    // Fetch.
    fill_block(&mut fb, head, &mut rng, 4, mix, &[imem], pool());
    // Decode/execute dispatch: one dominant arm.
    let mut cur =
        dispatch(&mut fb, &mut rng, head, 8, &[40, 14, 8, 4, 2, 2, 1, 1], 5, mix, &[regs], pool());
    fill_block(&mut fb, cur, &mut rng, 3, mix, &[regs, state], pool());
    // Memory instructions (≈ a third of the mix) run the memory stage.
    {
        let mem_b = fb.add_block();
        let skip = fb.add_block();
        fb.set_terminator(
            cur,
            Terminator::Branch {
                taken: mem_b,
                fall: skip,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Taken(0.35),
            },
        );
        let after = call(&mut fb, mem_b, mem_stage);
        fb.set_terminator(after, Terminator::Jump { target: skip });
        cur = skip;
    }
    cur = tangle(&mut fb, &mut rng, cur, 3, (3, 5), (0.90, 0.97), mix, &[state], pool());
    cur = call(&mut fb, cur, helper);
    cur = call(&mut fb, cur, intr);
    fill_block(&mut fb, cur, &mut rng, 2, mix, &[state], pool());
    close_driver(&mut fb, head, cur, 500, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("m88ksim builds a valid program")
}

/// 126.gcc — a compiler: many mid-sized pass functions, irregular
/// control flow of mixed predictability, modest loops.
pub fn gcc(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let ir = pb.add_addr_gen(AddrSpec::Indexed { base: 0x10_0000, len: 8192 });
    let tbl = pb.add_addr_gen(AddrSpec::Indexed { base: 0x20_0000, len: 1024 });
    let sym = pb.add_addr_gen(AddrSpec::Global { addr: 0x30_0000 });
    let mems = [ir, tbl, sym];
    let mix = OpMix::int();

    let util = pb.declare_function("xmalloc");
    {
        let mut r2 = SplitMix64::seed_from_u64(seed ^ 2);
        pb.define_function(util, leaf_function("xmalloc", &mut r2, 7, mix, &[tbl], pool()));
    }

    // A lexer: a tight scan loop feeding the passes.
    let lexer = pb.declare_function("lexer");
    {
        let mut fb = FunctionBuilder::new("lexer");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 3, mix, &[ir], pool());
        let mid = counted_loop(&mut fb, &mut rng, entry, 6, 8, 3, mix, &[ir, tbl], pool());
        let cur = diamond(&mut fb, &mut rng, mid, 0.85, (3, 4), mix, &[tbl], pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(lexer, fb.finish(entry).unwrap());
    }

    // Five "pass" functions with different personalities.
    let mut passes = Vec::new();
    for (i, (p, blocks)) in
        [(0.82, 4), (0.90, 3), (0.74, 5), (0.87, 4), (0.78, 6)].iter().enumerate()
    {
        let f = pb.declare_function(format!("pass{i}"));
        let mut fb = FunctionBuilder::new(format!("pass{i}"));
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 5, mix, &mems, pool());
        let mut cur = tangle(
            &mut fb,
            &mut rng,
            entry,
            *blocks + 2,
            (4, 6),
            (*p - 0.08, *p),
            mix,
            &mems,
            pool(),
        );
        cur = counted_loop(&mut fb, &mut rng, cur, 8, 6, 2, mix, &mems, pool());
        cur = call(&mut fb, cur, util);
        fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(f, fb.finish(entry).unwrap());
        passes.push(f);
    }

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 5, mix, &mems, pool());
    let mut cur = call(&mut fb, head, lexer);
    fill_block(&mut fb, cur, &mut rng, 2, mix, &mems, pool());
    for &p in &passes {
        cur = call(&mut fb, cur, p);
        fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
    }
    cur = diamond(&mut fb, &mut rng, cur, 0.85, (4, 5), mix, &mems, pool());
    close_driver(&mut fb, head, cur, 150, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("gcc builds a valid program")
}

/// 129.compress — tight small loops over a hash table: the benchmark the
/// paper highlights as responding to the task-size heuristic (its short
/// loop bodies get unrolled).
pub fn compress(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let input = pb.add_addr_gen(AddrSpec::Stride { base: 0x40_0000, stride: 8, len: 1 << 14 });
    let htab = pb.add_addr_gen(AddrSpec::Indexed { base: 0x50_0000, len: 256 });
    let output = pb.add_addr_gen(AddrSpec::Stride { base: 0x60_0000, stride: 8, len: 1 << 14 });
    let counters = pb.add_addr_gen(AddrSpec::Global { addr: 0x70_0000 });
    // Compress's iterations couple through the hash table and the global
    // counters (memory), not through a wide register window.
    let mix = OpMix { local_src: 0.80, window_read: 0.25, ..OpMix::int() };

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 3, mix, &[input], pool());
    // The tight hash-probe loop: a hand-shaped read-modify-write body
    // (load the shared counters early, store them back late) — the
    // genuine cross-iteration memory dependence compress carries, and
    // prime unrolling material (< LOOP_THRESH).
    let mut cur = {
        use ms_ir::Opcode;
        let body = fb.add_block();
        let exit = fb.add_block();
        crate::build::push_induction(&mut fb, body);
        fb.push_inst(body, Opcode::Load.inst().dst(Reg::int(3)).src(Reg::int(1)).mem(counters));
        fb.push_inst(body, Opcode::Load.inst().dst(Reg::int(5)).src(Reg::int(1)).mem(htab));
        fb.push_inst(body, Opcode::IAdd.inst().dst(Reg::int(4)).src(Reg::int(3)).src(Reg::int(5)));
        fb.push_inst(body, Opcode::ILogic.inst().dst(Reg::int(6)).src(Reg::int(4)));
        fb.push_inst(body, Opcode::Store.inst().src(Reg::int(4)).src(Reg::int(1)).mem(counters));
        fb.set_terminator(entry, Terminator::Jump { target: head });
        fb.set_terminator(head, Terminator::Jump { target: body });
        fb.set_terminator(
            body,
            Terminator::Branch {
                taken: body,
                fall: exit,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Loop { avg_trips: 15, jitter: 0 },
            },
        );
        exit
    };
    fill_block(&mut fb, cur, &mut rng, 4, mix, &[htab], pool());
    cur = diamond(&mut fb, &mut rng, cur, 0.86, (4, 3), mix, &[output, counters], pool());
    fill_block(&mut fb, cur, &mut rng, 3, mix, &[output], pool());
    close_driver(&mut fb, head, cur, 500, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("compress builds a valid program")
}

/// 130.li — a Lisp interpreter: recursive eval dispatch over tiny
/// accessor functions (prime call-inclusion material) and pointer-dense
/// heap references.
pub fn li(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let heap = pb.add_addr_gen(AddrSpec::Indexed { base: 0x80_0000, len: 2048 });
    let env = pb.add_addr_gen(AddrSpec::Indexed { base: 0x90_0000, len: 64 });
    let mix = OpMix::int();

    let car = pb.declare_function("car");
    let cdr = pb.declare_function("cdr");
    {
        let mut r2 = SplitMix64::seed_from_u64(seed ^ 3);
        pb.define_function(car, leaf_function("car", &mut r2, 4, mix, &[heap], pool()));
        pb.define_function(cdr, leaf_function("cdr", &mut r2, 4, mix, &[heap], pool()));
    }

    let eval = pb.declare_function("eval");
    {
        let mut fb = FunctionBuilder::new("eval");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 4, mix, &[heap], pool());
        // Type dispatch; one arm recurses.
        let join = fb.add_block();
        let mut targets = Vec::new();
        for i in 0..6 {
            let arm = fb.add_block();
            fill_block(&mut fb, arm, &mut rng, 4, mix, &[heap, env], pool());
            if i == 0 {
                let after = call(&mut fb, arm, car);
                fill_block(&mut fb, after, &mut rng, 2, mix, &[heap], pool());
                fb.set_terminator(after, Terminator::Jump { target: join });
            } else if i == 1 {
                let after = call(&mut fb, arm, cdr);
                fb.set_terminator(after, Terminator::Jump { target: join });
            } else if i == 2 {
                // Recursive evaluation of a sub-expression.
                let after = call(&mut fb, arm, eval);
                fb.set_terminator(after, Terminator::Jump { target: join });
            } else {
                fb.set_terminator(arm, Terminator::Jump { target: join });
            }
            targets.push(arm);
        }
        fb.set_terminator(
            entry,
            Terminator::Switch {
                targets,
                weights: vec![22, 18, 9, 24, 17, 10],
                cond: vec![Reg::int(1)],
            },
        );
        fill_block(&mut fb, join, &mut rng, 3, mix, &[env], pool());
        let tail = tangle(&mut fb, &mut rng, join, 3, (2, 4), (0.68, 0.86), mix, &[heap], pool());
        fb.set_terminator(tail, Terminator::Return);
        pb.define_function(eval, fb.finish(entry).unwrap());
    }

    // Mark phase of the garbage collector: a pointer-chasing loop.
    let gc_mark = pb.declare_function("gc_mark");
    {
        let mut fb = FunctionBuilder::new("gc_mark");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 3, mix, &[heap], pool());
        let mid = counted_loop(&mut fb, &mut rng, entry, 7, 12, 4, mix, &[heap], pool());
        let cur = diamond(&mut fb, &mut rng, mid, 0.8, (3, 3), mix, &[heap], pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(gc_mark, fb.finish(entry).unwrap());
    }

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 3, mix, &[heap], pool());
    let mut cur = call(&mut fb, head, eval);
    fill_block(&mut fb, cur, &mut rng, 3, mix, &[env], pool());
    // A GC cycle triggers occasionally.
    {
        let gc_b = fb.add_block();
        let skip = fb.add_block();
        fb.set_terminator(
            cur,
            Terminator::Branch {
                taken: gc_b,
                fall: skip,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Taken(0.08),
            },
        );
        let after = call(&mut fb, gc_b, gc_mark);
        fb.set_terminator(after, Terminator::Jump { target: skip });
        cur = skip;
    }
    cur = diamond(&mut fb, &mut rng, cur, 0.88, (3, 3), mix, &[heap], pool());
    close_driver(&mut fb, head, cur, 450, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("li builds a valid program")
}

/// 132.ijpeg — image compression: regular nested loops with multiply-
/// heavy bodies over pixel streams; predictable control flow.
pub fn ijpeg(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let pixels = pb.add_addr_gen(AddrSpec::Stride { base: 0xa0_0000, stride: 8, len: 1 << 12 });
    let coeffs = pb.add_addr_gen(AddrSpec::Stride { base: 0xb0_0000, stride: 8, len: 64 });
    let out = pb.add_addr_gen(AddrSpec::Stride { base: 0xc0_0000, stride: 8, len: 1 << 12 });
    let mix = OpMix { mul: 0.35, ..OpMix::int() };

    // Huffman encoder: symbol dispatch inside a scan loop.
    let huff = pb.declare_function("huffman_encode");
    {
        let mut fb = FunctionBuilder::new("huffman_encode");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 3, mix, &[out], pool());
        let head2 = fb.add_block();
        fb.set_terminator(entry, Terminator::Jump { target: head2 });
        crate::build::push_induction(&mut fb, head2);
        fill_block(&mut fb, head2, &mut rng, 3, mix, &[out], pool());
        let body = dispatch(&mut fb, &mut rng, head2, 4, &[12, 6, 3, 1], 4, mix, &[out], pool());
        let exit2 = fb.add_block();
        fb.set_terminator(
            body,
            Terminator::Branch {
                taken: head2,
                fall: exit2,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Loop { avg_trips: 12, jitter: 0 },
            },
        );
        fb.set_terminator(exit2, Terminator::Return);
        pb.define_function(huff, fb.finish(entry).unwrap());
    }

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 5, mix, &[pixels], pool());
    // The DCT inner loop: a multi-block body (range-check diamond between
    // the two halves), loop-level parallelism.
    let mut cur = crate::build::branchy_loop(
        &mut fb,
        &mut rng,
        head,
        8,
        (4, 4),
        7,
        0.94,
        32,
        0,
        mix,
        &[pixels, coeffs],
        pool(),
    );
    fill_block(&mut fb, cur, &mut rng, 4, mix, &[out], pool());
    // Quantisation pass.
    cur = crate::build::branchy_loop(
        &mut fb,
        &mut rng,
        cur,
        6,
        (3, 3),
        6,
        0.95,
        32,
        0,
        mix,
        &[coeffs, out],
        pool(),
    );
    cur = call(&mut fb, cur, huff);
    cur = diamond(&mut fb, &mut rng, cur, 0.95, (4, 4), mix, &[out], pool());
    close_driver(&mut fb, head, cur, 250, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("ijpeg builds a valid program")
}

/// 134.perl — an interpreter: opcode dispatch over many arms, stack
/// frame traffic, moderately predictable branches, mid-sized helpers.
pub fn perl(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let bytecode = pb.add_addr_gen(AddrSpec::Stride { base: 0xd0_0000, stride: 8, len: 4096 });
    let sv = pb.add_addr_gen(AddrSpec::Indexed { base: 0xe0_0000, len: 1024 });
    let slot = pb.add_addr_gen(AddrSpec::Stack { slot: 1 });
    let mix = OpMix::int();

    let helper = pb.declare_function("sv_setsv");
    {
        let mut fb = FunctionBuilder::new("sv_setsv");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 6, mix, &[sv], pool());
        let cur = diamond(&mut fb, &mut rng, entry, 0.8, (5, 5), mix, &[sv], pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(helper, fb.finish(entry).unwrap());
    }

    // Regex matcher: a backtracking scan with moderate predictability.
    let regex = pb.declare_function("regex_match");
    {
        let mut fb = FunctionBuilder::new("regex_match");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 3, mix, &[sv], pool());
        let cur = crate::build::branchy_loop(
            &mut fb,
            &mut rng,
            entry,
            4,
            (3, 3),
            3,
            0.78,
            8,
            3,
            mix,
            &[sv],
            pool(),
        );
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(regex, fb.finish(entry).unwrap());
    }

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &[bytecode, slot], pool());
    let mut cur = dispatch(
        &mut fb,
        &mut rng,
        head,
        8,
        &[24, 18, 14, 12, 11, 9, 7, 5],
        6,
        mix,
        &[sv, slot],
        pool(),
    );
    fill_block(&mut fb, cur, &mut rng, 3, mix, &[sv], pool());
    cur = call(&mut fb, cur, helper);
    // Pattern matches happen on a fraction of ops.
    {
        let m_b = fb.add_block();
        let skip = fb.add_block();
        fb.set_terminator(
            cur,
            Terminator::Branch {
                taken: m_b,
                fall: skip,
                cond: vec![Reg::int(1)],
                behavior: BranchBehavior::Taken(0.2),
            },
        );
        let after = call(&mut fb, m_b, regex);
        fb.set_terminator(after, Terminator::Jump { target: skip });
        cur = skip;
    }
    cur = tangle(&mut fb, &mut rng, cur, 4, (3, 5), (0.68, 0.85), mix, &[sv], pool());
    close_driver(&mut fb, head, cur, 350, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("perl builds a valid program")
}

/// 147.vortex — an object database: deep call chains into mid-sized,
/// very predictable functions over large index structures.
pub fn vortex(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let index = pb.add_addr_gen(AddrSpec::Indexed { base: 0x100_0000, len: 1 << 11 });
    let objects = pb.add_addr_gen(AddrSpec::Indexed { base: 0x200_0000, len: 1 << 11 });
    let log = pb.add_addr_gen(AddrSpec::Stride { base: 0x300_0000, stride: 8, len: 1 << 12 });
    let mems = [index, objects, log];
    let mix = OpMix::int();

    let wrap = pb.declare_function("mem_get");
    {
        let mut r2 = SplitMix64::seed_from_u64(seed ^ 4);
        pb.define_function(wrap, leaf_function("mem_get", &mut r2, 6, mix, &[objects], pool()));
    }

    let mut ops = Vec::new();
    for (i, name) in ["db_insert", "db_lookup", "db_delete"].iter().enumerate() {
        let f = pb.declare_function(*name);
        let mut fb = FunctionBuilder::new(*name);
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 7, mix, &mems, pool());
        let mut cur = entry;
        for _ in 0..3 {
            cur = diamond(&mut fb, &mut rng, cur, 0.965, (6, 4), mix, &mems, pool());
            fill_block(&mut fb, cur, &mut rng, 5, mix, &mems, pool());
        }
        cur = call(&mut fb, cur, wrap);
        fill_block(&mut fb, cur, &mut rng, 4 + i, mix, &mems, pool());
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(f, fb.finish(entry).unwrap());
        ops.push(f);
    }

    // Transaction commit: flush the log, very predictable.
    let commit = pb.declare_function("db_commit");
    {
        let mut fb = FunctionBuilder::new("db_commit");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 5, mix, &[log], pool());
        let mid = counted_loop(&mut fb, &mut rng, entry, 6, 6, 0, mix, &[log], pool());
        fb.set_terminator(mid, Terminator::Return);
        pb.define_function(commit, fb.finish(entry).unwrap());
    }

    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &mems, pool());
    let mut cur = head;
    for &f in &ops {
        cur = call(&mut fb, cur, f);
        fill_block(&mut fb, cur, &mut rng, 3, mix, &[log], pool());
    }
    cur = call(&mut fb, cur, commit);
    cur = diamond(&mut fb, &mut rng, cur, 0.97, (3, 3), mix, &[log], pool());
    close_driver(&mut fb, head, cur, 220, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("vortex builds a valid program")
}
