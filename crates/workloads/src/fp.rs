//! The ten SPECfp95-shaped synthetic benchmarks.
//!
//! Floating point personalities per the paper: large basic blocks
//! (> 20 instructions except 104.hydro2d), regular counted loop nests
//! over strided array streams, highly predictable control flow —
//! which is why the heuristics extract more parallelism here than on
//! the integer suite (Figure 5) and why FP window spans reach 250–800
//! (Table 1). 145.fpppp is the outlier: enormous straight-line blocks
//! with tiny utility calls, responding to the task-size heuristic.

use ms_ir::{
    AddrGenId, AddrSpec, BranchBehavior, FunctionBuilder, Program, ProgramBuilder, Reg, SplitMix64,
    Terminator,
};

use crate::build::{
    branchy_loop, call, close_driver, diamond, fill_block, leaf_function, open_driver, OpMix,
    RegPool,
};

fn pool() -> RegPool {
    // FP kernels enjoy a wide register window (compiler-scheduled ILP).
    RegPool { int_lo: 2, int_hi: 28, fp_lo: 2, fp_hi: 28 }
}

/// The driver loop's trip-count jitter is `trips / DRIVER_JITTER`.
const DRIVER_JITTER: u32 = 10;

/// Declares `n` disjoint strided array streams.
fn streams(pb: &mut ProgramBuilder, n: usize, elems: u64) -> Vec<AddrGenId> {
    (0..n)
        .map(|i| {
            pb.add_addr_gen(AddrSpec::Stride {
                base: 0x1000_0000 + (i as u64) * 0x100_0000,
                stride: 8,
                len: elems,
            })
        })
        .collect()
}

/// A generic stencil/mesh kernel: driver loop around `inner` counted
/// loops with large bodies over `n_streams` streams.
#[allow(clippy::too_many_arguments)]
fn mesh_kernel(
    name: &str,
    seed: u64,
    n_streams: usize,
    stream_elems: u64,
    inner_loops: usize,
    body_size: usize,
    inner_trips: u32,
    outer_trips: u32,
    p_diamond: Option<f64>,
) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mems = streams(&mut pb, n_streams, stream_elems);
    let mix = OpMix::fp();
    let main = pb.declare_function("main");
    let _ = name;
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &mems, pool());
    let mut cur = head;
    for i in 0..inner_loops {
        let m = [mems[i % n_streams], mems[(i + 1) % n_streams]];
        // Loop bodies span several blocks (a boundary-condition diamond
        // between two big straight-line halves), as in Fortran kernels.
        let h = (body_size * 2) / 5;
        let a = (body_size / 5).max(1);
        let l = body_size.saturating_sub(h + a).max(1);
        cur = branchy_loop(
            &mut fb,
            &mut rng,
            cur,
            h,
            (a, a),
            l,
            0.97,
            inner_trips,
            0,
            mix,
            &m,
            pool(),
        );
        fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
    }
    if let Some(p) = p_diamond {
        cur = diamond(&mut fb, &mut rng, cur, p, (6, 6), mix, &mems, pool());
    }
    close_driver(&mut fb, head, cur, outer_trips, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("mesh kernel builds a valid program")
}

/// 101.tomcatv — mesh generation: two big stencil loops per timestep.
pub fn tomcatv(seed: u64) -> Program {
    mesh_kernel("tomcatv", seed, 6, 1 << 9, 2, 70, 60, 120, None)
}

/// 102.swim — shallow water model: three stencil sweeps per timestep.
pub fn swim(seed: u64) -> Program {
    mesh_kernel("swim", seed, 6, 1 << 9, 3, 60, 80, 100, None)
}

/// 103.su2cor — quantum physics: stencil loops plus a mid-sized FP
/// routine called per timestep.
pub fn su2cor(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mems = streams(&mut pb, 5, 1 << 9);
    let mix = OpMix::fp();
    let gauge = pb.declare_function("gauge_update");
    {
        let mut r2 = SplitMix64::seed_from_u64(seed ^ 5);
        pb.define_function(
            gauge,
            leaf_function("gauge_update", &mut r2, 48, mix, &[mems[0], mems[1]], pool()),
        );
    }
    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 5, mix, &mems, pool());
    let mut cur = branchy_loop(
        &mut fb,
        &mut rng,
        head,
        20,
        (10, 10),
        20,
        0.97,
        50,
        0,
        mix,
        &[mems[2], mems[3]],
        pool(),
    );
    cur = call(&mut fb, cur, gauge);
    fill_block(&mut fb, cur, &mut rng, 4, mix, &mems, pool());
    cur = branchy_loop(
        &mut fb,
        &mut rng,
        cur,
        18,
        (9, 9),
        18,
        0.98,
        40,
        0,
        mix,
        &[mems[3], mems[4]],
        pool(),
    );
    close_driver(&mut fb, head, cur, 90, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("su2cor builds a valid program")
}

/// 104.hydro2d — hydrodynamics: the FP outlier with *small* basic
/// blocks (paper: < 20 instructions per bb task).
pub fn hydro2d(seed: u64) -> Program {
    mesh_kernel("hydro2d", seed, 6, 1 << 9, 4, 24, 60, 110, Some(0.97))
}

/// 107.mgrid — multigrid solver: deep loop nest, very regular.
pub fn mgrid(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mems = streams(&mut pb, 4, 1 << 9);
    let mix = OpMix::fp();
    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 3, mix, &mems, pool());
    // Nested: mid loop contains the hot innermost stencil.
    let mid_head = fb.add_block();
    fb.set_terminator(head, Terminator::Jump { target: mid_head });
    fill_block(&mut fb, mid_head, &mut rng, 4, mix, &mems, pool());
    let inner_exit = branchy_loop(
        &mut fb,
        &mut rng,
        mid_head,
        22,
        (10, 10),
        22,
        0.98,
        30,
        0,
        mix,
        &[mems[0], mems[1]],
        pool(),
    );
    fill_block(&mut fb, inner_exit, &mut rng, 3, mix, &[mems[2]], pool());
    let mid_exit = fb.add_block();
    fb.set_terminator(
        inner_exit,
        Terminator::Branch {
            taken: mid_head,
            fall: mid_exit,
            cond: vec![Reg::int(1)],
            behavior: BranchBehavior::exact_loop(8),
        },
    );
    fill_block(&mut fb, mid_exit, &mut rng, 3, mix, &[mems[3]], pool());
    close_driver(&mut fb, head, mid_exit, 40, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("mgrid builds a valid program")
}

/// 110.applu — PDE solver: big-bodied loops, a rare boundary condition
/// branch, and a per-timestep Jacobi block solve.
pub fn applu(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mems = streams(&mut pb, 5, 1 << 9);
    let mix = OpMix::fp();
    let jacobi = pb.declare_function("jacobi_sweep");
    {
        let mut r2 = SplitMix64::seed_from_u64(seed ^ 8);
        pb.define_function(
            jacobi,
            leaf_function("jacobi_sweep", &mut r2, 44, mix, &[mems[0], mems[1]], pool()),
        );
    }
    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &mems, pool());
    let mut cur = branchy_loop(
        &mut fb,
        &mut rng,
        head,
        25,
        (13, 13),
        26,
        0.98,
        35,
        0,
        mix,
        &[mems[1], mems[2]],
        pool(),
    );
    cur = call(&mut fb, cur, jacobi);
    fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
    cur = branchy_loop(
        &mut fb,
        &mut rng,
        cur,
        25,
        (13, 13),
        26,
        0.98,
        35,
        0,
        mix,
        &[mems[3], mems[4]],
        pool(),
    );
    cur = diamond(&mut fb, &mut rng, cur, 0.98, (6, 6), mix, &mems, pool());
    close_driver(&mut fb, head, cur, 120, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("applu builds a valid program")
}

/// 125.turb3d — turbulence: FFT-like routines called from the timestep
/// loop.
pub fn turb3d(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mems = streams(&mut pb, 4, 1 << 9);
    let mix = OpMix::fp();
    let fft = pb.declare_function("fft_pass");
    {
        let mut fb = FunctionBuilder::new("fft_pass");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 6, mix, &[mems[0]], pool());
        let cur = branchy_loop(
            &mut fb,
            &mut rng,
            entry,
            16,
            (8, 8),
            16,
            0.97,
            16,
            0,
            mix,
            &[mems[0], mems[1]],
            pool(),
        );
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(fft, fb.finish(entry).unwrap());
    }
    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &mems, pool());
    let mut cur = call(&mut fb, head, fft);
    fill_block(&mut fb, cur, &mut rng, 4, mix, &[mems[2]], pool());
    cur = call(&mut fb, cur, fft);
    cur = branchy_loop(
        &mut fb,
        &mut rng,
        cur,
        14,
        (7, 7),
        14,
        0.97,
        24,
        0,
        mix,
        &[mems[2], mems[3]],
        pool(),
    );
    close_driver(&mut fb, head, cur, 80, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("turb3d builds a valid program")
}

/// 141.apsi — weather: many sequential moderate loops plus a radiation
/// routine called per timestep.
pub fn apsi(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mems = streams(&mut pb, 6, 1 << 9);
    let mix = OpMix::fp();
    let radiation = pb.declare_function("radiation");
    {
        let mut fb = FunctionBuilder::new("radiation");
        let entry = fb.add_block();
        fill_block(&mut fb, entry, &mut rng, 5, mix, &[mems[0]], pool());
        let cur = branchy_loop(
            &mut fb,
            &mut rng,
            entry,
            12,
            (6, 6),
            12,
            0.97,
            14,
            0,
            mix,
            &[mems[0], mems[5]],
            pool(),
        );
        fb.set_terminator(cur, Terminator::Return);
        pb.define_function(radiation, fb.finish(entry).unwrap());
    }
    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &mems, pool());
    let mut cur = head;
    for i in 0..4 {
        let m = [mems[i % 6], mems[(i + 1) % 6]];
        cur = branchy_loop(&mut fb, &mut rng, cur, 14, (7, 7), 15, 0.97, 25, 0, mix, &m, pool());
        fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
    }
    cur = call(&mut fb, cur, radiation);
    cur = diamond(&mut fb, &mut rng, cur, 0.97, (6, 6), mix, &mems, pool());
    close_driver(&mut fb, head, cur, 80, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("apsi builds a valid program")
}

/// 145.fpppp — quantum chemistry: enormous straight-line blocks with
/// tiny utility calls; the paper's second task-size-heuristic responder.
pub fn fpppp(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mems = streams(&mut pb, 4, 1 << 9);
    let mix = OpMix { load: 0.16, store: 0.06, ..OpMix::fp() };
    // Three tiny utility routines called at high frequency: without the
    // task-size heuristic every call and return is a task boundary;
    // with CALL_THRESH inclusion the straight-line segments fuse into
    // fpppp's famous giant tasks.
    let mut utils = Vec::new();
    for (i, n) in [6usize, 7, 5].iter().enumerate() {
        let f = pb.declare_function(format!("util{i}"));
        let mut r2 = SplitMix64::seed_from_u64(seed ^ (6 + i as u64));
        pb.define_function(
            f,
            leaf_function(&format!("util{i}"), &mut r2, *n, mix, &[mems[0]], pool()),
        );
        utils.push(f);
    }
    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 14, mix, &mems, pool());
    let mut cur = head;
    for seg in 0..8 {
        cur = call(&mut fb, cur, utils[seg % utils.len()]);
        fill_block(&mut fb, cur, &mut rng, 14, mix, &mems, pool());
    }
    close_driver(&mut fb, head, cur, 60, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("fpppp builds a valid program")
}

/// 146.wave5 — plasma physics: particle loops with a gather/scatter
/// component (the FP benchmark with real memory dependences).
pub fn wave5(seed: u64) -> Program {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new();
    let mut mems = streams(&mut pb, 4, 1 << 9);
    let grid = pb.add_addr_gen(AddrSpec::Indexed { base: 0x5000_0000, len: 4096 });
    mems.push(grid);
    let mix = OpMix::fp();
    let main = pb.declare_function("main");
    let (mut fb, entry, head) = open_driver();
    fill_block(&mut fb, head, &mut rng, 4, mix, &mems, pool());
    // Particle push (streams) then charge deposit (scatter to grid).
    let mut cur = branchy_loop(
        &mut fb,
        &mut rng,
        head,
        20,
        (10, 10),
        20,
        0.97,
        50,
        0,
        mix,
        &[mems[0], mems[1]],
        pool(),
    );
    fill_block(&mut fb, cur, &mut rng, 3, mix, &mems, pool());
    cur = branchy_loop(
        &mut fb,
        &mut rng,
        cur,
        16,
        (8, 8),
        16,
        0.97,
        40,
        0,
        mix,
        &[mems[2], grid],
        pool(),
    );
    close_driver(&mut fb, head, cur, 90, DRIVER_JITTER);
    pb.define_function(main, fb.finish(entry).unwrap());
    pb.finish(main).expect("wave5 builds a valid program")
}
