//! A lossless textual format for programs: write with [`write_program`],
//! read back with [`parse_program`]. Unlike the `Display` listing (which
//! is for humans), this format round-trips every detail — branch
//! behaviour models, switch weights, condition registers, address
//! generators — so programs can live in files, diffs and golden tests.
//!
//! # Grammar (by example)
//!
//! ```text
//! program entry @main
//!
//! gen g0 = global 0x1000
//! gen g1 = stride 0x2000 8 512
//! gen g2 = indexed 0x3000 64
//! gen g3 = stack 2
//!
//! fn main {
//!   entry b0
//!   block b0 {
//!     imov r1
//!     load r2 <- r1 [g1]
//!     iadd r3 <- r2, r2
//!     branch b1 b0 cond r3 loop 30 2
//!   }
//!   block b1 {
//!     halt
//!   }
//! }
//! ```
//!
//! Terminators: `jump bN` · `branch bT bF [cond r..] (taken P | pattern
//! 10… | loop AVG JITTER)` · `switch b.. weights w.. [cond r..]` ·
//! `call @name ret bN` · `return` · `halt`. Instruction operands:
//! `op [rD <-] [rS, rS] [gN]`.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::block::{BranchBehavior, Terminator};
use crate::builder::{FunctionBuilder, ProgramBuilder};
use crate::inst::{Inst, Opcode, MAX_SRCS};
use crate::mem::AddrSpec;
use crate::program::{BlockId, FuncId, Program};
use crate::reg::{Reg, RegClass, NUM_FP_REGS, NUM_INT_REGS};

/// Serialises `program` into the textual format.
pub fn write_program(program: &Program) -> String {
    let _prof = ms_prof::span("ir.write");
    let mut out = String::new();
    let fname = |f: FuncId| program.function(f).name().to_string();
    let _ = writeln!(out, "program entry @{}", fname(program.entry()));
    if !program.addr_gens().is_empty() {
        out.push('\n');
    }
    for (i, g) in program.addr_gens().iter().enumerate() {
        let _ = match g {
            AddrSpec::Global { addr } => writeln!(out, "gen g{i} = global {addr:#x}"),
            AddrSpec::Stride { base, stride, len } => {
                writeln!(out, "gen g{i} = stride {base:#x} {stride} {len}")
            }
            AddrSpec::Indexed { base, len } => writeln!(out, "gen g{i} = indexed {base:#x} {len}"),
            AddrSpec::Stack { slot } => writeln!(out, "gen g{i} = stack {slot}"),
        };
    }
    for f in program.func_ids() {
        let func = program.function(f);
        let _ = writeln!(out, "\nfn {} {{", func.name());
        let _ = writeln!(out, "  entry b{}", func.entry().index());
        for b in func.block_ids() {
            let blk = func.block(b);
            let _ = writeln!(out, "  block b{} {{", b.index());
            for inst in blk.insts() {
                out.push_str("    ");
                out.push_str(&inst_to_line(inst));
                out.push('\n');
            }
            out.push_str("    ");
            out.push_str(&term_to_line(blk.terminator(), &fname));
            out.push('\n');
            let _ = writeln!(out, "  }}");
        }
        let _ = writeln!(out, "}}");
    }
    out
}

fn reg_name(r: Reg) -> String {
    match r.class() {
        RegClass::Int => format!("r{}", r.index()),
        RegClass::Fp => format!("f{}", r.index()),
    }
}

fn inst_to_line(inst: &Inst) -> String {
    let mut s = inst.opcode().to_string();
    if let Some(d) = inst.dst_reg() {
        let _ = write!(s, " {} <-", reg_name(d));
    }
    for (i, &src) in inst.srcs().iter().enumerate() {
        let sep = if i == 0 { " " } else { ", " };
        let _ = write!(s, "{sep}{}", reg_name(src));
    }
    if let Some(g) = inst.mem_ref() {
        let _ = write!(s, " [g{}]", g.index());
    }
    s
}

fn term_to_line(term: &Terminator, fname: &dyn Fn(FuncId) -> String) -> String {
    match term {
        Terminator::Jump { target } => format!("jump b{}", target.index()),
        Terminator::Branch { taken, fall, cond, behavior } => {
            let mut s = format!("branch b{} b{}", taken.index(), fall.index());
            if !cond.is_empty() {
                s.push_str(" cond");
                for (i, &r) in cond.iter().enumerate() {
                    s.push_str(if i == 0 { " " } else { ", " });
                    s.push_str(&reg_name(r));
                }
            }
            match behavior {
                BranchBehavior::Taken(p) => {
                    let _ = write!(s, " taken {p}");
                }
                BranchBehavior::Pattern(v) => {
                    s.push_str(" pattern ");
                    for &b in v {
                        s.push(if b { '1' } else { '0' });
                    }
                }
                BranchBehavior::Loop { avg_trips, jitter } => {
                    let _ = write!(s, " loop {avg_trips} {jitter}");
                }
            }
            s
        }
        Terminator::Switch { targets, weights, cond } => {
            let mut s = "switch".to_string();
            for t in targets {
                let _ = write!(s, " b{}", t.index());
            }
            s.push_str(" weights");
            for w in weights {
                let _ = write!(s, " {w}");
            }
            if !cond.is_empty() {
                s.push_str(" cond");
                for (i, &r) in cond.iter().enumerate() {
                    s.push_str(if i == 0 { " " } else { ", " });
                    s.push_str(&reg_name(r));
                }
            }
            s
        }
        Terminator::Call { callee, ret_to } => {
            format!("call @{} ret b{}", fname(*callee), ret_to.index())
        }
        Terminator::Return => "return".to_string(),
        Terminator::Halt => "halt".to_string(),
    }
}

/// Error produced while parsing the textual format.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    let (class, rest) = match tok.as_bytes().first() {
        Some(b'r') => (RegClass::Int, &tok[1..]),
        Some(b'f') => (RegClass::Fp, &tok[1..]),
        _ => return err(line, format!("expected register, got `{tok}`")),
    };
    let idx: u8 = rest
        .parse()
        .map_err(|_| ParseError { line, message: format!("bad register index in `{tok}`") })?;
    let limit = match class {
        RegClass::Int => NUM_INT_REGS,
        RegClass::Fp => NUM_FP_REGS,
    };
    if idx >= limit {
        return err(line, format!("register `{tok}` out of range (0..{limit})"));
    }
    Ok(match class {
        RegClass::Int => Reg::int(idx),
        RegClass::Fp => Reg::fp(idx),
    })
}

fn parse_block_id(tok: &str, line: usize) -> Result<BlockId, ParseError> {
    let Some(rest) = tok.strip_prefix('b') else {
        return err(line, format!("expected block id, got `{tok}`"));
    };
    let idx: u32 =
        rest.parse().map_err(|_| ParseError { line, message: format!("bad block id `{tok}`") })?;
    Ok(BlockId::new(idx))
}

fn parse_u64(tok: &str, line: usize) -> Result<u64, ParseError> {
    let parsed = if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    parsed.map_err(|_| ParseError { line, message: format!("bad number `{tok}`") })
}

fn parse_opcode(tok: &str, line: usize) -> Result<Opcode, ParseError> {
    use Opcode::*;
    Ok(match tok {
        "iadd" => IAdd,
        "ilogic" => ILogic,
        "ishift" => IShift,
        "imul" => IMul,
        "idiv" => IDiv,
        "imov" => IMov,
        "load" => Load,
        "store" => Store,
        "fadd" => FAdd,
        "fmul" => FMul,
        "fdiv" => FDiv,
        "fmov" => FMov,
        "fload" => FLoad,
        "fstore" => FStore,
        other => return err(line, format!("unknown opcode `{other}`")),
    })
}

/// Parses the textual format back into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number for syntax problems, and
/// wraps [`BuildError`](crate::BuildError)s from program assembly.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let _prof = ms_prof::span("ir.parse");
    // Pass 1: collect function names (so calls can forward-reference)
    // and the entry name.
    let mut entry_name: Option<String> = None;
    let mut fn_names: Vec<String> = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["program", "entry", name] => {
                let Some(name) = name.strip_prefix('@') else {
                    return err(ln + 1, "entry name must start with @");
                };
                entry_name = Some(name.to_string());
            }
            ["fn", name, "{"] => fn_names.push((*name).to_string()),
            _ => {}
        }
    }
    let Some(entry_name) = entry_name else {
        return err(0, "missing `program entry @name` header");
    };
    let mut pb = ProgramBuilder::new();
    let mut fids: HashMap<String, FuncId> = HashMap::new();
    for name in &fn_names {
        if fids.contains_key(name) {
            return err(0, format!("duplicate function `{name}`"));
        }
        fids.insert(name.clone(), pb.declare_function(name.clone()));
    }
    let Some(&entry_fid) = fids.get(&entry_name) else {
        return err(0, format!("entry function `{entry_name}` not defined"));
    };

    // Pass 2: generators and function bodies.
    enum St {
        Top,
        InFn {
            name: String,
            fb: FunctionBuilder,
            entry: Option<BlockId>,
        },
        InBlock {
            name: String,
            fb: FunctionBuilder,
            entry: Option<BlockId>,
            blk: BlockId,
            terminated: bool,
        },
    }
    let mut st = St::Top;
    let mut gen_count = 0usize;
    for (ln0, raw) in text.lines().enumerate() {
        let ln = ln0 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> =
            line.split(|c: char| c.is_whitespace() || c == ',').filter(|t| !t.is_empty()).collect();
        match st {
            St::Top => match toks.as_slice() {
                ["program", "entry", _] => {}
                ["gen", g, "=", kind, rest @ ..] => {
                    if *g != format!("g{gen_count}") {
                        return err(ln, format!("generators must be dense: expected g{gen_count}"));
                    }
                    let spec = match (*kind, rest) {
                        ("global", [addr]) => AddrSpec::Global { addr: parse_u64(addr, ln)? },
                        ("stride", [base, stride, len]) => AddrSpec::Stride {
                            base: parse_u64(base, ln)?,
                            stride: stride.parse().map_err(|_| ParseError {
                                line: ln,
                                message: format!("bad stride `{stride}`"),
                            })?,
                            len: parse_u64(len, ln)?,
                        },
                        ("indexed", [base, len]) => AddrSpec::Indexed {
                            base: parse_u64(base, ln)?,
                            len: parse_u64(len, ln)?,
                        },
                        ("stack", [slot]) => AddrSpec::Stack { slot: parse_u64(slot, ln)? as u32 },
                        _ => return err(ln, format!("bad generator spec `{line}`")),
                    };
                    pb.add_addr_gen(spec);
                    gen_count += 1;
                }
                ["fn", name, "{"] => {
                    st = St::InFn {
                        name: (*name).to_string(),
                        fb: FunctionBuilder::new(*name),
                        entry: None,
                    };
                }
                _ => return err(ln, format!("unexpected top-level line `{line}`")),
            },
            St::InFn { name, mut fb, entry } => match toks.as_slice() {
                ["entry", b] => {
                    let e = parse_block_id(b, ln)?;
                    st = St::InFn { name, fb, entry: Some(e) };
                }
                ["block", b, "{"] => {
                    let blk = parse_block_id(b, ln)?;
                    while fb.num_blocks() <= blk.index() {
                        fb.add_block();
                    }
                    st = St::InBlock { name, fb, entry, blk, terminated: false };
                }
                ["}"] => {
                    let Some(e) = entry else { return err(ln, "function missing `entry`") };
                    let func = fb.finish(e).map_err(|e| ParseError {
                        line: ln,
                        message: format!("invalid function `{name}`: {e}"),
                    })?;
                    pb.define_function(fids[&name], func);
                    st = St::Top;
                }
                _ => return err(ln, format!("unexpected line in fn `{line}`")),
            },
            St::InBlock { name, mut fb, entry, blk, terminated } => match toks.as_slice() {
                ["}"] => {
                    if !terminated {
                        return err(ln, format!("block b{} has no terminator", blk.index()));
                    }
                    st = St::InFn { name, fb, entry };
                }
                toks => {
                    if terminated {
                        return err(ln, "instruction after terminator");
                    }
                    let done = parse_block_line(toks, ln, &mut fb, blk, &fids)?;
                    st = St::InBlock { name, fb, entry, blk, terminated: done };
                }
            },
        }
    }
    if !matches!(st, St::Top) {
        return err(text.lines().count(), "unexpected end of input (unclosed block?)");
    }
    pb.finish(entry_fid)
        .map_err(|e| ParseError { line: 0, message: format!("invalid program: {e}") })
}

/// Parses one instruction-or-terminator line; returns `true` when the
/// line terminated the block.
fn parse_block_line(
    toks: &[&str],
    ln: usize,
    fb: &mut FunctionBuilder,
    blk: BlockId,
    fids: &HashMap<String, FuncId>,
) -> Result<bool, ParseError> {
    match toks[0] {
        "jump" => {
            let [_, t] = toks else { return err(ln, "jump takes one target") };
            fb.set_terminator(blk, Terminator::Jump { target: parse_block_id(t, ln)? });
            Ok(true)
        }
        "branch" => {
            if toks.len() < 3 {
                return err(ln, "branch needs two targets");
            }
            let taken = parse_block_id(toks[1], ln)?;
            let fall = parse_block_id(toks[2], ln)?;
            let mut i = 3;
            let mut cond = Vec::new();
            if toks.get(i) == Some(&"cond") {
                i += 1;
                while i < toks.len() && (toks[i].starts_with('r') || toks[i].starts_with('f')) {
                    cond.push(parse_reg(toks[i], ln)?);
                    i += 1;
                }
            }
            let behavior = match toks.get(i) {
                Some(&"taken") => {
                    let p: f64 = toks
                        .get(i + 1)
                        .ok_or_else(|| ParseError { line: ln, message: "taken needs P".into() })?
                        .parse()
                        .map_err(|_| ParseError { line: ln, message: "bad probability".into() })?;
                    BranchBehavior::Taken(p)
                }
                Some(&"pattern") => {
                    let pat = toks.get(i + 1).ok_or_else(|| ParseError {
                        line: ln,
                        message: "pattern needs bits".into(),
                    })?;
                    BranchBehavior::Pattern(pat.chars().map(|c| c == '1').collect())
                }
                Some(&"loop") => {
                    let avg: u32 = toks
                        .get(i + 1)
                        .ok_or_else(|| ParseError { line: ln, message: "loop needs AVG".into() })?
                        .parse()
                        .map_err(|_| ParseError { line: ln, message: "bad trip count".into() })?;
                    let jitter: u32 = toks
                        .get(i + 2)
                        .map(|t| t.parse())
                        .transpose()
                        .map_err(|_| ParseError { line: ln, message: "bad jitter".into() })?
                        .unwrap_or(0);
                    BranchBehavior::Loop { avg_trips: avg, jitter }
                }
                other => {
                    return err(ln, format!("branch needs a behaviour, got {other:?}"));
                }
            };
            fb.set_terminator(blk, Terminator::Branch { taken, fall, cond, behavior });
            Ok(true)
        }
        "switch" => {
            let mut i = 1;
            let mut targets = Vec::new();
            while i < toks.len() && toks[i].starts_with('b') {
                targets.push(parse_block_id(toks[i], ln)?);
                i += 1;
            }
            if toks.get(i) != Some(&"weights") {
                return err(ln, "switch needs `weights`");
            }
            i += 1;
            let mut weights = Vec::new();
            while i < toks.len() && toks[i].chars().all(|c| c.is_ascii_digit()) {
                weights.push(
                    toks[i]
                        .parse()
                        .map_err(|_| ParseError { line: ln, message: "bad weight".into() })?,
                );
                i += 1;
            }
            let mut cond = Vec::new();
            if toks.get(i) == Some(&"cond") {
                i += 1;
                while i < toks.len() {
                    cond.push(parse_reg(toks[i], ln)?);
                    i += 1;
                }
            }
            fb.set_terminator(blk, Terminator::Switch { targets, weights, cond });
            Ok(true)
        }
        "call" => {
            let [_, callee, "ret", ret_to] = toks else {
                return err(ln, "call syntax: call @name ret bN");
            };
            let Some(callee) = callee.strip_prefix('@') else {
                return err(ln, "callee must start with @");
            };
            let Some(&fid) = fids.get(callee) else {
                return err(ln, format!("unknown callee `{callee}`"));
            };
            fb.set_terminator(
                blk,
                Terminator::Call { callee: fid, ret_to: parse_block_id(ret_to, ln)? },
            );
            Ok(true)
        }
        "return" => {
            fb.set_terminator(blk, Terminator::Return);
            Ok(true)
        }
        "halt" => {
            fb.set_terminator(blk, Terminator::Halt);
            Ok(true)
        }
        op => {
            let opcode = parse_opcode(op, ln)?;
            let mut inst = Inst::new(opcode);
            let mut i = 1;
            if toks.get(i + 1) == Some(&"<-") {
                inst = inst.dst(parse_reg(toks[i], ln)?);
                i += 2;
            }
            while i < toks.len() && (toks[i].starts_with('r') || toks[i].starts_with('f')) {
                if inst.srcs().len() == MAX_SRCS {
                    return err(ln, format!("an instruction reads at most {MAX_SRCS} registers"));
                }
                inst = inst.src(parse_reg(toks[i], ln)?);
                i += 1;
            }
            if let Some(tok) = toks.get(i) {
                let Some(g) = tok.strip_prefix("[g").and_then(|t| t.strip_suffix(']')) else {
                    return err(ln, format!("unexpected operand `{tok}`"));
                };
                let idx: u32 = g
                    .parse()
                    .map_err(|_| ParseError { line: ln, message: "bad generator ref".into() })?;
                inst = inst.mem(crate::mem::AddrGenId::new(idx));
            }
            fb.push_inst(blk, inst);
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r"
program entry @main

gen g0 = global 0x1000
gen g1 = stride 0x2000 8 512

fn main {
  entry b0
  block b0 {
    imov r1 <-
    load r2 <- r1 [g1]
    fadd f3 <- f2, f1
    branch b1 b0 cond r2 loop 30 2
  }
  block b1 {
    call @leaf ret b2
  }
  block b2 {
    store r2, r1 [g0]
    halt
  }
}

fn leaf {
  entry b0
  block b0 {
    imul r4 <- r2, r2
    return
  }
}
";

    #[test]
    fn sample_parses_and_validates() {
        let p = parse_program(SAMPLE).expect("sample parses");
        assert_eq!(p.num_functions(), 2);
        assert_eq!(p.addr_gens().len(), 2);
        assert!(p.validate().is_ok());
        let main = p.function(p.entry());
        assert_eq!(main.num_blocks(), 3);
        assert_eq!(main.block(BlockId::new(0)).insts().len(), 3);
        assert!(matches!(
            main.block(BlockId::new(0)).terminator(),
            Terminator::Branch { behavior: BranchBehavior::Loop { avg_trips: 30, jitter: 2 }, .. }
        ));
    }

    #[test]
    fn write_then_parse_round_trips() {
        let p = parse_program(SAMPLE).unwrap();
        let text = write_program(&p);
        let q = parse_program(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(p, q);
    }

    #[test]
    fn workload_style_programs_round_trip() {
        // Build something with every terminator kind and reparse.
        use crate::block::Terminator as T;
        use crate::builder::{FunctionBuilder, ProgramBuilder};
        let mut pb = ProgramBuilder::new();
        let g = pb.add_addr_gen(AddrSpec::Indexed { base: 0x8000, len: 32 });
        let m = pb.declare_function("main");
        let mut fb = FunctionBuilder::new("main");
        let b0 = fb.add_block();
        let b1 = fb.add_block();
        let b2 = fb.add_block();
        let b3 = fb.add_block();
        fb.push_inst(b0, Opcode::Load.inst().dst(Reg::int(1)).mem(g));
        fb.set_terminator(
            b0,
            T::Switch {
                targets: vec![b1, b2, b1],
                weights: vec![3, 2, 1],
                cond: vec![Reg::int(1)],
            },
        );
        fb.set_terminator(
            b1,
            T::Branch {
                taken: b3,
                fall: b2,
                cond: vec![Reg::int(1), Reg::fp(2)],
                behavior: BranchBehavior::Pattern(vec![true, false, true]),
            },
        );
        fb.set_terminator(b2, T::Jump { target: b3 });
        fb.set_terminator(b3, T::Halt);
        pb.define_function(m, fb.finish(b0).unwrap());
        let p = pb.finish(m).unwrap();
        let q = parse_program(&write_program(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad =
            "program entry @main\n\nfn main {\n  entry b0\n  block b0 {\n    frob r1\n  }\n}\n";
        let e = parse_program(bad).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.to_string().contains("frob"));
    }

    #[test]
    fn out_of_range_registers_are_errors_with_line_numbers() {
        let program = |inst: &str| {
            format!("program entry @main\n\nfn main {{\n  entry b0\n  block b0 {{\n    {inst}\n    halt\n  }}\n}}\n")
        };
        for inst in ["iadd r32 <- r1, r1", "iadd r1 <- r1, r99", "fadd f1 <- f32, f1"] {
            let e = parse_program(&program(inst)).unwrap_err();
            assert_eq!(e.line, 6, "{inst}: {e}");
            assert!(e.message.contains("out of range"), "{inst}: {e}");
        }
        for inst in ["iadd r31 <- r0, r31", "fadd f31 <- f0, f31"] {
            parse_program(&program(inst)).unwrap_or_else(|e| panic!("{inst}: {e}"));
        }
    }

    /// A fourth register on a `cond` list or an instruction is a parse
    /// error, not a panic (the instruction's carries its line); three
    /// parse.
    #[test]
    fn a_fourth_register_is_an_error() {
        let program = |line: &str| {
            format!("program entry @main\n\nfn main {{\n  entry b0\n  block b0 {{\n    {line}\n  }}\n  block b1 {{\n    halt\n  }}\n}}\n")
        };
        let three = ["branch b1 b1 cond r1 r2 r3 taken 0.5", "switch b1 weights 1 cond r1 r2 f3"];
        for line in three {
            parse_program(&program(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let four =
            ["branch b1 b1 cond r1 r2 r3 r4 taken 0.5", "switch b1 weights 1 cond r1 r2 f3 r4"];
        for line in four {
            let e = parse_program(&program(line)).unwrap_err();
            assert!(e.message.contains("more than 3 condition registers"), "{line}: {e}");
        }
        let e = parse_program(&program("iadd r1 <- r1, r2, r3, r4\n    jump b1")).unwrap_err();
        assert_eq!(e.line, 6, "{e}");
        assert!(e.message.contains("at most 3"), "{e}");
        parse_program(&program("iadd r1 <- r1, r2, r3\n    jump b1")).unwrap();
    }

    #[test]
    fn missing_terminator_is_reported() {
        let bad =
            "program entry @main\n\nfn main {\n  entry b0\n  block b0 {\n    imov r1 <-\n  }\n}\n";
        let e = parse_program(bad).unwrap_err();
        assert!(e.message.contains("no terminator"), "{e}");
    }

    #[test]
    fn unknown_callee_is_reported() {
        let bad = "program entry @main\n\nfn main {\n  entry b0\n  block b0 {\n    call @ghost ret b0\n  }\n}\n";
        let e = parse_program(bad).unwrap_err();
        assert!(e.message.contains("ghost"), "{e}");
    }
}
