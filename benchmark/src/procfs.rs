//! Running one `run` invocation as a black box and measuring it from
//! `/proc`: wall time, child CPU time and peak resident set, with the
//! host probe running beside it.

use std::fs::{self, File};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::probe::{self, Probe, Readings};

/// Clock ticks per second of the `/proc/*/stat` time fields. Linux
/// fixes this user-visible rate (`USER_HZ`) at 100.
const CLK_TCK: f64 = 100.0;

/// How often the child's `VmHWM` is sampled and the host probed.
const POLL: Duration = Duration::from_millis(5);

/// `VmHWM` (peak resident set, KiB) from a `/proc/<pid>/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.split_whitespace().next()?.parse().ok()
}

/// `cutime + cstime` (CPU ticks of waited-for children) from a
/// `/proc/<pid>/stat` text. Fields are counted after the `)` closing
/// the command name, which may itself hold spaces and parentheses.
pub fn children_ticks(stat: &str) -> Option<u64> {
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    // Field 3 (state) is index 0, so cutime (16) and cstime (17) are 13, 14.
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(tick(13)? + tick(14)?)
}

fn self_children_ticks() -> Result<u64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    children_ticks(&stat).ok_or_else(|| "/proc/self/stat: no cutime/cstime".to_string())
}

/// One finished invocation.
#[derive(Debug, Clone)]
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_kib: u64,
    /// Exited with status 0.
    pub ok: bool,
    pub stdout: String,
    /// The host probe's readings while the invocation ran.
    pub probe: Readings,
}

/// Runs `cmd` in `dir` to completion, its stdout and stderr going to
/// files there, pinned to `cpus` with the probe taking turns on each.
/// Wall time spans spawn to reap; CPU time is the change in this
/// process's `cutime + cstime`, so nothing else may be reaped meanwhile;
/// the peak resident set is `VmHWM`, polled until exit.
pub fn run_measured(mut cmd: Command, dir: &Path, cpus: &[usize]) -> Result<Measured, String> {
    let file = |name: &str| {
        File::create(dir.join(name)).map_err(|e| format!("{}: {e}", dir.join(name).display()))
    };
    cmd.current_dir(dir).stdout(file("stdout.txt")?).stderr(file("stderr.txt")?);
    probe::pin(cpus);
    let ticks = self_children_ticks()?;
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let status_path = format!("/proc/{}/status", child.id());
    let exited = AtomicBool::new(false);
    let (status, wall, (peak_kib, probe)) = thread::scope(|s| {
        let poller = s.spawn(|| {
            let (mut peak, mut probe) = (0, Probe::new(cpus));
            // At least one burst, however short the invocation.
            loop {
                probe.burst();
                if let Some(kib) =
                    fs::read_to_string(&status_path).ok().and_then(|t| vm_hwm_kib(&t))
                {
                    peak = kib.max(peak);
                }
                if exited.load(Ordering::SeqCst) {
                    break (peak, probe.readings);
                }
                thread::sleep(POLL);
            }
        });
        let status = child.wait();
        let wall = start.elapsed();
        exited.store(true, Ordering::SeqCst);
        (status, wall, poller.join().expect("the poller does not panic"))
    });
    let status = status.map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    let cpu_s = (self_children_ticks()? - ticks) as f64 / CLK_TCK;
    let stdout = fs::read_to_string(dir.join("stdout.txt")).map_err(|e| format!("stdout: {e}"))?;
    if !status.success() {
        let stderr = fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
        eprintln!("warning: {cmd:?} exited with {status}:\n{stderr}");
    }
    let ok = status.success();
    Ok(Measured { wall_s: wall.as_secs_f64(), cpu_s, peak_kib, ok, stdout, probe })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\trun\nVmPeak:\t  90000 kB\nVmHWM:\t   44104 kB\nVmRSS:\t   1200 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(44104));
        assert_eq!(vm_hwm_kib("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn parses_children_ticks_past_odd_command_names() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime cutime cstime ...
        let stat = "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 100 200 0 0 7 3 150 25 20 0 1";
        assert_eq!(children_ticks(stat), Some(175));
        assert_eq!(children_ticks("4242 (cmd) S 1 2"), None);
        assert_eq!(children_ticks("no parenthesis"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let status = fs::read_to_string("/proc/self/status").unwrap();
        assert!(vm_hwm_kib(&status).unwrap() > 0);
        assert!(self_children_ticks().is_ok());
    }
}
