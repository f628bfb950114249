//! ASCII Gantt chart of dynamic tasks on the PU ring — a live rendering
//! of the paper's Figure 2 time line: dispatch, execution, waiting for
//! the predecessor (load imbalance, shown as `·`), and retirement.
//!
//! ```text
//! cargo run --release --example task_gantt [benchmark] [pus]
//! ```

use multiscalar::prelude::*;
use multiscalar::sim::EventLog;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "m88ksim".to_string());
    let pus: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let workload = multiscalar::workloads::by_name(&name).expect("known benchmark name");
    let program = workload.build();
    let sel = SelectorBuilder::new(Strategy::DataDependence)
        .max_targets(4)
        .build()
        .select(&ProgramContext::new(program));
    let trace = TraceGenerator::new(&sel.program, 0x5eed).generate(2_000);
    let mut log = EventLog::new();
    let stats = Simulator::new(SimConfig::with_pus(pus), &sel.program, &sel.partition)
        .run_with_sink(&trace, &mut log);

    // Render a window of tasks from the steady state.
    let spans = log.spans();
    let skip = spans.len().saturating_sub(40).min(20);
    let window: Vec<_> = spans.iter().skip(skip).take(32).collect();
    let t0 = window.first().map(|t| t.dispatch).unwrap_or(0);
    let t1 = window.last().map(|t| t.retire).unwrap_or(1);
    let span = (t1 - t0).max(1);
    const COLS: u64 = 100;
    let scale = |c: u64| ((c.saturating_sub(t0)) * COLS / span).min(COLS) as usize;

    println!("{name} on {pus} PUs — one row per dynamic task ({} cycles shown)", span);
    println!("`#` executing   `·` completed, waiting to retire   `|` retire\n");
    for t in &window {
        let d = scale(t.dispatch);
        let c = scale(t.complete);
        let r = scale(t.retire);
        let mut row = String::new();
        row.push_str(&" ".repeat(d));
        row.push_str(&"#".repeat(c.saturating_sub(d).max(1)));
        row.push_str(&"·".repeat(r.saturating_sub(c.max(d + 1))));
        row.push('|');
        println!("pu{} {:>4}i a{} {row}", t.pu, t.insts, t.attempts,);
    }
    println!("\n{stats}");
}
