//! `perfbench --workload exec|replay|serve --seed N --seconds S --trace 0|1`
//!
//! Prints every metric as a `metric NAME VALUE UNIT` line and provenance
//! as `fact KEY VALUE` lines, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). See `perfbench/README.md`.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::{Args, Outcome, END_TO_END, PER_LAYER};

fn result_line(out: &Outcome, traced: bool) -> String {
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match *name {
            "bench.fail_frac" => out.fail_frac(),
            _ => out.value(name).filter(|v| v.is_finite()).unwrap_or(0.0),
        };
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(out) => {
            for m in &out.metrics {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            }
            println!("metric fail_frac {} ratio", out.fail_frac());
            for (k, v) in &out.facts {
                println!("fact {k} {v}");
            }
            for e in &out.errors {
                println!("failure {e}");
            }
            println!("{}", result_line(&out, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
