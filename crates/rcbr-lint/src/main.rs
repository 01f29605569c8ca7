//! The `lint` binary: scan the workspace, print diagnostics, write the
//! JSON report, gate CI.
//!
//! ```text
//! cargo run -p rcbr-lint --              # report-only: print + JSON, exit 0
//! cargo run -p rcbr-lint -- --deny       # CI gate: exit 1 on any violation
//! cargo run -p rcbr-lint -- --explain phase-discipline
//! cargo run -p rcbr-lint -- --list-rules
//! cargo run -p rcbr-lint -- --graph      # dump the workspace call graph
//! cargo run -p rcbr-lint -- --stats      # print call-graph stats + wall time
//! ```
//!
//! `--time-budget-ms N` makes the run fail (exit 3) if the analysis wall
//! time exceeds `N` milliseconds — CI pins a generous budget so an
//! accidentally quadratic rule shows up as a red build, not a slow one.
//!
//! The workspace root is found by walking up from the current directory
//! to the first `lint.toml` (override with `--root <dir>`); the JSON
//! report lands in `<root>/results/lint_report.json` (override with
//! `--report <path>`, disable with `--no-report`).

// `--time-budget-ms` times the analysis with the host clock; clippy.toml's
// ban guards the simulation crates, not the tool that lints them.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::process::ExitCode;

use rcbr_lint::config::Config;
use rcbr_lint::rules::{rule_by_id, RULES};
use rcbr_lint::{find_root, run_lint_full};

struct Args {
    deny: bool,
    quiet: bool,
    no_report: bool,
    root: Option<PathBuf>,
    report: Option<PathBuf>,
    explain: Option<String>,
    list_rules: bool,
    graph: bool,
    stats: bool,
    time_budget_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        quiet: false,
        no_report: false,
        root: None,
        report: None,
        explain: None,
        list_rules: false,
        graph: false,
        stats: false,
        time_budget_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--quiet" | "-q" => args.quiet = true,
            "--no-report" => args.no_report = true,
            "--list-rules" => args.list_rules = true,
            "--graph" => args.graph = true,
            "--stats" => args.stats = true,
            "--time-budget-ms" => {
                let v = it.next().ok_or("--time-budget-ms needs a number")?;
                args.time_budget_ms = Some(
                    v.parse()
                        .map_err(|_| format!("bad --time-budget-ms {v:?}"))?,
                );
            }
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?))
            }
            "--report" => {
                args.report = Some(PathBuf::from(it.next().ok_or("--report needs a path")?))
            }
            "--explain" => args.explain = Some(it.next().ok_or("--explain needs a rule id")?),
            "--help" | "-h" => {
                println!(
                    "rcbr-lint: determinism linter for the RCBR workspace\n\n\
                     USAGE: lint [--deny] [--quiet] [--no-report] [--root DIR] \
                     [--report PATH] [--list-rules] [--explain RULE] [--graph] \
                     [--stats] [--time-budget-ms N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in RULES {
            println!("{:<20} {}", r.id, r.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &args.explain {
        return match rule_by_id(id) {
            Some(r) => {
                println!("[{}] {}\n\n{}", r.id, r.summary, r.hazard);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("lint: unknown rule {id:?} (see --list-rules)");
                ExitCode::from(2)
            }
        };
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.clone().or_else(|| find_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!("lint: no lint.toml found walking up from {}", cwd.display());
            return ExitCode::from(2);
        }
    };
    let cfg_path = root.join("lint.toml");
    let cfg_text = match std::fs::read_to_string(&cfg_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lint: cannot read {}: {e}", cfg_path.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&cfg_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };

    let started = std::time::Instant::now();
    let (report, analysis) = match run_lint_full(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis() as u64;

    if args.graph {
        print!("{}", analysis.workspace.dump());
    }

    if !args.quiet {
        for d in &report.violations {
            println!("{}", d.render());
        }
        let active = report.rules.len();
        println!(
            "lint: {} file(s), {} rule(s) active, {} violation(s), {} suppressed",
            report.files_scanned,
            active,
            report.violations.len(),
            report.suppressed
        );
    }

    if args.stats {
        println!(
            "lint: graph: {} function(s), {} call edge(s), {} unresolved call(s); \
             analysis wall time {} ms",
            report.graph.functions,
            report.graph.call_edges,
            analysis.workspace.unresolved_calls,
            elapsed_ms
        );
    }

    if !args.no_report {
        let path = args
            .report
            .clone()
            .unwrap_or_else(|| root.join("results/lint_report.json"));
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        if !args.quiet {
            println!("lint: report written to {}", path.display());
        }
    }

    if let Some(budget) = args.time_budget_ms {
        if elapsed_ms > budget {
            eprintln!(
                "lint: analysis took {elapsed_ms} ms, over the --time-budget-ms {budget} \
                 — a rule has likely gone super-linear"
            );
            return ExitCode::from(3);
        }
        if !args.quiet {
            println!("lint: analysis wall time {elapsed_ms} ms (budget {budget} ms)");
        }
    }

    if args.deny && !report.clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
