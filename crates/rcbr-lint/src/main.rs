//! The `lint` binary: scan the workspace, print diagnostics, write the
//! JSON report, gate CI.
//!
//! ```text
//! cargo run -p rcbr-lint --              # report-only: print + JSON, exit 0
//! cargo run -p rcbr-lint -- --deny       # CI gate: exit 1 on any violation
//! cargo run -p rcbr-lint -- --explain lease-units
//! cargo run -p rcbr-lint -- --list-rules
//! ```
//!
//! The workspace root is found by walking up from the current directory
//! to the first `lint.toml` (override with `--root <dir>`); the JSON
//! report lands in `<root>/results/lint_report.json` (override with
//! `--report <path>`, disable with `--no-report`).

use std::path::PathBuf;
use std::process::ExitCode;

use rcbr_lint::config::Config;
use rcbr_lint::rules::{rule_by_id, RULES};
use rcbr_lint::{find_root, run_lint};

struct Args {
    deny: bool,
    quiet: bool,
    no_report: bool,
    root: Option<PathBuf>,
    report: Option<PathBuf>,
    explain: Option<String>,
    list_rules: bool,
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
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--quiet" | "-q" => args.quiet = true,
            "--no-report" => args.no_report = true,
            "--list-rules" => args.list_rules = true,
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
                     [--report PATH] [--list-rules] [--explain RULE]"
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

    let report = match run_lint(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

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

    if args.deny && !report.clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
