//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! rcbr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass (the driver's form)
//! rcbr-benchmark all [--seed 7] [--seconds 8] [--quick] [--out <file>]      every workload, both passes
//! rcbr-benchmark repeat [--seed 7]                                          `all` twice, pass by pass, then `agree`
//! rcbr-benchmark compare <A.json> <B.json>                                  changes against the bounds
//! rcbr-benchmark agree <A.json> <B.json>                                    two runs of one code must agree
//! rcbr-benchmark check <suite.json>                                         validate a suite file
//! rcbr-benchmark manifest                                                   print BENCHMARK.json
//! rcbr-benchmark probe identity-5000 | identity-chaos                       the shard-identity findings
//! ```

mod compare;
mod e2e;
mod layers;
mod measure;
mod metrics;
mod report;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Instant;

use e2e::Opts;
use report::{PassResult, SuiteResult, WorkloadResult};
use workloads::{QUICK_DIVISOR, WORKLOADS};

/// Where span files and suite results go, from the root of the checkout.
const OUT_DIR: &str = "benchmark/out";
/// The manifest `check` validates, from the root of the checkout.
const MANIFEST: &str = "BENCHMARK.json";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => flags.push(("quick".to_string(), "1".to_string())),
                Some(key) => {
                    let value = it
                        .next()
                        .unwrap_or_else(|| die(&format!("--{key} needs a value")));
                    flags.push((key.to_string(), value));
                }
                None => positional.push(a),
            }
        }
        Self { positional, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad --{key}: {v}"))),
        }
    }

    fn opts(&self) -> Opts {
        let quick = self.get("quick").is_some();
        let seconds = if quick {
            1.0
        } else {
            metrics::RUN_SECONDS as f64
        };
        Opts {
            seed: self.num("seed", 7),
            seconds: self.num("seconds", seconds),
            quick,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("rcbr-benchmark: {msg}");
    exit(2)
}

fn write_json<T: serde::Serialize>(path: &Path, value: &T) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    }
    let text = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(path, text + "\n").unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
}

/// One pass over one workload: the driver's entry point. Prints every
/// metric by name, then the one-line result; exits non-zero on a failed
/// operation.
fn one_pass(args: &Args, name: &str, traced: bool) -> ! {
    let opts = args.opts();
    let divisor = if opts.quick { QUICK_DIVISOR } else { 1 };
    let workload = workloads::build(name, opts.seed, divisor)
        .unwrap_or_else(|| die(&format!("no workload named {name}")));
    let started = Instant::now();
    let mut res = if traced {
        let (res, spans) = layers::traced(name, &workload, &opts);
        write_json(
            &Path::new(OUT_DIR).join(format!("trace-{name}.json")),
            &spans,
        );
        res
    } else {
        e2e::end_to_end(name, &workload, &opts)
    };
    res.pass_wall_s = started.elapsed().as_secs_f64();
    res.print_table();
    match args.get("result-file") {
        // `all` reads the pass back from this file.
        Some(path) => write_json(Path::new(path), &res),
        None => println!("{}", res.driver_line()),
    }
    exit(if res.failed == 0 { 0 } else { 1 })
}

/// Every workload, both passes, one child process per pass so that memory
/// is per workload; `copies` suites, each pass run once for each of them,
/// back to back. Returns the suites and whether any pass failed.
fn suites(opts: &Opts, copies: usize) -> (Vec<SuiteResult>, bool) {
    let out_dir = Path::new(OUT_DIR);
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let mut suites = vec![
        SuiteResult {
            schema: 1,
            seed: opts.seed,
            quick: opts.quick,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get())
                as u64,
            workloads: Vec::new(),
        };
        copies
    ];
    let mut failed = false;
    let mut pass = |workload: &str, traced: bool| -> PassResult {
        let file = out_dir.join(format!("pass-{workload}-{}.json", traced as u8));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--result-file")
            .arg(&file);
        if opts.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| die(&format!("spawn {}: {e}", exe.display())));
        failed |= !status.success();
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| die(&format!("{}: {e}", file.display())));
        let _ = std::fs::remove_file(&file);
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("{}: {e}", file.display())))
    };
    for w in &WORKLOADS {
        let end_to_end: Vec<PassResult> = (0..copies).map(|_| pass(w.name, false)).collect();
        let per_layer: Vec<PassResult> = (0..copies).map(|_| pass(w.name, true)).collect();
        for ((suite, end_to_end), per_layer) in suites.iter_mut().zip(end_to_end).zip(per_layer) {
            suite.workloads.push(WorkloadResult {
                name: w.name.to_string(),
                end_to_end,
                per_layer,
            });
        }
    }
    (suites, failed)
}

fn all(args: &Args) -> ! {
    let opts = args.opts();
    let (suites, failed) = suites(&opts, 1);
    let default = format!(
        "suite-seed{}{}.json",
        opts.seed,
        if opts.quick { "-quick" } else { "" }
    );
    let out = args
        .get("out")
        .map_or(Path::new(OUT_DIR).join(default), PathBuf::from);
    write_json(&out, &suites[0]);
    println!("\nwrote {}", out.display());
    exit(if failed { 1 } else { 0 })
}

/// Two suites of one code on one seed, which must agree. Each pass of the
/// second follows the same pass of the first: the host's slow phases last
/// minutes, and two suites run one after the other sit in different ones.
fn repeat(args: &Args) -> ! {
    let opts = args.opts();
    let (suites, failed) = suites(&opts, 2);
    for (suite, tag) in suites.iter().zip(["a", "b"]) {
        let out = Path::new(OUT_DIR).join(format!("repeat-{tag}-seed{}.json", opts.seed));
        write_json(&out, suite);
        println!("wrote {}", out.display());
    }
    let agreed = report_agreement(&suites[0], &suites[1]);
    exit(if agreed && !failed { 0 } else { 1 })
}

/// Print where two suites of one code disagree; whether they agree.
fn report_agreement(a: &SuiteResult, b: &SuiteResult) -> bool {
    let problems = compare::agree(a, b);
    for p in &problems {
        println!("DISAGREE: {p}");
    }
    let verdict = if problems.is_empty() {
        "the two runs agree"
    } else {
        "the two runs do not agree"
    };
    println!("{verdict}");
    problems.is_empty()
}

/// The shard-identity findings (README, Findings): configurations on which
/// 2 shards and 1 shard disagree. Opt-in; not part of `all`, not gated.
fn probe(name: &str) -> ! {
    let cfg = |shards| {
        workloads::probe(name, shards)
            .unwrap_or_else(|| die("probe takes: identity-5000 | identity-chaos"))
    };
    let one = rcbr_runtime::run(&cfg(1));
    let two = rcbr_runtime::run(&cfg(2));
    let seq = rcbr_runtime::run_sequential(&cfg(1));
    for (what, r) in [("1 shard", &one), ("2 shards", &two), ("sequential", &seq)] {
        println!(
            "{what:<10} injected {} accepted {} completed {} rollbacks {}",
            r.counters.injected, r.counters.accepted, r.counters.completed, r.counters.rollbacks
        );
    }
    let same = report::comparable_report(&one) == report::comparable_report(&two);
    println!("shard identity holds: {same}");
    exit(if same { 0 } else { 1 })
}

// The repository's linter walks this directory too. The layer replay calls
// `roll` and `expire_leases` on switches of its own, which no engine ever
// sees, so the rule that keeps them to phase-A quiescence does not apply.
// lint:allow(phase-discipline)
fn main() {
    let args = Args::parse();
    let files = |n: usize| -> Vec<SuiteResult> {
        if args.positional.len() != n + 1 {
            die(&format!("{} takes {n} file(s)", args.positional[0]));
        }
        args.positional[1..]
            .iter()
            .map(|p| compare::load(p).unwrap_or_else(|e| die(&e)))
            .collect()
    };
    match args.positional.first().map(String::as_str) {
        None => match args.get("workload") {
            Some(name) => one_pass(&args, name, args.num::<u8>("trace", 0) != 0),
            None => die(
                "give --workload <name>, or one of: all repeat compare agree check manifest probe",
            ),
        },
        Some("all") => all(&args),
        Some("compare") => {
            let f = files(2);
            compare::compare(&f[0], &f[1]);
        }
        Some("repeat") => repeat(&args),
        Some("agree") => {
            let f = files(2);
            exit(if report_agreement(&f[0], &f[1]) { 0 } else { 1 })
        }
        Some("check") => {
            let f = files(1);
            let problems = compare::check(&f[0], MANIFEST);
            for p in &problems {
                println!("CHECK: {p}");
            }
            let verdict = if problems.is_empty() {
                "check passed"
            } else {
                "check failed"
            };
            println!("{verdict}");
            exit(if problems.is_empty() { 0 } else { 1 })
        }
        Some("manifest") => println!(
            "{}",
            serde_json::to_string_pretty(&metrics::manifest()).expect("a value serializes")
        ),
        Some("probe") => match args.positional.get(1) {
            Some(name) => probe(name),
            None => die("probe takes: identity-5000 | identity-chaos"),
        },
        Some(other) => die(&format!("unknown mode {other}")),
    }
}
