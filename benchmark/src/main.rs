//! The repository's benchmark: seven workloads, six end-to-end metrics
//! measured with tracing off, and a traced pass that reports every
//! layer. See `README.md` beside this crate for what each name means.
//!
//! ```text
//! rftp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of standard output is the result as
//!     one JSON object (the form BENCHMARK.json's driver reads)
//! rftp-benchmark [--seed <n>] [--seconds <s>] [--trace] [--only <name>]
//!                [--sets <k>] [--quick]
//!     every workload (or one), as tables; `--sets 2` runs each twice in
//!     alternating order and checks the medians against the bounds
//! ```
//!
//! A run of one workload is [`CHILDREN`] fresh child processes (this
//! program re-executed with `--child`), one after the other. Each child
//! sets the workload up, runs timed repetitions for its share of
//! `--seconds`, verifies every output, and prints samples; this process
//! pools them. So set-up time, peak memory and CPU time are per workload,
//! set-up is sampled several times per run, and a crashed child is a
//! failed operation, not a lost run.

mod json;
mod metrics;
mod micro;
mod stats;
mod sys;
mod trace;
mod workloads;

#[cfg(test)]
mod seam_tests;

use json::Json;
use metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{Plan, Rep};

/// `run_seconds` of BENCHMARK.json: what one run measures by default.
pub const RUN_SECONDS: u64 = 12;
/// Fresh processes per run; each gets an equal share of the seconds.
const CHILDREN: u64 = 4;
/// A child still running this long after its share is killed and counted
/// as failed (a hung transfer must not hang the benchmark).
const CHILD_GRACE: Duration = Duration::from_secs(45);
/// Relative, so unix socket paths stay under the 108-byte limit however
/// deep the checkout is; the benchmark is run from the checkout's root.
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    only: Option<String>,
    child: Option<(String, u64, u64)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    quick: bool,
}

impl Args {
    /// Fresh processes per run: one is enough for a smoke test.
    fn children(&self) -> u64 {
        if self.quick {
            1
        } else {
            CHILDREN
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: rftp-benchmark [--workload NAME | --only NAME] [--seed N] [--seconds S] \
         [--trace [0|1]] [--sets K] [--quick]\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        only: None,
        child: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        sets: 1,
        quick: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workload = Some(value(&mut i)),
            "--only" => a.only = Some(value(&mut i)),
            "--seed" => a.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--sets" => a.sets = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--quick" => a.quick = true,
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--child" => {
                let name = value(&mut i);
                let index = value(&mut i).parse().unwrap_or_else(|_| usage());
                let spawned_ns = value(&mut i).parse().unwrap_or_else(|_| usage());
                a.child = Some((name, index, spawned_ns));
            }
            _ => usage(),
        }
        i += 1;
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) || a.sets == 0 {
        usage();
    }
    // Smoke mode: under a second per workload unless told otherwise.
    if a.quick && !argv.iter().any(|s| s == "--seconds") {
        a.seconds = 0.75;
    }
    for name in a.workload.iter().chain(&a.only) {
        if metrics::workload_named(name).is_none() {
            eprintln!("unknown workload {name}");
            usage();
        }
    }
    a
}

// ---------------------------------------------------------------------------
// Child: one fresh process, one workload
// ---------------------------------------------------------------------------

/// Print one repetition's account in the line protocol the parent reads:
/// `O attempted failed`, `E message`, `S series value`, `L metric value`,
/// `X key exact-text`.
fn emit(rep: &Rep, timed: Option<bool>) {
    let out = std::io::stdout();
    let mut out = out.lock();
    let _ = writeln!(out, "O {} {}", rep.attempted, rep.failed);
    for e in &rep.errors {
        let _ = writeln!(out, "E {}", e.replace('\n', " "));
    }
    for (k, v) in &rep.exact {
        let _ = writeln!(out, "X {k} {v}");
    }
    for (name, v) in &rep.layer {
        let _ = writeln!(out, "L {name} {v:?}");
    }
    let Some(traced) = timed else { return };
    if rep.failed == 0 && rep.bytes > 0 && rep.wall_ns > 0 {
        let gbytes = rep.bytes as f64 / 1e9;
        let goodput = rep.bytes as f64 / rep.wall_ns as f64;
        if traced {
            let _ = writeln!(out, "S traced_goodput {goodput:?}");
        } else {
            let _ = writeln!(out, "S goodput_gbytes_per_s {goodput:?}");
            let _ = writeln!(
                out,
                "S cpu_s_per_gbyte {:?}",
                rep.cpu_ns as f64 / 1e9 / gbytes
            );
            for ms in &rep.sessions_ms {
                let _ = writeln!(out, "S session_ms {ms:?}");
            }
        }
    }
}

fn child_main(a: &Args, name: &str, index: u64, spawned_ns: u64) -> ExitCode {
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let plan = Plan {
        seed: a.seed,
        child: index,
        quick: a.quick,
        out_dir: out_dir.clone(),
    };
    let Some(mut w) = workloads::build(name, plan) else {
        return ExitCode::FAILURE;
    };
    let guarded = |what: &str, f: &mut dyn FnMut() -> Rep| -> Rep {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|_| Rep {
            attempted: 1,
            failed: 1,
            errors: vec![format!("{what}: panicked")],
            ..Rep::default()
        })
    };

    let setup = guarded("set-up", &mut || w.setup());
    let ready_ns = sys::mono_ns();
    emit(&setup, None);
    println!("S setup_s {:?}", (ready_ns - spawned_ns) as f64 / 1e9);

    // Timed repetitions for this child's share of the seconds. The
    // traced pass alternates untraced and traced repetitions, so the two
    // medians that give the tracing overhead see the same machine.
    let share_ns = (a.seconds * 1e9) as u64;
    let mut done = 0u64;
    let mut longest_ns = 0u64;
    loop {
        let traced = a.trace && done % 2 == 1;
        let t0 = sys::mono_ns();
        let rep = guarded("repetition", &mut || w.rep(traced));
        longest_ns = longest_ns.max(sys::mono_ns() - t0);
        emit(&rep, Some(traced));
        done += 1;
        let used = sys::mono_ns() - ready_ns;
        let pair_open = a.trace && done % 2 == 1;
        // Start another repetition only if at least half of it fits, so
        // the time measured comes out at the share on average.
        if !pair_open && (rep.failed > 0 || used + longest_ns / 2 > share_ns) {
            break;
        }
    }

    if a.trace {
        emit(&guarded("traced extras", &mut || w.traced_extras()), None);
        // The layer ceilings are the same whatever the workload, so one
        // child measures them.
        if index == 0 {
            let budget_ms = if a.quick { 5 } else { 60 };
            match micro::run(budget_ms, &out_dir) {
                Ok(values) => {
                    for (name, v) in values {
                        println!("L {name} {v:?}");
                    }
                    println!("O 1 0");
                }
                Err(e) => println!("O 1 1\nE microbenchmarks: {e}"),
            }
        }
    }
    emit(&guarded("teardown", &mut || w.finish(a.trace)), None);

    let spans = w.take_spans();
    if !spans.is_empty() {
        let path = out_dir.join(format!("trace-{name}.jsonl"));
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(&spans));
        if let Err(e) = written {
            println!("O 1 1\nE writing {}: {e}", path.display());
        }
    }
    if let Some(kib) = sys::vm_hwm_kib() {
        println!("S peak_rss_mib {:?}", kib as f64 / 1024.0);
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Parent: spawn the children, pool their samples
// ---------------------------------------------------------------------------

/// One reported metric of one run.
#[derive(Debug, Clone)]
struct Value {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples behind the value, their least and greatest, and the
    /// distance between their quartiles as a share of their median.
    n: usize,
    min: f64,
    max: f64,
    iqr_share: Option<f64>,
}

#[derive(Debug, Default)]
struct RunResult {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    values: Vec<Value>,
    /// `RFTP_*` variables removed from the children's environment.
    scrubbed: Vec<String>,
}

#[derive(Default)]
struct Pool {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    series: BTreeMap<String, Vec<f64>>,
    layer: BTreeMap<String, Vec<f64>>,
    exact: BTreeMap<String, Vec<String>>,
}

impl Pool {
    fn line(&mut self, line: &str) {
        let mut parts = line.splitn(3, ' ');
        let (tag, a, b) = (parts.next(), parts.next(), parts.next());
        match (tag, a, b) {
            (Some("O"), Some(att), Some(fail)) => {
                self.attempted += att.parse::<u64>().unwrap_or(0);
                self.failed += fail.parse::<u64>().unwrap_or(0);
            }
            (Some("E"), Some(_), _) => self.errors.push(line[2..].to_string()),
            (Some(tag @ ("S" | "L")), Some(name), Some(v)) => {
                if let Ok(v) = v.parse::<f64>() {
                    let map = if tag == "S" {
                        &mut self.series
                    } else {
                        &mut self.layer
                    };
                    map.entry(name.to_string()).or_default().push(v);
                }
            }
            (Some("X"), Some(key), Some(v)) => {
                self.exact
                    .entry(key.to_string())
                    .or_default()
                    .push(v.to_string());
            }
            _ => {}
        }
    }

    fn crash(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(what);
    }
}

/// Run one child to completion, feeding its lines to `pool`.
fn run_child(pool: &mut Pool, a: &Args, name: &str, index: u64, scrubbed: &[String]) {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return pool.crash(format!("cannot find own executable: {e}")),
    };
    let share = a.seconds / a.children() as f64;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &share.to_string(),
    ])
    .args(["--trace", if a.trace { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if a.quick {
        cmd.arg("--quick");
    }
    // The program's behaviour switches must not leak in from whoever
    // runs the benchmark: every RFTP_* variable is removed.
    for var in scrubbed {
        cmd.env_remove(var);
    }
    cmd.args([
        "--child",
        name,
        &index.to_string(),
        &sys::mono_ns().to_string(),
    ]);
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return pool.crash(format!("cannot start child {index}: {e}")),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let pid = child.id();
    let deadline = Duration::from_secs_f64(share) * 3 + CHILD_GRACE;
    // The reader owns the pipe; the watchdog kills a child that outlives
    // its deadline, which closes the pipe and ends the reader.
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(deadline).is_err() {
            // SAFETY: `kill` takes a pid and a signal number and touches
            // no memory; the pid is our own child's, which has not been
            // waited for yet, so it cannot have been reused.
            unsafe { kill(pid as i32, 9) };
            return true;
        }
        false
    });
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        pool.line(&line);
    }
    let status = child.wait();
    let _ = done_tx.send(());
    let killed = watchdog.join().unwrap_or(false);
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => pool.crash(format!(
            "child {index} {}: {s}",
            if killed {
                "hung and was killed"
            } else {
                "crashed"
            }
        )),
        Err(e) => pool.crash(format!("child {index}: {e}")),
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// One run of one workload: [`CHILDREN`] children, samples pooled,
/// every metric of the pass (`end_to_end`, or `per_layer` when traced).
fn run_workload(a: &Args, name: &str) -> RunResult {
    let scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RFTP_"))
        .collect();
    if a.trace {
        let _ = std::fs::remove_file(PathBuf::from(OUT_DIR).join(format!("trace-{name}.jsonl")));
    }
    let mut pool = Pool::default();
    for index in 0..a.children() {
        run_child(&mut pool, a, name, index, &scrubbed);
    }
    // Simulated results must repeat bit for bit across repetitions.
    for (key, texts) in &pool.exact {
        let differing = texts.iter().filter(|t| **t != texts[0]).count() as u64;
        if differing > 0 {
            pool.failed += differing;
            pool.errors.push(format!(
                "{key}: {differing} repetitions disagree with {}",
                texts[0]
            ));
        }
    }

    // Every sample behind the run's values, for reading afterwards.
    let dump = Json::obj(pool.series.iter().chain(&pool.layer).map(|(k, v)| {
        (
            k.clone(),
            Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
        )
    }));
    let _ = std::fs::write(
        PathBuf::from(OUT_DIR).join(format!("samples-{name}.json")),
        format!("{dump}\n"),
    );

    let mut values = Vec::new();
    let series = |name: &str| pool.series.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let mut push = |name: &'static str, unit: &'static str, samples: &[f64], value: Option<f64>| {
        let s = stats::summary(samples);
        values.push(Value {
            name,
            unit,
            value: value.unwrap_or(0.0),
            n: samples.len(),
            min: s.map_or(0.0, |s| s.min),
            max: s.map_or(0.0, |s| s.max),
            iqr_share: stats::iqr_share(samples),
        });
    };
    if !a.trace {
        for m in &END_TO_END {
            let (samples, value) = match m.name {
                "session_p50_ms" => {
                    let s = series("session_ms");
                    (s, stats::median(s))
                }
                // The tail the sample supports, up to p99: a run needs a
                // thousand sessions for ten to lie beyond p99 (the daemon
                // mix has them); a handful of bulk sessions supports no
                // tail at all and reports its median here too.
                "session_p99_ms" => {
                    let s = series("session_ms");
                    let tail = stats::supported_tail(s.len()).map(|p| p.min(99.0));
                    (
                        s,
                        tail.map_or_else(|| stats::median(s), |p| stats::percentile(s, p)),
                    )
                }
                other => {
                    let s = series(other);
                    (s, stats::median(s))
                }
            };
            if value.is_none() {
                pool.failed += 1;
                pool.attempted += 1;
                pool.errors.push(format!("{}: no sample", m.name));
            }
            push(m.name, m.unit, samples, value);
        }
    } else {
        // The tracer must reproduce what the program reports of itself.
        // Held over the run's medians: single repetitions on two shared
        // vCPUs are a scheduling delay apart.
        let layer = |k: &str| pool.layer.get(k).and_then(|v| stats::median(v));
        let mut checks = Vec::new();
        if let (Some(seam), Some(own)) = (
            layer("trace.first_block_seam_ms"),
            layer("estimator.first_block_ms").filter(|v| *v > 0.0),
        ) {
            let ok = (seam - own).abs() <= 0.05 * own;
            checks.push((
                ok,
                format!("first block at {seam:.3} ms by the seam, {own:.3} ms by the program"),
            ));
        }
        if let Some(p50) = layer(workloads::MIX_SESSION_P50).filter(|v| *v > 0.0) {
            let sum: f64 = [
                "daemon.connect_to_accept_ms_p50",
                "daemon.transfer_ms_p50",
                "daemon.teardown_ms_p50",
            ]
            .iter()
            .filter_map(|k| layer(k))
            .sum();
            let ok = (sum - p50).abs() <= 0.10 * p50;
            checks.push((
                ok,
                format!("session phases sum to {sum:.3} ms, sessions take {p50:.3} ms"),
            ));
        }
        for (ok, what) in checks {
            pool.attempted += 1;
            if !ok {
                pool.failed += 1;
                pool.errors.push(what);
            }
        }
        let untraced = stats::median(series("goodput_gbytes_per_s"));
        let traced = stats::median(series("traced_goodput"));
        if let (Some(u), Some(t)) = (untraced, traced) {
            pool.layer
                .entry("trace.overhead_share".into())
                .or_default()
                .push(1.0 - t / u);
        }
        // Each bulk workload's goodput as a share of its tightest host
        // ceiling: the loopback for tcp, a memory copy for the others.
        let ceiling = |k: &str| pool.layer.get(k).and_then(|v| stats::median(v));
        let tightest = match name {
            "lan-bulk-tcp" => ceiling("host.loopback_gbytes_per_s"),
            "shm-bulk" | "inproc-bulk" => ceiling("pattern.checksum_gbytes_per_s")
                .into_iter()
                .chain(ceiling("pattern.fill_gbytes_per_s"))
                .chain(ceiling("host.memcpy_gbytes_per_s"))
                .reduce(f64::min),
            _ => None,
        };
        if let (Some(u), Some(c)) = (untraced, tightest) {
            pool.layer
                .entry("host.ceiling_share".into())
                .or_default()
                .push(u / c);
        }
        for m in PER_LAYER {
            let samples = pool.layer.get(m.name).map(Vec::as_slice).unwrap_or(&[]);
            push(m.name, m.unit, samples, stats::median(samples));
        }
    }
    RunResult {
        attempted: pool.attempted.max(1),
        failed: pool.failed,
        errors: pool.errors,
        values,
        scrubbed,
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

fn result_json(r: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::Int(r.attempted as i64)),
        ("failed", Json::Int(r.failed as i64)),
        (
            "metrics",
            Json::obj(r.values.iter().map(|v| {
                (
                    v.name,
                    Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]),
                )
            })),
        ),
    ])
}

fn print_table(a: &Args, name: &str, r: &RunResult) {
    let why = metrics::workload_named(name).map_or("", |w| w.why);
    println!(
        "\n== {name} ({}) ==",
        if a.trace {
            "traced pass, per layer"
        } else {
            "tracing off, end to end"
        }
    );
    println!("   {why}");
    println!(
        "   closed loop; seed {}; {} s over {} fresh child process(es); {} operations, {} failed (failed_share {:.4})",
        a.seed,
        a.seconds,
        a.children(),
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted as f64,
    );
    println!(
        "   RFTP_* variables removed from the children's environment: {}",
        if r.scrubbed.is_empty() {
            "none were set".to_string()
        } else {
            r.scrubbed.join(" ")
        }
    );
    println!(
        "   {:<36} {:>16} {:<8} {:>6} {:>14} {:>14} {:>7}  bound",
        "metric", "value", "unit", "n", "min", "max", "iqr"
    );
    for v in &r.values {
        let bound = match END_TO_END.iter().find(|m| m.name == v.name) {
            Some(m) => format!("{:.2} {}", m.bound, m.better.as_str()),
            None => PER_LAYER
                .iter()
                .find(|m| m.name == v.name)
                .map_or(String::new(), |m| format!("none {}", m.better.as_str())),
        };
        let iqr = v
            .iqr_share
            .map_or(String::from("-"), |s| format!("{:.1}%", s * 100.0));
        println!(
            "   {:<36} {:>16.6} {:<8} {:>6} {:>14.6} {:>14.6} {iqr:>7}  {bound}",
            v.name, v.value, v.unit, v.n, v.min, v.max
        );
    }
    for e in r.errors.iter().take(12) {
        println!("   FAILED: {e}");
    }
}

/// `--sets K`: every workload K times, alternating the order, then each
/// end-to-end metric's first and last value side by side.
fn run_sets(a: &Args, names: &[&'static str]) -> ExitCode {
    let mut runs: BTreeMap<&str, Vec<RunResult>> = BTreeMap::new();
    for set in 0..a.sets {
        let mut order: Vec<&'static str> = names.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        for name in order {
            let r = run_workload(a, name);
            print_table(a, name, &r);
            runs.entry(name).or_default().push(r);
        }
    }
    if a.sets < 2 {
        let failed: u64 = runs.values().flatten().map(|r| r.failed).sum();
        return if failed > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let mut breach = false;
    let mut rows = Vec::new();
    println!("\n== repeatability: set 1 against set {} ==", a.sets);
    println!(
        "   {:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "last", "change", "bound"
    );
    for name in names {
        let sets = &runs[name];
        let (first, last) = (&sets[0], &sets[sets.len() - 1]);
        let failed: u64 = sets.iter().map(|r| r.failed).sum();
        breach |= failed > 0;
        for m in &END_TO_END {
            let get = |r: &RunResult| {
                r.values
                    .iter()
                    .find(|v| v.name == m.name)
                    .map_or(0.0, |v| v.value)
            };
            let (x, y) = (get(first), get(last));
            // Positive = the last set is worse than the first.
            let worse = match m.better {
                Better::Higher => (x - y) / x,
                Better::Lower => (y - x) / x,
            };
            let over = !a.quick && a.sets > 1 && worse.abs() > m.bound;
            breach |= over;
            println!(
                "   {:<16} {:<24} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%{}",
                name,
                m.name,
                x,
                y,
                worse * 100.0,
                m.bound * 100.0,
                if over { "  BREACH" } else { "" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(*name)),
                ("metric", Json::str(m.name)),
                ("first", Json::Num(x)),
                ("last", Json::Num(y)),
                ("worse_by", Json::Num(worse)),
                ("bound", Json::Num(m.bound)),
                ("within_bound", Json::Bool(!over)),
            ]));
        }
        if failed > 0 {
            println!("   {name}: {failed} failed operations");
        }
    }
    let table = Json::obj([
        ("seed", Json::Int(a.seed as i64)),
        ("seconds", Json::Num(a.seconds)),
        ("sets", Json::Int(a.sets as i64)),
        ("rows", Json::Arr(rows)),
    ]);
    let path = PathBuf::from(OUT_DIR).join("repeatability.json");
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, format!("{table}\n")))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("   wrote {}", path.display());
    if breach {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let a = parse_args();
    if let Some((name, index, spawned_ns)) = a.child.clone() {
        return child_main(&a, &name, index, spawned_ns);
    }
    // Driver form: one workload, the result object as the last line.
    if let Some(name) = a.workload.clone() {
        let r = run_workload(&a, &name);
        print_table(&a, &name, &r);
        println!("{}", result_json(&r));
        return ExitCode::SUCCESS;
    }
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| a.only.as_deref().is_none_or(|o| o == *n))
        .collect();
    run_sets(&a, &names)
}
