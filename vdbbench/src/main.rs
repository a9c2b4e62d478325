//! vdbbench: a measured end-to-end SQL benchmark of the vector database
//! in this repository, with per-layer attribution. See README.md.
//!
//! ```text
//! vdbbench --workload <name> --seed <n> --seconds <n> --trace <0|1>   one run, JSON result on the last line
//! vdbbench --seed <n> [--seconds <n>] [--out <file>]                  all six workloads, both passes
//! vdbbench --selfcheck [--seed <n>] [--seconds <n>]                   the suite twice, compared with its bounds
//! vdbbench --smoke                                                     every path at toy size, no numbers
//! ```

mod check;
mod inputs;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use inputs::{Inputs, Scale};
use metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Report, RunConfig, Workload, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 5.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    selfcheck: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--selfcheck" => parsed.selfcheck = true,
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("vdbbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` when the benchmark ran but a result was wrong.
fn real_main(args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    if cfg!(debug_assertions) {
        return Err("this is a debug build; numbers come from `cargo run --release` only".into());
    }
    if layers::force_scalar() {
        return Err(
            "VDB_FORCE_SCALAR=1 is set; unset it, the benchmark measures the dispatched kernels"
                .into(),
        );
    }
    if args.smoke {
        return smoke();
    }
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    if args.selfcheck {
        return selfcheck(args.seed, seconds);
    }
    println!("{}", fingerprint(args.seed, seconds, Scale::full()));
    let inputs = Inputs::generate(Scale::full(), args.seed);
    println!("inputs generated in {:.3} s", inputs.generate_s);
    if let Some(name) = &args.workload {
        let w = workloads::find(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {names:?}")
        })?;
        let report = workloads::run(w, &inputs, &config(seconds, args.trace))?;
        print_report(&report, args.trace);
        // The driver reads the last line of standard output.
        println!("{}", result_line(&report, args.trace)?);
        return Ok(report.correct);
    }
    let suite = run_suite(&inputs, seconds)?;
    if let Some(path) = &args.out {
        let record = suite_record(
            &suite,
            &fingerprint_fields(args.seed, seconds, Scale::full()),
        )?;
        std::fs::write(path, record + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("record written to {}", path.display());
    }
    Ok(suite
        .iter()
        .all(|(plain, traced)| plain.correct && traced.correct))
}

fn config(seconds: f64, trace: bool) -> RunConfig {
    RunConfig {
        seconds,
        trace,
        setups: if trace { 1 } else { SETUPS },
        trace_dir: trace.then(trace_dir),
    }
}

/// Build outputs are the one place the checkout already ignores.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target.join("vdbbench-out")
}

/// Every workload, untraced then traced.
fn run_suite(inputs: &Inputs, seconds: f64) -> Result<Vec<(Report, Report)>, String> {
    let mut suite = Vec::new();
    for w in &WORKLOADS {
        let plain = workloads::run(w, inputs, &config(seconds, false))?;
        print_report(&plain, false);
        let traced = workloads::run(w, inputs, &config(seconds, true))?;
        print_report(&traced, true);
        suite.push((plain, traced));
    }
    Ok(suite)
}

// ----------------------------------------------------------------- output

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn print_report(report: &Report, trace: bool) {
    println!(
        "\n== {} ({}) ==",
        report.workload.name,
        if trace {
            "traced pass, per-layer"
        } else {
            "tracing off, end to end"
        }
    );
    println!("  why: {}", report.workload.why);
    for note in &report.notes {
        println!("  {note}");
    }
    for (d, value) in report.values.in_order(defs(trace)) {
        println!(
            "  {:<38} {:>16.6} {:<6} ({} is better)",
            d.name,
            value,
            d.unit,
            d.better.word()
        );
    }
    println!(
        "  correct {}  attempted {}  failed {}",
        report.correct, report.attempted, report.failed
    );
}

fn metrics_object(report: &Report, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for (d, value) in report.values.in_order(defs(trace)) {
        let entry = json::object(&[
            ("value", json::number(d.name, value)?),
            ("unit", json::string(d.unit)),
        ]);
        fields.push((d.name, entry));
    }
    Ok(json::object(&fields))
}

fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    Ok(json::object(&[
        ("correct", report.correct.to_string()),
        ("attempted", report.attempted.to_string()),
        ("failed", report.failed.to_string()),
        ("metrics", metrics_object(report, trace)?),
    ]))
}

fn suite_record(
    suite: &[(Report, Report)],
    fingerprint: &[(&str, String)],
) -> Result<String, String> {
    let mut rows = Vec::new();
    for (plain, traced) in suite {
        rows.push(json::object(&[
            ("workload", json::string(plain.workload.name)),
            ("correct", (plain.correct && traced.correct).to_string()),
            ("attempted", plain.attempted.to_string()),
            ("failed", plain.failed.to_string()),
            ("end_to_end", metrics_object(plain, false)?),
            ("per_layer", metrics_object(traced, true)?),
            (
                "notes",
                json::array(
                    &plain
                        .notes
                        .iter()
                        .map(|n| json::string(n))
                        .collect::<Vec<_>>(),
                ),
            ),
        ]));
    }
    Ok(json::object(&[
        ("fingerprint", json::object(fingerprint)),
        ("workloads", json::array(&rows)),
    ]))
}

// ------------------------------------------------------------ fingerprint

fn fingerprint_fields(seed: u64, seconds: f64, scale: Scale) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("kernel", json::string(&layers::active_kernel())),
        ("rustc", json::string(env!("VDBBENCH_RUSTC"))),
        ("commit", json::string(&git_commit())),
        ("seed", seed.to_string()),
        ("seconds", format!("{seconds}")),
        ("rows", scale.rows.to_string()),
        ("dim", inputs::DIM.to_string()),
        ("queries", scale.n_queries.to_string()),
        ("mixture", scale.mixture.to_string()),
        ("k", inputs::K.to_string()),
        ("clusters", scale.ivf.clusters.to_string()),
        (
            "sample_ratio_thousandths",
            scale.ivf.sample_ratio_thousandths.to_string(),
        ),
        ("nprobe", inputs::NPROBE.to_string()),
        ("page_bytes", layers::PAGE_BYTES.to_string()),
        ("resident_pool_pages", scale.resident_pool_pages.to_string()),
        ("cold_pool_pages", scale.cold_pool_pages.to_string()),
    ]
}

fn fingerprint(seed: u64, seconds: f64, scale: Scale) -> String {
    let fields: Vec<String> = fingerprint_fields(seed, seconds, scale)
        .iter()
        .map(|(k, v)| format!("{k}={}", v.trim_matches('"')))
        .collect();
    format!("vdbbench {}", fields.join(" "))
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, and then this is "unknown".
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |c| c.trim().to_string()),
        None => head,
    }
}

// -------------------------------------------------------------- selfcheck

/// End-to-end metrics that must repeat exactly for a seed (`index_mb`
/// not under churn, whose insert count follows the clock).
fn exact_e2e(w: &Workload, metric: &str) -> bool {
    metric == "recall_at_10" || (metric == "index_mb" && w.mix != inputs::Mix::Churn)
}

/// Counts of the traced pass that must repeat exactly with one client.
const EXACT_LAYER: [&str; 2] = ["storage.pins_per_query", "storage.evictions_per_query"];

/// Run the suite twice on one seed and hold the second run against the
/// first: every end-to-end metric within its bound, every exact-repeat
/// count identical. The machine now and then runs a quarter slower for
/// some seconds, which one run of the two then shows; a timing metric
/// out of bound therefore gets a third run of its workload and passes
/// if that agrees with either of the first two.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    println!("{}", fingerprint(seed, seconds, Scale::full()));
    let inputs = Inputs::generate(Scale::full(), seed);
    let a = run_suite(&inputs, seconds)?;
    let b = run_suite(&inputs, seconds)?;
    let mut agree = true;
    println!("\n== selfcheck: run A against run B, seed {seed} ==");
    println!(
        "{:<30} {:<28} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for (w, ((a_plain, a_traced), (b_plain, b_traced))) in WORKLOADS.iter().zip(a.iter().zip(&b)) {
        agree &= a_plain.correct && a_traced.correct && b_plain.correct && b_traced.correct;
        let mut third: Option<Report> = None;
        for ((d, x), (_, y)) in a_plain
            .values
            .in_order(END_TO_END)
            .zip(b_plain.values.in_order(END_TO_END))
        {
            let bound = d.bound.expect("end-to-end metrics have bounds");
            let apart = |p: f64, q: f64| worse_by(d.better, p, q).max(worse_by(d.better, q, p));
            let exact = exact_e2e(w, d.name);
            let mut ok = if exact { x == y } else { apart(x, y) <= bound };
            let mut verdict = verdict_word(ok, exact).to_string();
            if !ok && !exact {
                if third.is_none() {
                    third = Some(workloads::run(w, &inputs, &config(seconds, false))?);
                }
                let z = third
                    .as_ref()
                    .and_then(|r| r.values.get(d.name))
                    .unwrap_or(f64::NAN);
                ok = apart(x, z) <= bound || apart(y, z) <= bound;
                verdict = format!(
                    "{verdict}; third run {z:.6} {}",
                    if ok { "agrees" } else { "DISAGREES" }
                );
            }
            agree &= ok;
            println!(
                "{:<30} {:<28} {:>14.6} {:>14.6} {:>7.2}% {:>6.0}%  {verdict}",
                w.name,
                d.name,
                x,
                y,
                100.0 * apart(x, y),
                100.0 * bound,
            );
        }
        if w.clients == 1 {
            for name in EXACT_LAYER {
                let (x, y) = (a_traced.values.get(name), b_traced.values.get(name));
                let ok = x == y && x.is_some();
                agree &= ok;
                println!(
                    "{:<30} {:<28} {:>14.6} {:>14.6} {:>8} {:>7}  {}",
                    w.name,
                    name,
                    x.unwrap_or(f64::NAN),
                    y.unwrap_or(f64::NAN),
                    "",
                    "exact",
                    verdict_word(ok, true)
                );
            }
        }
    }
    println!(
        "selfcheck: {}",
        if agree {
            "the runs agree"
        } else {
            "DISAGREEMENT"
        }
    );
    Ok(agree)
}

/// Share of `from` by which `to` is worse, 0 if it is not.
fn worse_by(better: Better, from: f64, to: f64) -> f64 {
    if from == 0.0 {
        return if to == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (to - from) / from.abs();
    match better {
        Better::Lower => change.max(0.0),
        Better::Higher => (-change).max(0.0),
    }
}

fn verdict_word(ok: bool, exact: bool) -> &'static str {
    match (ok, exact) {
        (true, true) => "identical",
        (true, false) => "within bound",
        (false, true) => "DIFFERS",
        (false, false) => "OUT OF BOUND",
    }
}

// ------------------------------------------------------------------ smoke

/// Drive all six workloads and the trace path at toy size. The numbers
/// mean nothing; what is checked is that every path runs, every result
/// passes the checker and every metric is defined and finite.
fn smoke() -> Result<bool, String> {
    let inputs = Inputs::generate(Scale::smoke(), 7);
    let dir = trace_dir().join(format!("smoke-{}", std::process::id()));
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                seconds: 0.15,
                trace,
                setups: 1,
                trace_dir: trace.then(|| dir.clone()),
            };
            let report = workloads::run(w, &inputs, &cfg)?;
            result_line(&report, trace)?;
            // Toy-sized indexes are not held to the full-size recall floor.
            let fine = report.failed == 0 && report.attempted > 0;
            println!(
                "smoke {:<30} trace {} attempted {:>5} failed {} {}",
                w.name,
                u8::from(trace),
                report.attempted,
                report.failed,
                if fine { "ok" } else { "FAILED" }
            );
            for note in report.notes.iter().filter(|n| n.starts_with("failure")) {
                println!("  {note}");
            }
            ok &= fine;
        }
    }
    let traces = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    // The scratch directory is the smoke pass's own.
    let _ = std::fs::remove_dir_all(&dir);
    if traces != WORKLOADS.len() {
        return Err(format!(
            "{traces} trace files written, expected {}",
            WORKLOADS.len()
        ));
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pass_drives_every_workload_and_the_trace_path() {
        assert_eq!(smoke(), Ok(true));
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload topk.decoupled --seed 9 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("topk.decoupled"), 9, Some(5.0), true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(workloads::find("topk.decoupled").is_some());
        assert!(workloads::find("nope").is_none());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert_eq!(worse_by(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worse_by(Better::Lower, 10.0, 9.0), 0.0);
        assert_eq!(worse_by(Better::Higher, 10.0, 9.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 10.0, 12.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut values = metrics::Values::default();
        values.set("p50_ms", 1.25);
        let report = Report {
            workload: &WORKLOADS[0],
            correct: true,
            attempted: 10,
            failed: 0,
            values,
            notes: Vec::new(),
        };
        let line = result_line(&report, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        let mut bad = metrics::Values::default();
        bad.set("qps", f64::NAN);
        let report = Report {
            values: bad,
            ..report
        };
        assert!(result_line(&report, false).is_err());
    }
}
