//! Serving benchmark of the CirCNN reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload open-mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`open-mixed`, `offline-batch` or `sharded-b1`, see
//! `perfbench/README.md`), checks every output against its oracle and
//! prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is the full report (host, phases, every metric); the report
//! and, for traced runs, the span dump are also written to
//! `perfbench/out/`. Any wrong output makes the exit code 1.

mod bench;
mod client;
mod metrics;
mod models;
mod offline;
mod open_mixed;
mod oracle;
mod probes;
mod report;
mod sharded;
mod steal;
mod trace;

use std::path::Path;

use bench::{Outcome, RunArgs};
use report::Json;

const WORKLOADS: [&str; 3] = ["open-mixed", "offline-batch", "sharded-b1"];

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Cli {
        workload,
        args: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tamper: None,
        },
    })
}

/// Runs `workload` and measures the process's peak memory after it.
fn execute(workload: &str, args: &RunArgs) -> (Outcome, f64) {
    let outcome = match workload {
        "open-mixed" => bench::run::<open_mixed::OpenMixed>(args),
        "offline-batch" => bench::run::<offline::Offline>(args),
        "sharded-b1" => bench::run::<sharded::Sharded>(args),
        _ => unreachable!("parse() accepts only known workloads"),
    };
    (outcome, report::peak_rss_mb())
}

/// The end-to-end metrics of `o` with their units, plus figures reported
/// beside them rather than bounded: the p99, which moved by over 25%
/// between runs of the same code on a shared 2-vCPU VM, and the shares
/// that are 0 on a healthy run.
fn end_to_end(
    o: &Outcome,
    f: &bench::Figures,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let s = &o.session;
    let sent = s.counts.sent.max(1) as f64;
    vec![
        ("setup_s", o.setup_s(), "s"),
        ("p50_ms", f.p50_ms, "ms"),
        ("throughput_per_s", f.throughput_per_s, "1/s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("p99_ms", f.p99_ms, "ms"),
        ("late_share", s.late as f64 / sent, "ratio"),
        ("failed_share", s.counts.failed as f64 / sent, "ratio"),
    ]
}

fn with_units(values: impl IntoIterator<Item = (String, f64, &'static str)>) -> Json {
    Json::obj(values.into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", unit.into())]),
        )
    }))
}

/// The final result line and the full report.
fn render(workload: &str, args: &RunArgs, o: &Outcome, peak_rss_mb: f64) -> (Json, Json) {
    let all = o.all();
    let figures = bench::figures(&o.session, &o.steal);
    let e2e = end_to_end(o, &figures, peak_rss_mb);
    let e2e_json = with_units(e2e.iter().map(|&(n, v, u)| (n.to_string(), v, u)));
    let layer_json = with_units(
        metrics::per_layer()
            .into_iter()
            .map(|(n, u)| (n.clone(), o.layer.get(&n).copied().unwrap_or(0.0), u)),
    );
    let metrics = if args.trace {
        layer_json.clone()
    } else {
        with_units(
            e2e.iter()
                .filter(|(n, _, _)| metrics::END_TO_END.contains(n))
                .map(|&(n, v, u)| (n.to_string(), v, u)),
        )
    };
    let result = Json::obj([
        ("correct", Json::Bool(all.wrong == 0)),
        ("attempted", all.sent.into()),
        ("failed", all.failed.into()),
        ("metrics", metrics),
    ]);
    let mut fields = vec![
        ("workload", workload.into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", Json::Bool(args.trace)),
        ("host", report::host(&root())),
        ("latency_limit_ms", o.limit_ms.into()),
        ("latency_samples", (figures.samples as u64).into()),
        (
            "latency_samples_all",
            (o.session.samples.len() as u64).into(),
        ),
        (
            "host_steal",
            Json::obj([
                ("share", o.steal.share().into()),
                ("calm_share", o.steal.calm_share().into()),
                ("calm_limit", o.steal.limit().into()),
                ("calm_wait_s", o.calm_wait_s.into()),
                (
                    "figures_from_calm_seconds_only",
                    Json::Bool(figures.calm_only),
                ),
            ]),
        ),
        (
            "setup_samples_s",
            Json::Arr(o.setup_samples_s.iter().map(|&v| v.into()).collect()),
        ),
        (
            "phases",
            Json::obj([
                ("warmup", o.warm.json()),
                ("timed", o.timed.json()),
                ("probe", o.probe.json()),
            ]),
        ),
        ("end_to_end", e2e_json),
    ];
    if workload == "open-mixed" {
        fields.push(("offered_rate_per_s", open_mixed::RATE_PER_S.into()));
        fields.push((
            "tenant_mix",
            Json::Arr(open_mixed::MIX.iter().map(|&m| m.into()).collect()),
        ));
    }
    if args.trace {
        fields.push(("per_layer", layer_json));
    }
    (result, Json::obj(fields))
}

/// The checkout root (the parent of this package).
fn root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
        .to_path_buf()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (outcome, rss) = execute(&cli.workload, &cli.args);
    let (result, full) = render(&cli.workload, &cli.args, &outcome, rss);

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        cli.workload,
        cli.args.seed,
        u8::from(cli.args.trace)
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), full.to_string()))
        .and_then(|()| {
            // One span dump per workload (the latest traced run): a dump
            // holds every request's spans and runs to tens of MB.
            if cli.args.trace {
                trace::dump(
                    &outcome.spans,
                    &out_dir.join(format!("{}.spans.jsonl", cli.workload)),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: writing the report to {}: {e}",
            out_dir.display()
        );
    }
    println!("{full}");
    println!("{result}");
    if outcome.all().wrong > 0 {
        eprintln!("perfbench: {} wrong outputs", outcome.all().wrong);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::Workload;

    fn tiny(tamper: Option<u64>) -> RunArgs {
        RunArgs {
            seed: 3,
            seconds: 0.3,
            trace: false,
            tamper,
        }
    }

    /// One perturbed output must fail the run: `correct` turns false and
    /// the wrong count, which sets the exit code, becomes 1.
    fn perturbed_output_fails<W: Workload>(name: &str, tamper: u64) {
        let clean = bench::run::<W>(&tiny(None));
        assert_eq!(clean.all().wrong, 0, "{name}: clean run");
        assert!(
            clean.all().ok > tamper,
            "{name}: the run must reach output {tamper}"
        );
        let bad = bench::run::<W>(&tiny(Some(tamper)));
        assert_eq!(
            bad.all().wrong,
            1,
            "{name}: exactly the perturbed output is wrong"
        );
        let (result, _) = render(name, &tiny(Some(tamper)), &bad, 1.0);
        assert!(
            result.to_string().starts_with(r#"{"correct":false,"#),
            "{name}: {result}"
        );
    }

    #[test]
    fn perturbed_output_fails_open_mixed() {
        // Output 100 falls in the warm-up of the second set-up, output 900
        // in the timed session.
        perturbed_output_fails::<open_mixed::OpenMixed>("open-mixed", 100);
        perturbed_output_fails::<open_mixed::OpenMixed>("open-mixed", 900);
    }

    #[test]
    fn perturbed_output_fails_offline_batch() {
        perturbed_output_fails::<offline::Offline>("offline-batch", 700);
    }

    #[test]
    fn perturbed_output_fails_sharded_b1() {
        perturbed_output_fails::<sharded::Sharded>("sharded-b1", 150);
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let json = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let body = json
                .split(&format!("\"{section}\""))
                .nth(1)
                .expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), metrics::END_TO_END);
        let layer: Vec<String> = metrics::per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names("per_layer"), layer);
        // `offline-batch` runs on demand but is not gated (see README).
        assert_eq!(names("workloads"), ["open-mixed", "sharded-b1"]);
    }

    #[test]
    fn cli_rejects_bad_flags() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&argv(
            "--workload open-mixed --seed 1 --seconds 5 --trace 0"
        ))
        .is_ok());
        assert!(parse(&argv("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload open-mixed --seed 1 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload open-mixed --seed 1 --seconds 5")).is_err());
    }
}
