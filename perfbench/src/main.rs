//! The repository benchmark: serving latency at two loads and offline app
//! run time, with a traced run that times the calls into each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_low|serve_high|apps --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any reply that differs
//! from the sequential oracle, or a request ledger that does not balance,
//! makes the command exit with status 1. See `README.md` for the workloads
//! and what each metric measures.

mod apps;
mod layers;
mod serve;
mod stats;
mod trace;

use apps::{Variant, VARIANTS};
use hdc_apps::ExecMode;
use hdc_serve::{Prediction, ServableModel};
use serve::Outcome;
use stats::{json_number, median, ms, percentile, sub_seed, Metrics};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Trace;

const USAGE: &str =
    "usage: perfbench --workload serve_low|serve_high|apps --seed N --seconds S --trace 0|1";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Share of the measured time a workload spends on its own phase; the
/// rest goes to the other phase, which reports the remaining metrics.
const MAIN_SHARE: f64 = 0.6;
/// Fewest timed app-suite rounds per run.
const MIN_ROUNDS: usize = 8;
/// Untimed app-suite work before the timed rounds. On a shared VM the
/// first two seconds or so of sustained work after a quiet spell (such as
/// serving at 200 req/s) ran up to 1.5x slower, which would make the app
/// medians depend on what ran before them.
const WARM_UP: Duration = Duration::from_millis(2500);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeLow,
    ServeHigh,
    Apps,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ServeLow => "serve_low",
            Workload::ServeHigh => "serve_high",
            Workload::Apps => "apps",
        }
    }

    /// Offered load in requests per second. `serve_low` sits well below
    /// batch-1 capacity, `serve_high` above it but at most a quarter of
    /// 32-row capacity; `apps` serves at the low rate for its latency.
    fn rate(self) -> f64 {
        match self {
            Workload::ServeHigh => 1000.0,
            _ => 200.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "serve_low" => Workload::ServeLow,
                    "serve_high" => Workload::ServeHigh,
                    "apps" => Workload::Apps,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Requests and app runs, by outcome.
#[derive(Default)]
struct Ledger {
    sent: usize,
    completed: usize,
    failed: usize,
    rejected: usize,
    mismatched: usize,
    app_runs: usize,
    app_mismatched: usize,
    problems: Vec<String>,
}

impl Ledger {
    fn add_phase(&mut self, phase: &serve::Phase) {
        let (completed, failed, rejected, mismatched) = (
            phase.count(Outcome::Correct),
            phase.count(Outcome::Failed),
            phase.count(Outcome::Rejected),
            phase.count(Outcome::Mismatched),
        );
        let sent = phase.records.len();
        self.sent += sent;
        self.completed += completed;
        self.failed += failed;
        self.rejected += rejected;
        self.mismatched += mismatched;
        // The service's own counters must agree with what the sender saw.
        // A counter the service no longer reports is skipped, not failed.
        let stat = |key| json_number(&phase.stats_json, key).map(|v| v as usize);
        for (key, expected) in [
            ("submitted", sent - rejected),
            ("rejected", rejected),
            ("completed", completed + mismatched),
        ] {
            if let Some(got) = stat(key) {
                if got != expected {
                    self.problems.push(format!(
                        "service reports {key} = {got}, sender saw {expected}"
                    ));
                }
            }
        }
    }

    fn balanced(&self) -> bool {
        self.sent == self.completed + self.failed + self.rejected + self.mismatched
    }

    fn correct(&self) -> bool {
        self.balanced()
            && self.mismatched == 0
            && self.app_mismatched == 0
            && self.problems.is_empty()
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"sent\": {}, \"completed\": {}, \"failed\": {}, \"rejected\": {}, \"mismatched\": {}, \"app_runs\": {}, \"app_mismatched\": {}, \"balanced\": {}, \"problems\": {:?}}}",
            self.sent, self.completed, self.failed, self.rejected, self.mismatched,
            self.app_runs, self.app_mismatched, self.balanced(), self.problems
        )
    }
}

/// Everything the runs share: the constructed app variants, the servable
/// model and the oracle answers, built before anything is timed.
struct Setup {
    variants: Vec<Variant>,
    model: Arc<ServableModel>,
    /// Held-out ISOLET-like rows the serving phases send.
    pool: Vec<Vec<f64>>,
    pool_oracle: Vec<Prediction>,
    /// `run(ExecMode::Sequential)` output and quality of every instance of
    /// every variant.
    app_oracle: Vec<Vec<(Vec<usize>, f64)>>,
}

fn build_variants(data: &apps::Datasets, per_variant_ms: Option<&mut [Vec<f64>]>) -> Vec<Variant> {
    // The constructors consume their datasets; clone them outside the
    // timed region.
    let inputs: Vec<Vec<_>> = VARIANTS
        .iter()
        .map(|v| apps::datasets_for(data, v).into_iter().cloned().collect())
        .collect();
    let mut variants = Vec::new();
    let mut times = per_variant_ms;
    for (i, (name, datasets)) in VARIANTS.iter().zip(inputs).enumerate() {
        let t = Instant::now();
        let variant = Variant::build(name, datasets);
        if let Some(times) = times.as_deref_mut() {
            times[i].push(ms(t.elapsed()) / variant.instances() as f64);
        }
        variants.push(variant);
    }
    variants
}

/// Compute the oracle answers, then build the suite and the model
/// `SETUP_REPS` times and keep the last build. Records `setup_s` and the
/// per-step medians.
///
/// The app oracle runs first, on a build of its own: its seconds of
/// sequential work also bring the VM out of the slow state it starts in,
/// so the timed set-up does not depend on how quiet the host was before.
/// Rep `r` builds the served model from dataset `r mod ISOLET_SETS`, since
/// the harvest run retrains and its time varies with the data.
fn set_up(data: &apps::Datasets, m: &mut Metrics, layer: &mut Metrics) -> Setup {
    let app_oracle = build_variants(data, None)
        .iter()
        .map(|v| {
            (0..v.instances())
                .map(|k| {
                    let r = v.run(ExecMode::Sequential, k);
                    (r.output, r.quality)
                })
                .collect()
        })
        .collect();

    let mut total = Vec::new();
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); VARIANTS.len()];
    let mut model_build = Vec::new();
    let mut built = None;
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let begin = Instant::now();
        let variants = build_variants(data, Some(&mut per_variant));
        let t = Instant::now();
        let k = rep % variants[0].instances();
        let app = variants[0]
            .classification(k)
            .expect("the first variant is the default classifier");
        let model = ServableModel::classifier(serve::MODEL, app).expect("servable model builds");
        model_build.push(ms(t.elapsed()));
        total.push(begin.elapsed().as_secs_f64());
        built = Some((variants, model, k));
    }
    m.put("setup_s", median(&total), "s");
    for (name, times) in VARIANTS.iter().zip(&per_variant) {
        layer.put(format!("compile.{name}_ms"), median(times), "ms");
    }
    layer.put("serve.model_build_ms", median(&model_build), "ms");

    let (variants, model, k) = built.expect("at least one set-up repetition");
    let model = Arc::new(model);
    let test = &data.isolet[k].test.features;
    let pool: Vec<Vec<f64>> = test.iter_rows().map(<[f64]>::to_vec).collect();
    let pool_oracle = pool
        .iter()
        .map(|row| model.oracle_infer(row).expect("oracle answers a valid row"))
        .collect();
    // Fill the per-window-size program cache the way a running service
    // does after its first window of each size.
    for rows in 1..=hdc_serve::WindowConfig::default().max_batch {
        model.program_for(rows).expect("window program");
    }
    Setup {
        variants,
        model,
        pool,
        pool_oracle,
        app_oracle,
    }
}

/// Run app-suite rounds, at least `min_rounds` and until `budget` has
/// passed, appending each variant's batched run time in ms to `times`
/// (`None` runs the rounds untimed and unchecked, as a warm-up). With a
/// trace, every variant also runs through the traced runtime steps right
/// after its untraced run.
fn app_rounds(
    setup: &Setup,
    min_rounds: usize,
    budget: Duration,
    mut times: Option<&mut [Vec<f64>]>,
    mut trace: Option<(&mut Trace, &mut Vec<Vec<apps::Traced>>)>,
    ledger: &mut Ledger,
) {
    let begin = Instant::now();
    let mut round = 0;
    while round < min_rounds || begin.elapsed() < budget {
        for (i, v) in setup.variants.iter().enumerate() {
            let oracle = &setup.app_oracle[i][round % v.instances()].0;
            let t = Instant::now();
            let run = v.run(ExecMode::Batched, round);
            let Some(times) = times.as_deref_mut() else {
                continue;
            };
            times[i].push(ms(t.elapsed()));
            ledger.app_runs += 1;
            if run.output != *oracle {
                ledger.app_mismatched += 1;
            }
            if let Some((trace, traced)) = trace.as_mut() {
                let t = v.run_traced(trace, round);
                ledger.app_runs += 1;
                if !t.outputs.iter().any(|o| o == oracle) {
                    ledger.app_mismatched += 1;
                }
                traced[i].push(t);
            }
        }
        round += 1;
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let workload = args.workload;
    let seed = args.seed;
    println!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rayon_threads\": {}, \"kernel_backend\": \"{}\", \"rustc\": \"{}\", \"HDC_NUM_THREADS\": {}}}}}",
        workload.name(),
        seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rayon::current_num_threads(),
        hdc_core::simd::selected().name(),
        rustc_version(),
        std::env::var("HDC_NUM_THREADS").map_or("null".to_string(), |v| format!("{v:?}")),
    );

    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    let mut ledger = Ledger::default();
    let mut tr = Trace::new(origin);

    let t = Instant::now();
    let data = apps::generate(seed);
    let gen_end = Instant::now();
    tr.record("data.generate", "", t, gen_end, None, None);
    layer.put("data.gen_ms", ms(gen_end - t), "ms");

    let setup = set_up(&data, &mut e2e, &mut layer);

    // Serving, then app-suite rounds. The workload's own phase gets most
    // of the measured time; a traced run serves twice, on an untraced and
    // then a traced service.
    let seconds = Duration::from_secs_f64(args.seconds);
    let serve_share = match workload {
        Workload::Apps => 1.0 - MAIN_SHARE,
        _ => MAIN_SHARE,
    };
    let serve_span = seconds.mul_f64(serve_share);
    let rate = workload.rate();
    let schedule = |stream: u64, span: Duration| {
        serve::poisson_schedule(rate, span, setup.pool.len(), sub_seed(seed, stream))
    };
    let mut plain = serve::Server::start(&setup.model);
    let mut traced = None;
    if args.trace {
        let half = serve_span / 2;
        plain.run(&setup.pool, &setup.pool_oracle, &schedule(20, half), None);
        let mut server = serve::Server::start(&setup.model);
        server.run(
            &setup.pool,
            &setup.pool_oracle,
            &schedule(21, half),
            Some(&mut tr),
        );
        traced = Some(server);
    } else {
        plain.run(
            &setup.pool,
            &setup.pool_oracle,
            &schedule(20, serve_span),
            None,
        );
    }

    app_rounds(&setup, 1, WARM_UP, None, None, &mut ledger);
    let mut app_times = vec![Vec::new(); VARIANTS.len()];
    let mut app_traced: Vec<Vec<apps::Traced>> = (0..VARIANTS.len()).map(|_| Vec::new()).collect();
    let trace = args.trace.then_some((&mut tr, &mut app_traced));
    let app_span = seconds.mul_f64(1.0 - serve_share);
    app_rounds(
        &setup,
        MIN_ROUNDS,
        app_span,
        Some(&mut app_times),
        trace,
        &mut ledger,
    );

    let plain = plain.finish();
    ledger.add_phase(&plain);
    let latency = plain.latencies_ms();

    if !args.trace {
        e2e.put("latency_p50_ms", percentile(&latency, 50.0), "ms");
        for (name, times) in VARIANTS.iter().zip(&app_times) {
            e2e.put(format!("{name}_ms"), median(times), "ms");
        }
    } else {
        let traced = traced.expect("started for a traced run").finish();
        ledger.add_phase(&traced);
        // p99 does not repeat from run to run on a shared 2-CPU host, so it
        // is reported here, from the untraced services, not as end to end.
        layer.put("latency_p99_ms", percentile(&latency, 99.0), "ms");
        layer.put(
            "trace.overhead_ms.latency_p50",
            traced.latency_ms(50.0) - percentile(&latency, 50.0),
            "ms",
        );
        serve_layer_metrics(&traced, &ledger, &mut layer);

        let mut overhead = 0.0;
        for ((name, plain), traced) in VARIANTS.iter().zip(&app_times).zip(&app_traced) {
            let pick =
                |f: fn(&apps::Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
            overhead += pick(|t| t.total_ms) - median(plain);
            layer.put(format!("exec.new_us.{name}"), pick(|t| t.new_us), "us");
            layer.put(format!("exec.bind_us.{name}"), pick(|t| t.bind_us), "us");
            layer.put(format!("exec.run_ms.{name}"), pick(|t| t.run_ms), "ms");
        }
        layer.put("trace.overhead_ms.apps", overhead, "ms");
        exec_count_metrics(&setup, &app_traced, &mut layer);

        layers::windows(&setup.model, &setup.pool, &mut tr, &mut layer);
        layers::kernels(&data, sub_seed(seed, 30), &mut tr, &mut layer);
        layers::passes(
            data.isolet[0].meta.features,
            data.isolet[0].meta.classes,
            &mut tr,
            &mut layer,
        );
        if let Err(e) = tr.check_closure() {
            ledger.problems.push(format!("trace closure: {e}"));
        }
        let by_layer = tr
            .self_ms_by_layer()
            .into_iter()
            .map(|(l, v)| format!("\"{l}\": {v:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"self_ms_by_layer\": {{{by_layer}}}, \"spans\": {}}}",
            tr.len()
        );
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{seed}.jsonl",
            workload.name(),
        ));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("{{\"spans_file\": {:?}}}", path.display().to_string()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    let rss = stats::peak_rss_mb().unwrap_or(0.0);
    if args.trace {
        layer.put("trace.peak_rss_mb", rss, "MB");
    } else {
        e2e.put("peak_rss_mb", rss, "MB");
    }

    let quality = VARIANTS
        .iter()
        .zip(&setup.app_oracle)
        .map(|(n, runs)| {
            let q = runs.iter().map(|(_, q)| q).sum::<f64>() / runs.len() as f64;
            format!("\"{n}\": {q:.4}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"ledger\": {}, \"quality\": {{{quality}}}, \"samples\": {{\"latency\": {}, \"app_rounds\": {}, \"setup_reps\": {SETUP_REPS}}}}}",
        ledger.to_json(),
        latency.len(),
        app_times[0].len(),
    );

    let correct = ledger.correct();
    let metrics = if args.trace { &layer } else { &e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.sent + ledger.app_runs,
        ledger.sent - ledger.completed + ledger.app_mismatched,
        metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Per-request and per-window serving metrics from the traced service.
fn serve_layer_metrics(phase: &serve::Phase, ledger: &Ledger, layer: &mut Metrics) {
    let rs = &phase.records;
    let submit_us: Vec<f64> = rs.iter().map(|r| ms(r.submitted - r.sent) * 1e3).collect();
    let reply_ms: Vec<f64> = rs
        .iter()
        .filter(|r| r.outcome != Outcome::Rejected)
        .map(|r| ms(r.done - r.submitted))
        .collect();
    let lag_ms: Vec<f64> = rs.iter().map(|r| ms(r.sent - r.due)).collect();
    layer.put("serve.submit_us.p50", percentile(&submit_us, 50.0), "us");
    layer.put("serve.submit_us.p99", percentile(&submit_us, 99.0), "us");
    layer.put("serve.reply_ms.p50", percentile(&reply_ms, 50.0), "ms");
    layer.put("serve.reply_ms.p99", percentile(&reply_ms, 99.0), "ms");
    layer.put("serve.gen_lag_ms.p99", percentile(&lag_ms, 99.0), "ms");
    layer.put("serve.gen_lag_ms.max", percentile(&lag_ms, 100.0), "ms");
    let stat = |key| json_number(&phase.stats_json, key);
    if let Some(windows) = stat("windows") {
        layer.put("serve.windows", windows, "count");
        if let Some(rows) = stat("rows_dispatched") {
            layer.put("serve.rows_per_window", rows / windows.max(1.0), "rows");
        }
        if let Some(deadline) = stat("deadline_windows") {
            layer.put(
                "serve.deadline_window_share",
                deadline / windows.max(1.0),
                "ratio",
            );
        }
    }
    if let Some(p) = stat("partitioned_windows") {
        layer.put("serve.partitioned_windows", p, "count");
    }
    layer.put("serve.failed", ledger.failed as f64, "count");
    layer.put("serve.rejected", ledger.rejected as f64, "count");
    layer.put("serve.mismatched", ledger.mismatched as f64, "count");
}

/// Executor counters of the base variants (their twins differ only where
/// the bypassed pass acts), the rescore rate of retraining and the share of
/// stage samples that ran batched.
fn exec_count_metrics(setup: &Setup, traced: &[Vec<apps::Traced>], layer: &mut Metrics) {
    for (i, v) in setup.variants.iter().enumerate() {
        if !matches!(v.name, "classify" | "cluster" | "match") {
            continue;
        }
        let last = traced[i].last().expect("at least one traced round");
        let s = &last.stats;
        let name = v.name;
        for (key, value, unit) in [
            ("instructions", s.instructions_executed, "count"),
            ("batched_kernel_ops", s.batched_kernel_ops, "count"),
            ("bit_kernel_ops", s.bit_kernel_ops, "count"),
            ("tensor_bytes_copied", s.tensor_bytes_copied, "B"),
            ("shard_merge_ops", s.shard_merge_ops, "count"),
            ("epoch_kernel_ops", s.epoch_kernel_ops, "count"),
        ] {
            layer.put(format!("exec.{key}.{name}"), value as f64, unit);
        }
        layer.put(
            format!("exec.batched_stage_share.{name}"),
            last.batched_stage_share,
            "ratio",
        );
        if let Some(trained) = v.trained_samples(traced[i].len() - 1) {
            layer.put(
                format!("exec.rescore_rate.{name}"),
                s.rescored_samples as f64 / trained as f64,
                "ratio",
            );
        }
    }
}
