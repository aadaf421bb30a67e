//! The offline app suite at the full sizes of `perf_json`: six app variants,
//! each a twin of one that bypasses a tuning pass.

use crate::stats::{ms, sub_seed};
use crate::trace::Trace;
use hdc_apps::{ClassificationApp, ClusteringApp, ExecMode, MatchingApp};
use hdc_datasets::synthetic::{
    emg_like, hyperoms_like, isolet_like, EmgParams, HyperOmsParams, IsoletParams,
};
use hdc_datasets::Dataset;
use hdc_ir::program::{Program, ValueRole};
use hdc_passes::{CompileOptions, PerforationConfig};
use hdc_runtime::{ExecStats, Executor, Value};
use std::time::Instant;

pub const DIM: usize = 2048;
const EPOCHS: usize = 3;
const ROUNDS: usize = 3;
pub const TOP_K: usize = 10;
pub const PERF_STRIDE: usize = 2;

/// The six variants, in the order every round runs them.
pub const VARIANTS: [&str; 6] = [
    "classify",
    "classify_dense",
    "classify_perf",
    "cluster",
    "match",
    "match_perf",
];

/// ISOLET-like datasets per run. Retraining time depends on how many
/// samples each epoch re-scores, which varies with the data by about ±10 %
/// between seeds; the classification variants rotate over several
/// datasets so one run's median does not hinge on one draw.
const ISOLET_SETS: usize = 4;

pub struct Datasets {
    pub isolet: Vec<Dataset>,
    pub emg: Dataset,
    pub oms: Dataset,
}

/// Generate the datasets from the workload seed.
pub fn generate(seed: u64) -> Datasets {
    Datasets {
        isolet: (0..ISOLET_SETS as u64)
            .map(|i| {
                isolet_like(&IsoletParams {
                    seed: sub_seed(seed, 10 + i),
                    ..IsoletParams::default()
                })
            })
            .collect(),
        emg: emg_like(&EmgParams {
            gestures: 8,
            channels: 4,
            window: 64,
            train_per_class: 24,
            test_per_class: 1,
            noise: 0.6,
            phase_jitter: 0.5,
            seed: sub_seed(seed, 2),
        }),
        oms: hyperoms_like(&HyperOmsParams {
            library_size: 256,
            bins: 400,
            peaks: 24,
            queries_per_entry: 2,
            seed: sub_seed(seed, 3),
            ..HyperOmsParams::default()
        }),
    }
}

fn perforated() -> CompileOptions {
    CompileOptions {
        perforation: PerforationConfig::strided_similarity(PERF_STRIDE),
        ..CompileOptions::default()
    }
}

enum App {
    Classify(ClassificationApp),
    Cluster(ClusteringApp),
    Match(MatchingApp),
}

/// One constructed app plus its inputs, pre-wrapped as `Arc`-backed values
/// so binding them is a reference-count bump (as in the apps).
struct Instance {
    app: App,
    inputs: Vec<(&'static str, Value)>,
}

/// One variant, constructed once per dataset it rotates over; round `r`
/// runs instance `r % instances`.
pub struct Variant {
    pub name: &'static str,
    instances: Vec<Instance>,
}

/// One batched or sequential run: the app's primary output and quality.
pub struct RunOut {
    pub output: Vec<usize>,
    pub quality: f64,
}

impl Variant {
    /// Construct (build and compile) variant `name` on each dataset; the
    /// datasets are cloned by the caller so only the constructors are
    /// inside any timing.
    pub fn build(name: &'static str, data: Vec<Dataset>) -> Variant {
        Variant {
            name,
            instances: data.into_iter().map(|d| Instance::build(name, d)).collect(),
        }
    }

    pub fn instances(&self) -> usize {
        self.instances.len()
    }

    /// Classification instance `k` (a served model's source).
    pub fn classification(&self, k: usize) -> Option<&ClassificationApp> {
        match &self.instances[k].app {
            App::Classify(app) => Some(app),
            _ => None,
        }
    }

    /// Samples per training pass times the passes, for the rescore rate;
    /// `None` for variants that do not train.
    pub fn trained_samples(&self, round: usize) -> Option<usize> {
        match &self.instance(round).app {
            App::Classify(a) => Some(a.epochs() * a.dataset().train.len()),
            _ => None,
        }
    }

    fn instance(&self, round: usize) -> &Instance {
        &self.instances[round % self.instances.len()]
    }

    /// `run(mode)` of the round's instance.
    pub fn run(&self, mode: ExecMode, round: usize) -> RunOut {
        self.instance(round).run(mode)
    }

    /// The round's instance through the traced runtime steps.
    pub fn run_traced(&self, trace: &mut Trace, round: usize) -> Traced {
        self.instance(round).run_traced(self.name, trace)
    }
}

impl Instance {
    fn build(name: &'static str, data: Dataset) -> Instance {
        let matrix = |m: &hdc_core::HyperMatrix<f64>| Value::matrix(m.clone());
        let (app, inputs) = match name {
            "classify" | "classify_dense" | "classify_perf" => {
                let options = match name {
                    "classify" => CompileOptions::default(),
                    "classify_dense" => CompileOptions::baseline(),
                    _ => perforated(),
                };
                let inputs = vec![
                    ("train_features", matrix(&data.train.features)),
                    ("test_features", matrix(&data.test.features)),
                    ("train_labels", Value::indices(data.train.labels.clone())),
                ];
                let app = ClassificationApp::with_options(data, DIM, EPOCHS, &options)
                    .expect("classification app compiles");
                (App::Classify(app), inputs)
            }
            "cluster" => {
                let inputs = vec![("samples", matrix(&data.train.features))];
                let app = ClusteringApp::new(data, DIM, ROUNDS).expect("clustering app compiles");
                (App::Cluster(app), inputs)
            }
            "match" | "match_perf" => {
                let options = if name == "match" {
                    CompileOptions::default()
                } else {
                    perforated()
                };
                let inputs = vec![
                    ("library", matrix(&data.train.features)),
                    ("queries", matrix(&data.test.features)),
                ];
                let app = MatchingApp::with_options(data, DIM, TOP_K, &options)
                    .expect("matching app compiles");
                (App::Match(app), inputs)
            }
            other => panic!("unknown app variant {other}"),
        };
        Instance { app, inputs }
    }

    fn program(&self) -> &Program {
        match &self.app {
            App::Classify(a) => a.program(),
            App::Cluster(a) => a.program(),
            App::Match(a) => a.program(),
        }
    }

    fn run(&self, mode: ExecMode) -> RunOut {
        match &self.app {
            App::Classify(a) => {
                let r = a.run(mode).expect("classification runs");
                RunOut {
                    output: r.predictions,
                    quality: r.accuracy,
                }
            }
            App::Cluster(a) => {
                let r = a.run(mode).expect("clustering runs");
                RunOut {
                    output: r.assignments,
                    quality: r.purity,
                }
            }
            App::Match(a) => {
                let r = a.run(mode).expect("matching runs");
                RunOut {
                    output: r.candidates,
                    quality: r.recall_at_k,
                }
            }
        }
    }

    /// The steps of `run(ExecMode::Batched)` driven through the runtime's
    /// public API, each step a span under one `bench.app` root.
    fn run_traced(&self, name: &'static str, trace: &mut Trace) -> Traced {
        let begin = Instant::now();
        let t = Instant::now();
        let mut exec = Executor::new(self.program()).expect("app program verifies");
        let t_new = Instant::now();
        for (slot, value) in &self.inputs {
            exec.bind(slot, value.clone()).expect("app input binds");
        }
        let t_bind = Instant::now();
        let out = exec.run().expect("app program runs");
        let t_run = Instant::now();
        let outputs: Vec<Vec<usize>> = self
            .program()
            .values_with_role(ValueRole::Output)
            .into_iter()
            .filter_map(|id| out.indices(id).ok().map(<[usize]>::to_vec))
            .collect();
        let (batched, total) = exec.stage_trace().iter().fold((0, 0), |(b, n), s| {
            (b + if s.batched { s.samples } else { 0 }, n + s.samples)
        });
        let stats = exec.stats();
        drop(exec);
        let end = Instant::now();
        let root = trace.record("bench.app", name, begin, end, None, None);
        trace.record("exec.new", name, t, t_new, Some(root), None);
        trace.record("exec.bind", name, t_new, t_bind, Some(root), None);
        trace.record("exec.run", name, t_bind, t_run, Some(root), None);
        Traced {
            outputs,
            stats,
            batched_stage_share: batched as f64 / total.max(1) as f64,
            new_us: ms(t_new - t) * 1e3,
            bind_us: ms(t_bind - t_new) * 1e3,
            run_ms: ms(t_run - t_bind),
            total_ms: ms(end - begin),
        }
    }
}

pub struct Traced {
    /// Every index-vector output of the program.
    pub outputs: Vec<Vec<usize>>,
    pub stats: ExecStats,
    pub batched_stage_share: f64,
    pub new_us: f64,
    pub bind_us: f64,
    pub run_ms: f64,
    pub total_ms: f64,
}

/// The datasets each variant runs on.
pub fn datasets_for<'d>(data: &'d Datasets, name: &str) -> Vec<&'d Dataset> {
    match name {
        "cluster" => vec![&data.emg],
        "match" | "match_perf" => vec![&data.oms],
        _ => data.isolet.iter().collect(),
    }
}
