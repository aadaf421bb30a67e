//! Per-layer probes of the traced run: hdc-core kernels replayed at the
//! workloads' exact shapes, `ServableModel::infer_window` and the runtime
//! steps of a serving window timed directly, and single passes driven
//! through `PassManager` on a program the benchmark builds.

use crate::apps::{Datasets, DIM, PERF_STRIDE, TOP_K};
use crate::stats::{median, ms, Metrics, SplitMix};
use crate::trace::Trace;
use hdc_core::batch::{
    accumulate_by_segment, arg_top_k_batch, cosine_similarity_batch, hamming_distance_batch,
    score_epoch, SimilarityMetric,
};
use hdc_core::element::ElementKind;
use hdc_core::matmul::matmul_batch;
use hdc_core::{BitMatrix, HyperMatrix, Perforation};
use hdc_ir::builder::ProgramBuilder;
use hdc_ir::program::Program;
use hdc_ir::stage::ScorePolarity;
use hdc_passes::{
    BinarizeOptions, BinarizePass, DataMovementPass, DcePass, PassManager, PerforationConfig,
    PerforationPass, TargetAssignPass, TargetConfig,
};
use hdc_runtime::{Executor, Value};
use hdc_serve::ServableModel;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-time budget of one probe's repetitions.
const BUDGET: Duration = Duration::from_millis(150);

/// Window sizes `infer_window` is timed at.
const WINDOWS: [(usize, &str); 4] = [(1, "b1"), (4, "b4"), (8, "b8"), (32, "b32")];

fn bipolar(rows: usize, cols: usize, rng: &mut SplitMix) -> HyperMatrix<f64> {
    HyperMatrix::from_fn(
        rows,
        cols,
        |_, _| {
            if rng.next_u64() & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        },
    )
}

fn rows_of(m: &HyperMatrix<f64>, n: usize) -> HyperMatrix<f64> {
    HyperMatrix::from_flat(n, m.cols(), m.as_slice()[..n * m.cols()].to_vec())
        .expect("row prefix of a matrix")
}

/// Call `f` repeatedly within the probe budget, one span per call, and
/// return the median call time in ms.
fn probe(trace: &mut Trace, name: &'static str, tag: &'static str, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let begin = Instant::now();
    while times.len() < 5 || (times.len() < 200 && begin.elapsed() < BUDGET) {
        let (_, id) = trace.time(name, tag, None, &mut f);
        times.push(trace.duration_ms(id));
    }
    median(&times)
}

/// Time one kernel call repeatedly, record a span per call, and report its
/// median time with the work and traffic its tensor sizes imply.
fn kernel(
    trace: &mut Trace,
    m: &mut Metrics,
    name: &'static str,
    tag: &'static str,
    ops: f64,
    bytes: f64,
    f: impl FnMut(),
) {
    let t = probe(trace, name, tag, f);
    let base = name.trim_start_matches("kernel.");
    m.put(format!("kernel.{base}_ms.{tag}"), t, "ms");
    m.put(format!("kernel.{base}.ops.{tag}"), ops, "count");
    m.put(format!("kernel.{base}.bytes.{tag}"), bytes, "B");
}

/// hdc-core kernels at the shapes the apps and the served model run them.
/// `.ops` and `.bytes` are computed from tensor sizes, not measured: each
/// input tensor is counted once plus the output.
pub fn kernels(data: &Datasets, seed: u64, trace: &mut Trace, m: &mut Metrics) {
    let mut rng = SplitMix::new(seed);
    let d = DIM as f64;
    let isolet = &data.isolet[0];
    let f = isolet.meta.features;
    let rp = bipolar(DIM, f, &mut rng);
    let dense = Perforation::NONE;
    let strided = Perforation::strided(0, usize::MAX, PERF_STRIDE);
    let visited = Perforation::strided(0, usize::MAX, PERF_STRIDE).visited_count(DIM) as f64;

    for (tag, q) in [
        ("b1", rows_of(&isolet.test.features, 1)),
        ("b8", rows_of(&isolet.test.features, 8)),
        ("train", isolet.train.features.clone()),
    ] {
        let n = q.rows() as f64;
        let ops = 2.0 * n * d * f as f64;
        let bytes = 8.0 * (n * f as f64 + d * f as f64 + n * d);
        kernel(trace, m, "kernel.encode", tag, ops, bytes, || {
            black_box(matmul_batch(black_box(&q), &rp, dense).expect("encode"));
        });
    }

    let classes = isolet.meta.classes;
    let test_bits = BitMatrix::from_dense(&bipolar(isolet.test.len(), DIM, &mut rng));
    let class_bits = BitMatrix::from_dense(&bipolar(classes, DIM, &mut rng));
    let (n, c) = (test_bits.rows() as f64, classes as f64);
    for (tag, perf, v) in [("infer", dense, d), ("infer_perf", strided, visited)] {
        let bytes = (n + c) * d / 8.0 + 8.0 * n * c;
        kernel(trace, m, "kernel.hamming", tag, n * c * v, bytes, || {
            black_box(hamming_distance_batch(&test_bits, &class_bits, perf).expect("hamming"));
        });
    }

    let oms = &data.oms;
    let queries = bipolar(oms.test.len(), DIM, &mut rng);
    let library = bipolar(oms.train.len(), DIM, &mut rng);
    let (n, c) = (queries.rows() as f64, library.rows() as f64);
    for (tag, perf, v) in [("match", dense, d), ("match_perf", strided, visited)] {
        let bytes = 8.0 * (n * d + c * d + n * c);
        kernel(
            trace,
            m,
            "kernel.cossim",
            tag,
            2.0 * n * c * v,
            bytes,
            || {
                black_box(cosine_similarity_batch(&queries, &library, perf).expect("cossim"));
            },
        );
    }
    let scores = cosine_similarity_batch(&queries, &library, dense).expect("cossim");
    let bytes = 8.0 * n * c + 8.0 * n * TOP_K as f64;
    kernel(trace, m, "kernel.top_k", "match", n * c, bytes, || {
        black_box(arg_top_k_batch(&scores, TOP_K).expect("top-k"));
    });

    let train = bipolar(isolet.train.len(), DIM, &mut rng);
    let class_hvs = HyperMatrix::from_fn(classes, DIM, |_, _| (rng.below(9) as f64) - 4.0);
    let (n, c) = (train.rows() as f64, classes as f64);
    let bytes = 8.0 * (n * d + c * d + n * c);
    kernel(
        trace,
        m,
        "kernel.score_epoch",
        "classify",
        2.0 * n * c * d,
        bytes,
        || {
            black_box(
                score_epoch(&train, &class_hvs, SimilarityMetric::Cosine, dense).expect("epoch"),
            );
        },
    );

    let emg = &data.emg;
    let k = emg.meta.classes;
    let samples = bipolar(emg.train.len(), DIM, &mut rng);
    let segments: Vec<usize> = (0..samples.rows()).map(|_| rng.below(k)).collect();
    let init = HyperMatrix::zeros(k, DIM);
    let n = samples.rows() as f64;
    let bytes = 8.0 * (n * d + 2.0 * k as f64 * d);
    kernel(
        trace,
        m,
        "kernel.accumulate",
        "cluster",
        n * d,
        bytes,
        || {
            black_box(accumulate_by_segment(&samples, &segments, &init).expect("accumulate"));
        },
    );
}

/// `ServableModel::infer_window` timed directly at each window size, and
/// the runtime steps of a b1 and a b32 window driven through `Executor`.
pub fn windows(model: &ServableModel, pool: &[Vec<f64>], trace: &mut Trace, m: &mut Metrics) {
    for (b, tag) in WINDOWS {
        let rows: Vec<Vec<f64>> = pool.iter().cycle().take(b).cloned().collect();
        let t = probe(trace, "serve.infer_window", tag, || {
            black_box(model.infer_window(&rows, true, None).expect("window runs"));
        });
        m.put(format!("serve.window_exec_ms.{tag}"), t, "ms");
    }
    let rp = model.projection().clone();
    let classes = model
        .class_memory()
        .expect("a classifier serves a class memory")
        .clone();
    for (b, tag) in [(1, "serve_b1"), (32, "serve_b32")] {
        let program = model.program_for(b).expect("window program");
        let flat: Vec<f64> = pool.iter().cycle().take(b).flatten().copied().collect();
        let queries = Value::matrix(
            HyperMatrix::from_flat(b, model.features(), flat).expect("window query matrix"),
        );
        let (mut new, mut bind, mut run) = (Vec::new(), Vec::new(), Vec::new());
        let begin = Instant::now();
        while new.len() < 5 || (new.len() < 200 && begin.elapsed() < BUDGET) {
            let t0 = Instant::now();
            let mut exec = Executor::new(&program).expect("window program verifies");
            let t1 = Instant::now();
            exec.bind("queries", queries.clone()).expect("queries bind");
            exec.bind("rp_matrix", rp.clone())
                .expect("projection binds");
            exec.bind("class_memory", classes.clone())
                .expect("class memory binds");
            let t2 = Instant::now();
            black_box(exec.run().expect("window runs"));
            let t3 = Instant::now();
            let root = trace.record("bench.window", tag, t0, t3, None, None);
            trace.record("exec.new", tag, t0, t1, Some(root), None);
            trace.record("exec.bind", tag, t1, t2, Some(root), None);
            trace.record("exec.run", tag, t2, t3, Some(root), None);
            new.push(ms(t1 - t0) * 1e3);
            bind.push(ms(t2 - t1) * 1e3);
            run.push(ms(t3 - t2));
        }
        m.put(format!("exec.new_us.{tag}"), median(&new), "us");
        m.put(format!("exec.bind_us.{tag}"), median(&bind), "us");
        m.put(format!("exec.run_ms.{tag}"), median(&run), "ms");
    }
}

/// The served classifier's shape as an uncompiled program: encode a window
/// of queries, binarize the class memory, Hamming inference.
fn serving_program(features: usize, classes: usize) -> Program {
    let mut b = ProgramBuilder::new("bench_serve");
    let queries = b.input_matrix("queries", ElementKind::F64, 32, features);
    let rp = b.input_matrix("rp_matrix", ElementKind::F64, DIM, features);
    let class_hvs = b.input_matrix("class_hvs", ElementKind::F64, classes, DIM);
    let enc = b.encoding_loop("encode", queries, DIM, |b, q| {
        let e = b.matmul(q, rp);
        b.sign(e)
    });
    let class_bits = b.sign(class_hvs);
    let preds = b.inference_loop("infer", enc, class_bits, ScorePolarity::Distance, |b, q| {
        b.hamming_distance(q, class_bits)
    });
    b.mark_output(preds);
    b.finish()
}

/// The passes of the standard pipeline, in pipeline order.
const PASSES: [&str; 5] = [
    "binarize",
    "perforation",
    "data_movement",
    "target_assign",
    "dce",
];

fn manager_for(label: &str) -> PassManager {
    let pm = PassManager::new();
    match label {
        "binarize" => pm.with_pass(BinarizePass::new(BinarizeOptions::default())),
        "perforation" => pm.with_pass(PerforationPass::new(PerforationConfig::strided_similarity(
            PERF_STRIDE,
        ))),
        "data_movement" => pm.with_pass(DataMovementPass),
        "target_assign" => pm.with_pass(TargetAssignPass::new(TargetConfig::default())),
        _ => pm.with_pass(DcePass),
    }
}

/// Each pass of the standard pipeline run alone through `PassManager` (its
/// time includes the manager's verification before and after), and the
/// number of IR nodes the program has after it.
pub fn passes(features: usize, classes: usize, trace: &mut Trace, m: &mut Metrics) {
    let mut program = serving_program(features, classes);
    for label in PASSES {
        let mut times = Vec::new();
        let begin = Instant::now();
        while times.len() < 5 || (times.len() < 200 && begin.elapsed() < BUDGET) {
            let mut p = program.clone();
            let mut manager = manager_for(label);
            let (report, id) = trace.time("compile.pass", label, None, || manager.run(&mut p));
            black_box(report.expect("pass accepts the program"));
            times.push(trace.duration_ms(id));
        }
        manager_for(label)
            .run(&mut program)
            .expect("pass accepts the program");
        m.put(
            format!("compile.pass_us.{label}"),
            median(&times) * 1e3,
            "us",
        );
        m.put(
            format!("ir.nodes_after.{label}"),
            program.nodes().len() as f64,
            "count",
        );
    }
}
