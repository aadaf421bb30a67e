//! Open-loop serving load generator.
//!
//! One thread sends requests on a seeded Poisson schedule and never blocks
//! on a reply: every `ResponseFuture` is polled with a waker of its own,
//! which stamps the completion time on the replying thread and unparks the
//! sender. A request is timed from when it was due, so a stall that delays
//! later sends is charged to them, and the sender reports its own lateness.

use crate::stats::{ms, percentile, SplitMix};
use crate::trace::Trace;
use hdc_serve::{ModelRegistry, Prediction, ResponseFuture, ServableModel, Service, ServiceConfig};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Registry key of the served model.
pub const MODEL: &str = "isolet";

/// How long the sender waits for stragglers after its last send before it
/// counts them as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// One scheduled request: when it is due after the start, and which pooled
/// query it sends.
pub struct Arrival {
    pub due: Duration,
    pub query: usize,
}

/// Seeded Poisson arrivals at `rate` per second over `span`.
pub fn poisson_schedule(rate: f64, span: Duration, pool: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed);
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -rng.unit().ln() / rate;
        if at >= span.as_secs_f64() {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(at),
            query: rng.below(pool),
        });
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The reply equals the sequential oracle.
    Correct,
    /// A reply that differs from the oracle.
    Mismatched,
    /// An error after the request was accepted, or no reply in time.
    Failed,
    /// An error returned at submission.
    Rejected,
}

pub struct Record {
    pub due: Instant,
    pub sent: Instant,
    pub submitted: Instant,
    pub done: Instant,
    pub outcome: Outcome,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }
}

/// Completions reported by request wakers, drained by the sender.
struct Completions {
    sender: Thread,
    woken: Mutex<Vec<(usize, Instant)>>,
}

struct RequestWaker {
    id: usize,
    sink: Arc<Completions>,
}

impl Wake for RequestWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let at = Instant::now();
        self.sink
            .woken
            .lock()
            .expect("a waker panicked while holding the completion list")
            .push((self.id, at));
        self.sink.sender.unpark();
    }
}

fn judge(
    result: hdc_serve::Result<Prediction>,
    expected: &Prediction,
    first_poll: bool,
) -> Outcome {
    match result {
        Ok(p) if p == *expected => Outcome::Correct,
        Ok(_) => Outcome::Mismatched,
        Err(hdc_serve::ServeError::Execution(_)) => Outcome::Failed,
        Err(_) if first_poll => Outcome::Rejected,
        Err(_) => Outcome::Failed,
    }
}

/// Keep a finished request's record; when tracing, also record its spans.
fn store(
    records: &mut [Option<Record>],
    trace: &mut Option<&mut Trace>,
    first_id: usize,
    id: usize,
    r: Record,
) {
    if let Some(trace) = trace.as_deref_mut() {
        let request = Some((first_id + id) as u64);
        let root = trace.record("bench.request", "", r.due, r.done, None, request);
        trace.record("bench.gen_lag", "", r.due, r.sent, Some(root), request);
        trace.record("serve.submit", "", r.sent, r.submitted, Some(root), request);
        trace.record("serve.reply", "", r.submitted, r.done, Some(root), request);
    }
    records[id] = Some(r);
}

/// Send `schedule` to `service` from the calling thread and collect one
/// record per request; span request ids start at `first_id`. With a trace, each request's spans are recorded as
/// it completes: a root from due to reply with three parts, the sender's
/// lateness, the `Service::submit` call and the wait for the reply.
fn drive(
    service: &Service,
    pool: &[Vec<f64>],
    oracle: &[Prediction],
    schedule: &[Arrival],
    first_id: usize,
    mut trace: Option<&mut Trace>,
) -> Vec<Record> {
    struct Open {
        fut: ResponseFuture,
        waker: Waker,
        query: usize,
        due: Instant,
        sent: Instant,
        submitted: Instant,
    }
    let sink = Arc::new(Completions {
        sender: std::thread::current(),
        woken: Mutex::new(Vec::new()),
    });
    let n = schedule.len();
    let mut open: Vec<Option<Open>> = (0..n).map(|_| None).collect();
    let mut records: Vec<Option<Record>> = (0..n).map(|_| None).collect();
    let mut outstanding = 0usize;
    let mut woken = Vec::new();
    let start = Instant::now() + Duration::from_millis(2);
    let mut next = 0;
    let mut drain_until = None;
    loop {
        std::mem::swap(
            &mut *sink.woken.lock().expect("completion list lock"),
            &mut woken,
        );
        for (id, at) in woken.drain(..) {
            let Some(o) = open[id].as_mut() else { continue };
            let mut cx = Context::from_waker(&o.waker);
            if let Poll::Ready(result) = Pin::new(&mut o.fut).poll(&mut cx) {
                let o = open[id].take().expect("checked above");
                let record = Record {
                    due: o.due,
                    sent: o.sent,
                    submitted: o.submitted,
                    done: at,
                    outcome: judge(result, &oracle[o.query], false),
                };
                store(&mut records, &mut trace, first_id, id, record);
                outstanding -= 1;
            }
        }
        if next < n {
            let due = start + schedule[next].due;
            let now = Instant::now();
            if now < due {
                std::thread::park_timeout(due - now);
                continue;
            }
            let query = schedule[next].query;
            let row = pool[query].clone();
            let sent = Instant::now();
            let mut fut = service.submit(MODEL, row);
            let submitted = Instant::now();
            let waker = Waker::from(Arc::new(RequestWaker {
                id: next,
                sink: Arc::clone(&sink),
            }));
            match Pin::new(&mut fut).poll(&mut Context::from_waker(&waker)) {
                Poll::Ready(result) => {
                    let record = Record {
                        due,
                        sent,
                        submitted,
                        done: Instant::now(),
                        outcome: judge(result, &oracle[query], true),
                    };
                    store(&mut records, &mut trace, first_id, next, record);
                }
                Poll::Pending => {
                    open[next] = Some(Open {
                        fut,
                        waker,
                        query,
                        due,
                        sent,
                        submitted,
                    });
                    outstanding += 1;
                }
            }
            next += 1;
        } else if outstanding == 0 {
            break;
        } else {
            let limit = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
            let now = Instant::now();
            if now >= limit {
                break;
            }
            std::thread::park_timeout((limit - now).min(Duration::from_millis(5)));
        }
    }
    // Requests still open after the drain limit never answered.
    let gave_up = Instant::now();
    for (id, o) in open.into_iter().enumerate() {
        if let Some(o) = o {
            let record = Record {
                due: o.due,
                sent: o.sent,
                submitted: o.submitted,
                done: gave_up,
                outcome: Outcome::Failed,
            };
            store(&mut records, &mut trace, first_id, id, record);
        }
    }
    records
        .into_iter()
        .map(|r| r.expect("every request is recorded"))
        .collect()
}

/// A service started with the default configuration over one model, fed
/// schedule after schedule; the records accumulate across them.
pub struct Server {
    service: Arc<Service>,
    records: Vec<Record>,
}

impl Server {
    pub fn start(model: &Arc<ServableModel>) -> Server {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(MODEL, Arc::clone(model));
        Server {
            service: Service::start(registry, ServiceConfig::default()),
            records: Vec::new(),
        }
    }

    pub fn run(
        &mut self,
        pool: &[Vec<f64>],
        oracle: &[Prediction],
        schedule: &[Arrival],
        trace: Option<&mut Trace>,
    ) {
        let first = self.records.len();
        let records = drive(&self.service, pool, oracle, schedule, first, trace);
        self.records.extend(records);
    }

    /// Read the service's counters, shut it down and join its dispatcher.
    pub fn finish(self) -> Phase {
        let stats_json = self.service.stats_json();
        self.service.shutdown();
        drop(self.service);
        Phase {
            records: self.records,
            stats_json,
        }
    }
}

/// Everything one server saw.
pub struct Phase {
    pub records: Vec<Record>,
    /// `Service::stats_json()` after the last schedule.
    pub stats_json: String,
}

impl Phase {
    pub fn count(&self, outcome: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.outcome == Outcome::Correct)
            .map(Record::latency_ms)
            .collect()
    }

    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms(), p)
    }
}
