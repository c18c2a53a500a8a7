//! The serve layer, measured in the traced run of `skewed-rmat`: the
//! same R-MAT matrix registered on a default `Server` and driven as an
//! open loop. Requests arrive on a seeded Poisson schedule whatever the
//! server's state; one generator thread submits them and one collector
//! thread waits for them. Every 16th request is a width-8
//! `submit_batch`, which bypasses coalescing and competes with it.
//! Latency is timed from each request's due time.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use s2d::sparse::Csr;
use s2d::{ConfigKey, KernelIsa, Prepared, Session};
use s2d_perfbench::stats::{percentile_sorted, sorted, tail};
use s2d_perfbench::sys::cpu_seconds;
use s2d_perfbench::trace::Tracer;
use s2d_perfbench::SeedRng;
use s2d_serve::{PrepKey, ServeError, Server, ServerConfig, SessionId, Ticket};

use crate::layers::{cpu_per_wall, format_counts, same_bits, BATCH};
use crate::report::Report;
use crate::rmat::{strategy, K};

/// Offered rate of the low step, requests per second.
pub const LO_RPS: f64 = 1000.0;

/// Offered rate of the high step, requests per second. Coalescing
/// packs a few requests per batch here, yet the server stays clear of
/// saturation on a 2-core host, so no request is refused.
pub const HI_RPS: f64 = 2000.0;

/// Every `WIDE_EVERY`-th request is a width-8 batch.
pub const WIDE_EVERY: usize = 16;

/// Latency limit of `serve.max_rps`: p99 at or below it.
pub const P99_LIMIT_MS: f64 = 5.0;

/// A step whose generator ran later than the latency limit at p99 is
/// invalid: the generator, not the server, fell behind.
pub const GEN_LATE_LIMIT_MS: f64 = P99_LIMIT_MS;

/// A step whose completions fall below this share of the offered rate
/// had a growing backlog.
pub const MIN_ACHIEVED: f64 = 0.95;

/// Offered rates the traced run climbs to find `serve.max_rps`.
pub const LADDER: [f64; 9] =
    [1000.0, 1500.0, 2000.0, 3000.0, 4500.0, 6000.0, 8000.0, 11000.0, 15000.0];

/// Distinct right-hand sides requests cycle through.
const NVEC: usize = 16;

/// A registered session with its inputs and reference outputs.
struct Fixture {
    server: Server,
    sid: SessionId,
    xs: Vec<Vec<f64>>,
    refs: Vec<Vec<f64>>,
    blocks: Vec<Vec<f64>>,
    block_refs: Vec<Vec<f64>>,
}

/// One request as the collector sees it.
struct Sent {
    req: u64,
    vec: usize,
    wide: bool,
    due: Instant,
    submitted: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// What one step at a fixed offered rate measured.
struct Step {
    rate: f64,
    attempted: usize,
    refused: usize,
    mismatched: usize,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wall_s: f64,
    achieved_over_offered: f64,
    /// Process CPU seconds per wall second over the step.
    cpu_per_wall: f64,
    /// `(request id, submitted, done)` of every answered request.
    spans: Vec<(u64, Instant, Instant)>,
}

impl Step {
    /// Whether the generator kept to its schedule.
    fn valid(&self) -> bool {
        self.late_p99_ms() <= GEN_LATE_LIMIT_MS
    }

    fn late_p99_ms(&self) -> f64 {
        percentile_sorted(&sorted(&self.late_ms), 99.0)
    }

    /// Latency percentile `p` in ms; 0 when no request was answered
    /// (the refusals then show in `failed`).
    fn latency_pct(&self, p: f64) -> f64 {
        if self.latency_ms.is_empty() {
            0.0
        } else {
            percentile_sorted(&sorted(&self.latency_ms), p)
        }
    }

    fn p50_ms(&self) -> f64 {
        self.latency_pct(50.0)
    }

    fn p99_ms(&self) -> f64 {
        self.latency_pct(99.0)
    }

    /// Meets the latency limit with no failures and no growing backlog.
    fn passes(&self) -> bool {
        self.refused == 0
            && self.mismatched == 0
            && !self.latency_ms.is_empty()
            && self.p99_ms() <= P99_LIMIT_MS
            && self.achieved_over_offered >= MIN_ACHIEVED
    }

    fn describe(&self) -> String {
        let p50 = self.p50_ms();
        let tail = tail(&self.latency_ms)
            .map_or("n/a".to_string(), |(p, v, beyond)| format!("p{p}={v:.3}ms ({beyond} beyond)"));
        let late_max = self.late_ms.iter().copied().fold(0.0, f64::max);
        format!(
            "serve step offered={}rps achieved/offered={:.3} n={} refused={} mismatched={} \
             p50={p50:.3}ms tail {tail} gen_late p99={:.3}ms max={late_max:.3}ms cpu/wall={:.2} {}",
            self.rate,
            self.achieved_over_offered,
            self.attempted,
            self.refused,
            self.mismatched,
            self.late_p99_ms(),
            self.cpu_per_wall,
            if self.valid() { "valid" } else { "INVALID (generator fell behind)" }
        )
    }
}

/// The session's `Prepared`, taken from the server's own cache, so the
/// reference session is stamped from the same artifact the server runs.
fn cached_prepared(r: &mut Report, server: &Server, a: &Csr) -> std::sync::Arc<Prepared> {
    let cfg = ServerConfig::default();
    let key = PrepKey {
        key: ConfigKey::of(a, K, cfg.max_coalesce.max(1)),
        strategy: Some(strategy()),
        plan_kind: None,
        format: cfg.format,
        isa: KernelIsa::Auto,
    };
    let mut hit = true;
    let prep = server.cache().get_or_prepare(key, || {
        hit = false;
        Session::builder(a).partitioner(strategy(), K).kernel_format(cfg.format).prepare()
    });
    r.check(hit, || "the registered preparation is not in the server's cache".into());
    prep
}

fn fixture(r: &mut Report, server: Server, sid: SessionId, a: &Csr, seed: u64) -> Fixture {
    let prep = cached_prepared(r, &server, a);
    let cfg = ServerConfig::default();
    let mut reference = prep.session(cfg.backend, BATCH);
    let [csr, sell, dense] = format_counts(prep.compiled());
    r.prov("serve_backend", cfg.backend);
    r.prov("serve_format_kernels", format!("csr={csr} sell={sell} dense_split={dense}"));
    let (n, m) = (a.ncols(), a.nrows());
    let mut rng = SeedRng::new(seed, 3);
    let xs: Vec<Vec<f64>> = (0..NVEC).map(|_| rng.vector(n)).collect();
    let refs: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; m];
            reference.apply(x, &mut y);
            y
        })
        .collect();
    let blocks = (0..NVEC).map(|i| block(&xs, i, n)).collect();
    let block_refs = (0..NVEC).map(|i| block(&refs, i, m)).collect();
    Fixture { server, sid, xs, refs, blocks, block_refs }
}

/// The row-major width-8 block of vectors `i, i+1, ..` (cyclically).
fn block(vs: &[Vec<f64>], i: usize, len: usize) -> Vec<f64> {
    let mut out = vec![0.0; len * BATCH];
    for c in 0..BATCH {
        for (j, v) in vs[(i + c) % vs.len()].iter().enumerate() {
            out[j * BATCH + c] = *v;
        }
    }
    out
}

/// Drives `fx` at `rate` requests per second for `dur`, Poisson
/// arrivals drawn from `rng`; request ids start at `first_req`.
fn run_step(fx: &Fixture, rate: f64, dur: Duration, rng: &mut SeedRng, first_req: u64) -> Step {
    let count = ((rate * dur.as_secs_f64()).ceil() as usize).max(1);
    let mut offsets = Vec::with_capacity(count);
    let mut at = 0.0f64;
    for _ in 0..count {
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        at += -u.ln() / rate;
        offsets.push(Duration::from_secs_f64(at));
    }
    let mut step = Step {
        rate,
        attempted: count,
        refused: 0,
        mismatched: 0,
        latency_ms: Vec::with_capacity(count),
        late_ms: Vec::with_capacity(count),
        wall_s: 0.0,
        achieved_over_offered: 0.0,
        cpu_per_wall: 0.0,
        spans: Vec::with_capacity(count),
    };
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut last_done = t0;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Sent>();
        let offsets = &offsets;
        s.spawn(move || {
            for (i, off) in offsets.iter().enumerate() {
                let due = t0 + *off;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let wide = i % WIDE_EVERY == WIDE_EVERY - 1;
                let vec = i % NVEC;
                let submitted = Instant::now();
                let ticket = if wide {
                    fx.server.submit_batch(fx.sid, fx.blocks[vec].clone(), BATCH)
                } else {
                    fx.server.submit(fx.sid, fx.xs[vec].clone())
                };
                let sent = Sent { req: first_req + i as u64, vec, wide, due, submitted, ticket };
                if tx.send(sent).is_err() {
                    break;
                }
            }
        });
        for sent in rx {
            step.late_ms.push(ms(sent.submitted.saturating_duration_since(sent.due)));
            let Ok(ticket) = sent.ticket else {
                step.refused += 1;
                continue;
            };
            let out = ticket.wait();
            let done = Instant::now();
            last_done = last_done.max(done);
            match out {
                Ok(y) => {
                    let want =
                        if sent.wide { &fx.block_refs[sent.vec] } else { &fx.refs[sent.vec] };
                    if same_bits(&y, want) {
                        step.latency_ms.push(ms(done.saturating_duration_since(sent.due)));
                        step.spans.push((sent.req, sent.submitted, done));
                    } else {
                        step.mismatched += 1;
                    }
                }
                Err(_) => step.refused += 1,
            }
        }
    });
    step.cpu_per_wall = cpu_per_wall(cpu0, wall0);
    step.wall_s = last_done.saturating_duration_since(t0).as_secs_f64();
    // The schedule's own rate, so Poisson noise in the last arrival does
    // not read as a backlog.
    let scheduled = offsets.last().map_or(0.0, Duration::as_secs_f64);
    let answered = step.latency_ms.len() as f64;
    step.achieved_over_offered =
        if step.wall_s > 0.0 { answered / count as f64 * scheduled / step.wall_s } else { 0.0 };
    step
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn count(r: &mut Report, step: &Step) {
    for _ in 0..step.attempted - step.refused - step.mismatched {
        r.ok();
    }
    for _ in 0..step.refused {
        r.refused();
    }
    for _ in 0..step.mismatched {
        r.mismatch(format!("a response at {} rps differs from the reference", step.rate));
    }
}

/// Registers the matrix on a default server (a cache miss, then a hit),
/// then climbs the offered-rate ladder with one span per request.
/// A short warm-up step and the steps at [`LO_RPS`] and [`HI_RPS`] count
/// as the workload's operations; the steps above are a capacity probe
/// whose refusals show in `serve.refused_frac`.
pub fn traced(r: &mut Report, t: &mut Tracer, a: &Csr, seed: u64) {
    let server = Server::new(ServerConfig::default());
    let sid = t.span("serve", "Server::register", |_| server.register(a, strategy(), K));
    let hit = t.span("serve", "Server::register(hit)", |_| server.register(a, strategy(), K));
    server.unregister(hit);
    r.set("serve.register_miss_s", t.durations("Server::register")[0]);
    r.set("serve.register_hit_s", t.durations("Server::register(hit)")[0]);
    let fx = fixture(r, server, sid, a, seed);

    let mut rng = SeedRng::new(seed, 4);
    let warm = run_step(&fx, LO_RPS, Duration::from_millis(300), &mut rng, 0);
    count(r, &warm);
    let before = fx.server.snapshot();
    let mut req = warm.attempted as u64;
    let (mut max_rps, mut climbing) = (0.0f64, true);
    let (mut lo, mut hi) = (None, None);
    let mut invalid = 0;
    for rate in LADDER {
        if !climbing && rate != LO_RPS && rate != HI_RPS {
            continue;
        }
        let dur = Duration::from_secs_f64((1200.0 / rate).max(0.6));
        let step = run_step(&fx, rate, dur, &mut rng, req);
        req += step.attempted as u64;
        r.note(step.describe());
        for &(id, s, e) in &step.spans {
            t.record("serve", "submit->wait", Some(id), s, e);
        }
        invalid += usize::from(!step.valid());
        if climbing && step.passes() && step.valid() {
            max_rps = rate;
        } else {
            climbing = false;
        }
        if rate == LO_RPS || rate == HI_RPS {
            count(r, &step);
            if rate == LO_RPS {
                lo = Some(step);
            } else {
                hi = Some(step);
            }
        }
    }
    let after = fx.server.snapshot();
    let (lo, hi) = (lo.expect("ladder runs the low rate"), hi.expect("ladder runs the high rate"));
    let batches = after.batches - before.batches;
    let coalesced = after.coalesced - before.coalesced;
    let rejected = after.rejected_full - before.rejected_full;
    let offered = after.admitted - before.admitted + rejected;
    r.set("serve.reqs_per_batch", coalesced as f64 / batches.max(1) as f64);
    r.set("serve.refused_frac", rejected as f64 / offered.max(1) as f64);
    let late: Vec<f64> = lo.late_ms.iter().chain(&hi.late_ms).copied().collect();
    r.set("serve.gen_late_p99_ms", percentile_sorted(&sorted(&late), 99.0));
    r.set("serve.gen_late_max_ms", late.iter().copied().fold(0.0, f64::max));
    r.set("serve.p50_ms_lo", lo.p50_ms());
    r.set("serve.p99_ms_lo", lo.p99_ms());
    r.set("serve.p50_ms_hi", hi.p50_ms());
    r.set("serve.p99_ms_hi", hi.p99_ms());
    r.set("serve.max_rps", max_rps);
    r.set("serve.achieved_over_offered_hi", hi.achieved_over_offered);
    r.set("serve.invalid_steps", invalid as f64);
    r.note(format!("serve counters {}", after.to_json()));
    fx.server.shutdown();
}
