//! Benchmark worker driven by `run.py`. Every invocation is one fresh
//! process that takes one kind of measurement through the public entry
//! points (`factor::conflux_lu`, `factor::confchox_cholesky`, `dense::gemm`,
//! `xmpi::launch::run`) and prints one JSON line on stdout.
//!
//! Modes (first argument):
//!
//! * `local` — one cold factorization call (the set-up sample), then warm
//!   calls for `--seconds`, on the in-process backend.
//! * `socket-call` — exactly one factorization on the socket backend. Rank
//!   processes re-execute this binary with the same arguments and replay
//!   every earlier world in-process, so a driver process launches one
//!   socket world and nothing else.
//! * `socket-empty` — an empty socket world: spawn, re-exec, mesh
//!   handshake and teardown.
//! * `pingpong` — postal-model α/β of one backend from a two-rank
//!   ping-pong.
//! * `kernels` — `dense::gemm` throughput at the LU update shape and at a
//!   deep-K shape.
//! * `traced` — untraced and traced calls alternated for `--seconds`; the
//!   traced run with the median makespan is split by schedule phase.
//!
//! Input generation, output checks and digests run outside every timed
//! region. Any `dense::Error`, rank failure or failed check counts as a
//! failed call.

use dense::gemm::{gemm, Trans};
use dense::Matrix;
use factor::{ConfchoxConfig, ConfluxConfig};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use xmpi::trace::Event;
use xmpi::{WorldStats, WorldTrace};
use xtrace::{Machine, Timeline};

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads getrusage with the Linux field layout and units");

/// Largest accepted relative residual ‖P·A − L·U‖_F/‖A‖_F (or
/// ‖A − L·Lᵀ‖_F/‖A‖_F). Backward-stable factorizations of these inputs land
/// near 1e-15; the margin absorbs growth with N.
const RESIDUAL_TOL: f64 = 1e-10;

/// Largest accepted gap between a rank's Σ(busy + wait) over phases and
/// the traced makespan, as a share of the makespan.
const COVERAGE_TOL: f64 = 0.01;

/// Tag of the ping-pong exchange, clear of the schedules' tag ranges.
const TAG_PINGPONG: u64 = 9_200_000;

/// Large ping-pong message: 1 MiB of f64.
const BIG_ELEMS: usize = 1 << 17;

fn main() {
    let mut argv = std::env::args().skip(1);
    let mode = argv
        .next()
        .expect("usage: perfbench <mode> [--flag value]...");
    let args = Args::parse(argv);
    let out = match mode.as_str() {
        "local" => local(&args),
        "socket-call" => socket_call(&args),
        "socket-empty" => socket_empty(&args),
        "pingpong" => pingpong(&args),
        "kernels" => kernels(&args),
        "traced" => traced(&args),
        other => panic!("unknown mode {other:?}"),
    };
    println!(
        "{}",
        serde_json::to_string(&out).expect("JSON values always serialize")
    );
}

/// `--key value` flags.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Args {
        let mut map = HashMap::new();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected a --flag, got {key:?}"));
            let value = it
                .next()
                .unwrap_or_else(|| panic!("flag {key} needs a value"));
            map.insert(name.to_string(), value);
        }
        Args(map)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> T {
        let raw = self
            .0
            .get(key)
            .unwrap_or_else(|| panic!("missing flag --{key}"));
        raw.parse()
            .unwrap_or_else(|_| panic!("flag --{key}: cannot parse {raw:?}"))
    }

    fn algo(&self) -> Algo {
        match self.get::<String>("algo").as_str() {
            "lu" => Algo::Lu,
            "chol" => Algo::Chol,
            other => panic!("flag --algo: unknown algorithm {other:?}"),
        }
    }
}

#[derive(Clone, Copy)]
enum Algo {
    Lu,
    Chol,
}

/// The matrix the workload factors, generated from the seed in O(N²).
fn input(algo: Algo, n: usize, seed: u64) -> Matrix {
    let r = dense::gen::random_matrix(n, n, seed);
    match algo {
        Algo::Lu => r,
        // Symmetric and strictly diagonally dominant with a positive
        // diagonal (off-diagonal row sums stay below n − 1), hence SPD,
        // without `random_spd`'s O(N³) B·Bᵀ product.
        Algo::Chol => Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64
            } else {
                r[(i.max(j), i.min(j))]
            }
        }),
    }
}

/// One factorization's outputs.
struct Solved {
    stats: WorldStats,
    factor: Matrix,
    perm: Vec<usize>,
}

/// Factor `a` with the workload's `auto` configuration on the ambient
/// backend. Kernel errors and rank failures (which the launcher raises as
/// panics) both come back as `Err`.
fn solve(algo: Algo, a: &Matrix, p: usize) -> Result<Solved, String> {
    let n = a.rows();
    let run = || match algo {
        Algo::Lu => factor::conflux_lu(&ConfluxConfig::auto(n, p), a).map(|o| Solved {
            stats: o.stats,
            factor: o.packed.expect("factor collection is on"),
            perm: o.perm,
        }),
        Algo::Chol => factor::confchox_cholesky(&ConfchoxConfig::auto(n, p), a).map(|o| Solved {
            stats: o.stats,
            factor: o.l.expect("factor collection is on"),
            perm: (0..n).collect(),
        }),
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(s)) => Ok(s),
        Ok(Err(e)) => Err(format!("kernel error: {e}")),
        Err(payload) => Err(format!(
            "rank failure: {}",
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default()
        )),
    }
}

/// FNV-1a over the factor's bit patterns and the permutation: two calls
/// agree on the digest iff (barring collisions) their outputs are bitwise
/// equal.
fn digest(s: &Solved) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = s
        .factor
        .data()
        .iter()
        .map(|x| x.to_bits())
        .chain(s.perm.iter().map(|&r| r as u64));
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn residual(algo: Algo, a: &Matrix, s: &Solved) -> f64 {
    match algo {
        Algo::Lu => dense::norms::lu_residual_perm(a, &s.factor, &s.perm),
        Algo::Chol => dense::norms::po_residual(a, &s.factor),
    }
}

/// Per-process counts of attempted and failed calls, and the per-call
/// checks: every call's `comm_bytes_rank_max` and factor digest must equal
/// the first call's.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    bytes: Option<u64>,
    digest: Option<String>,
}

impl Ledger {
    /// Record one call; returns its output when every per-call check passed.
    fn record(&mut self, r: Result<Solved, String>) -> Option<Solved> {
        self.attempted += 1;
        let s = match r {
            Ok(s) => s,
            Err(e) => return self.fail(e),
        };
        let bytes = s.stats.max_rank_bytes();
        if *self.bytes.get_or_insert(bytes) != bytes {
            return self.fail(format!("comm_bytes_rank_max changed to {bytes}"));
        }
        let d = digest(&s);
        if *self.digest.get_or_insert_with(|| d.clone()) != d {
            return self.fail(format!("factor digest changed to {d}"));
        }
        Some(s)
    }

    fn fail(&mut self, why: String) -> Option<Solved> {
        self.failed += 1;
        self.errors.push(why);
        None
    }

    /// The residual of `s`. Every recorded call is bitwise equal to `s`, so
    /// a failed residual fails them all.
    fn check_residual(&mut self, algo: Algo, a: &Matrix, s: &Solved) -> f64 {
        let r = residual(algo, a, s);
        if r.is_nan() || r > RESIDUAL_TOL {
            self.failed = self.attempted;
            self.errors
                .push(format!("residual {r:e} exceeds {RESIDUAL_TOL:e}"));
        }
        r
    }

    fn to_json(&self) -> Value {
        json!({
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "comm_bytes_rank_max": self.bytes,
            "digest": self.digest,
        })
    }
}

/// CPU seconds and peak resident memory of this process and its reaped
/// children (socket rank processes), from `getrusage(2)`.
struct Usage {
    cpu_s: f64,
    maxrss_mib: f64,
}

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage`: two timevals, then 14 longs of which only
/// `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let read = |who| {
        let mut u = RUsage::default();
        // SAFETY: `u` is a live, writable value with the layout of Linux's
        // `struct rusage` on 64-bit targets; getrusage writes only into it.
        let rc = unsafe { getrusage(who, &mut u) };
        assert_eq!(rc, 0, "getrusage failed");
        u
    };
    let (me, kids) = (read(RUSAGE_SELF), read(RUSAGE_CHILDREN));
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&me.utime) + secs(&me.stime) + secs(&kids.utime) + secs(&kids.stime),
        maxrss_mib: me.maxrss.max(kids.maxrss) as f64 / 1024.0,
    }
}

/// Run `f`, returning its result with wall and CPU seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let u0 = usage();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    (r, wall, usage().cpu_s - u0.cpu_s)
}

/// Workload shape and the resolved configuration, for provenance.
fn shape(args: &Args) -> Value {
    let (n, p): (usize, usize) = (args.get("n"), args.get("p"));
    let (grid, v) = match args.algo() {
        Algo::Lu => {
            let c = ConfluxConfig::auto(n, p);
            (c.grid, c.v)
        }
        Algo::Chol => {
            let c = ConfchoxConfig::auto(n, p);
            (c.grid, c.v)
        }
    };
    json!({
        "n": n,
        "p": p,
        "grid": format!("{}x{}x{}", grid.px, grid.py, grid.pz),
        "v": v,
    })
}

/// The kernel configuration the packed GEMM dispatches and whether the
/// committed tuning registry has an entry for this machine (read only).
fn kernel_provenance() -> Value {
    let machine = dense::tuning::machine_fingerprint();
    let registry = Path::new(dense::tuning::DEFAULT_REGISTRY_PATH);
    let tuned = dense::tuning::load_registry(registry)
        .map(|entries| entries.iter().any(|e| e.machine == machine))
        .unwrap_or(false);
    json!({
        "kernel": dense::tuning::active().describe(),
        "machine": machine,
        "registry_entry": tuned,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

fn local(args: &Args) -> Value {
    let (algo, n, p, seed) = (args.algo(), args.get("n"), args.get("p"), args.get("seed"));
    let seconds: f64 = args.get("seconds");
    let min_calls: usize = args.get("min-calls");
    let a = input(algo, n, seed);
    let mut ledger = Ledger::default();

    let (cold, setup_s, _) = timed(|| solve(algo, &a, p));
    let mut last = ledger.record(cold);
    let (mut tts, mut cpu) = (Vec::new(), Vec::new());
    if last.is_some() {
        let start = Instant::now();
        while tts.len() < min_calls || start.elapsed().as_secs_f64() < seconds {
            let (r, wall, c) = timed(|| solve(algo, &a, p));
            if let Some(s) = ledger.record(r) {
                tts.push(wall);
                cpu.push(c);
                last = Some(s);
            }
        }
    }
    let peak = usage().maxrss_mib;
    let resid = match (last, args.get::<bool>("check")) {
        (Some(s), true) => Some(ledger.check_residual(algo, &a, &s)),
        _ => None,
    };
    json!({
        "setup_s": setup_s,
        "tts_s": tts,
        "cpu_s": cpu,
        "peak_rss_mib": peak,
        "residual": resid,
        "ledger": ledger.to_json(),
        "shape": shape(args),
        "provenance": kernel_provenance(),
    })
}

fn socket_call(args: &Args) -> Value {
    let (algo, n, p, seed) = (args.algo(), args.get("n"), args.get("p"), args.get("seed"));
    let a = input(algo, n, seed);
    let backend = xmpi::launch::socket_backend_reexec();
    let (r, wall, cpu) = timed(|| xmpi::launch::with_backend(backend, || solve(algo, &a, p)));
    let peak = usage().maxrss_mib;
    let mut ledger = Ledger::default();
    let solved = ledger.record(r);
    let counts = solved.as_ref().map(|s| stats_counts(&s.stats));
    let resid = match (&solved, args.get::<bool>("check")) {
        (Some(s), true) => Some(ledger.check_residual(algo, &a, s)),
        _ => None,
    };
    json!({
        "tts_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak,
        "residual": resid,
        "counts": counts,
        "ledger": ledger.to_json(),
        "shape": shape(args),
        "provenance": kernel_provenance(),
    })
}

fn socket_empty(args: &Args) -> Value {
    let p: usize = args.get("p");
    let backend = xmpi::launch::socket_backend_reexec();
    let (out, wall, _) =
        timed(|| xmpi::launch::with_backend(backend, || xmpi::launch::run(p, |c| c.rank() as u64)));
    let ok = out.results == (0..p as u64).collect::<Vec<_>>();
    json!({ "setup_s": wall, "ok": ok })
}

/// Exact per-phase sent bytes and the busiest rank's message count, from
/// the runtime's counters.
fn stats_counts(stats: &WorldStats) -> Value {
    let msgs_rank_max = stats
        .ranks
        .iter()
        .map(|r| r.msgs_sent + r.msgs_recv)
        .max()
        .unwrap_or(0);
    json!({ "phase_bytes": phase_sent(stats), "msgs_rank_max": msgs_rank_max })
}

/// Sent bytes per phase label, summed over ranks.
fn phase_sent(stats: &WorldStats) -> BTreeMap<String, u64> {
    stats
        .phase_totals()
        .into_iter()
        .map(|(label, (sent, _))| (label, sent))
        .collect()
}

/// One-way seconds for a 1-element and a `BIG_ELEMS` message, each the
/// median over timed blocks of round trips, on the ambient backend.
fn pingpong_world(reps_small: usize, reps_big: usize) -> (f64, f64) {
    let out = xmpi::launch::run(2, |c| {
        let round_trips = |data: &[f64], blocks: usize, per_block: usize| {
            let times: Vec<f64> = (0..blocks)
                .map(|_| {
                    c.barrier();
                    let t0 = Instant::now();
                    for _ in 0..per_block {
                        if c.rank() == 0 {
                            c.send_f64(1, TAG_PINGPONG, data);
                            std::hint::black_box(c.recv_f64(1, TAG_PINGPONG).len());
                        } else {
                            let got = c.recv_f64(0, TAG_PINGPONG);
                            c.send_f64(0, TAG_PINGPONG, &got);
                        }
                    }
                    t0.elapsed().as_secs_f64() / (2 * per_block) as f64
                })
                .collect();
            median(&times)
        };
        let (small, big) = (vec![1.0], vec![1.0; BIG_ELEMS]);
        round_trips(&small, 2, 50); // warm-up: connections, buffers
        round_trips(&big, 1, 2);
        (
            round_trips(&small, 25, reps_small),
            round_trips(&big, 15, reps_big),
        )
    });
    out.results[0]
}

fn pingpong(args: &Args) -> Value {
    let (small_s, big_s) = match args.get::<String>("backend").as_str() {
        "local" => pingpong_world(100, 8),
        "socket" => xmpi::launch::with_backend(xmpi::launch::socket_backend_reexec(), || {
            pingpong_world(40, 4)
        }),
        other => panic!("flag --backend: unknown backend {other:?}"),
    };
    let bytes = (BIG_ELEMS * 8) as f64;
    json!({
        "alpha_us": small_s * 1e6,
        "gbps": bytes / (big_s - small_s).max(f64::EPSILON) / 1e9,
    })
}

/// Median GF/s of `C ← C − A·B` with `A` m×k and `B` k×n over `seconds`.
fn gemm_gflops(m: usize, n: usize, k: usize, seconds: f64) -> f64 {
    let a = dense::gen::random_matrix(m, k, 1);
    let b = dense::gen::random_matrix(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    let mut call = || {
        let t0 = Instant::now();
        gemm(
            Trans::N,
            Trans::N,
            -1.0,
            a.as_ref(),
            b.as_ref(),
            1.0,
            c.as_mut(),
        );
        t0.elapsed().as_secs_f64()
    };
    call();
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 5 || start.elapsed().as_secs_f64() < seconds {
        rates.push(2.0 * (m * n * k) as f64 / call() / 1e9);
    }
    std::hint::black_box(c.data()[0]);
    median(&rates)
}

/// `dense::gemm` on one rank's COnfLUX trailing block: at the update's
/// depth v/Pz and at a deep K.
fn kernels(args: &Args) -> Value {
    let (n, p, seconds): (usize, usize, f64) = (args.get("n"), args.get("p"), args.get("seconds"));
    let cfg = ConfluxConfig::auto(n, p);
    let (rows, cols) = (n / cfg.grid.px, n / cfg.grid.py);
    json!({
        "gemm_update_gflops": gemm_gflops(rows, cols, cfg.v / cfg.grid.pz, seconds / 2.0),
        "gemm_deep_gflops": gemm_gflops(rows, cols, 256, seconds / 2.0),
        "provenance": kernel_provenance(),
    })
}

/// Time and flops of one schedule phase, summed over ranks.
#[derive(Default, Clone)]
struct PhaseSplit {
    busy_ns: u64,
    wait_ns: u64,
    flops: u64,
    bytes: u64,
    msgs: u64,
}

/// The per-layer view of one traced call.
struct TraceSummary {
    makespan_s: f64,
    idle_frac: f64,
    critpath_frac: f64,
    model_s: f64,
    phases: BTreeMap<String, PhaseSplit>,
    /// Largest |Σ(busy + wait) − makespan| / makespan over ranks.
    coverage_err: f64,
    truncated: bool,
}

fn summarize(trace: &WorldTrace, machine: &Machine) -> TraceSummary {
    let tl = Timeline::build(trace);
    let kpis = xtrace::trace_kpis(trace);
    let mut phases: BTreeMap<String, PhaseSplit> = BTreeMap::new();
    let mut coverage_err: f64 = 0.0;
    for rt in &tl.ranks {
        // (span, wait, flops) per label on this rank. Spans tile
        // [0, makespan].
        let mut mine: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &rt.phases {
            let e = mine.entry(&s.label).or_default();
            e.0 += s.end - s.start;
            e.2 += s.flops;
        }
        for w in &rt.waits {
            mine.entry(&w.phase).or_default().1 += w.idle();
        }
        let mut covered = 0u64;
        for (label, (span, wait, flops)) in mine {
            // A wait lies inside a span of its own phase, so busy ≥ 0; if
            // not, Σ(busy + wait) overshoots and the coverage check fails.
            let busy = span.saturating_sub(wait);
            covered += busy + wait;
            let e = phases.entry(label.to_string()).or_default();
            e.busy_ns += busy;
            e.wait_ns += wait;
            e.flops += flops;
        }
        if tl.makespan > 0 {
            coverage_err =
                coverage_err.max(covered.abs_diff(tl.makespan) as f64 / tl.makespan as f64);
        }
    }
    for rt in &trace.ranks {
        let mut label = String::new();
        for ev in &rt.events {
            match *ev {
                Event::Phase { label: id, .. } => label = trace.label(id).to_string(),
                Event::Send { bytes, .. } | Event::SendPost { bytes, .. } => {
                    let e = phases.entry(label.clone()).or_default();
                    e.bytes += bytes;
                    e.msgs += 1;
                }
                _ => {}
            }
        }
    }
    TraceSummary {
        makespan_s: kpis.makespan_ns as f64 * 1e-9,
        idle_frac: kpis.idle_frac,
        critpath_frac: kpis.critpath_frac,
        model_s: xtrace::replay(trace, machine).makespan,
        phases,
        coverage_err,
        truncated: trace.truncated(),
    }
}

fn traced(args: &Args) -> Value {
    let (algo, n, p, seed) = (args.algo(), args.get("n"), args.get("p"), args.get("seed"));
    let seconds: f64 = args.get("seconds");
    let machine = Machine {
        alpha: args.get::<f64>("alpha-us") * 1e-6,
        beta: args.get::<f64>("gbps") * 1e9,
        gamma: args.get::<f64>("gflops") * 1e9,
        epsilon: 1.0,
    };
    let a = input(algo, n, seed);
    let mut ledger = Ledger::default();
    let mut last = ledger.record(solve(algo, &a, p)); // untimed warm-up
    let (mut untraced_s, mut traced_s, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while last.is_some() && (runs.len() < 2 || start.elapsed().as_secs_f64() < seconds) {
        let (r, wall, _) = timed(|| solve(algo, &a, p));
        if let Some(s) = ledger.record(r) {
            untraced_s.push(wall);
            last = Some(s);
        }
        let ((r, wall, _), traces) = xmpi::trace::capture(xmpi::TraceConfig::default(), || {
            timed(|| solve(algo, &a, p))
        });
        if let Some(s) = ledger.record(r) {
            let summary = summarize(&traces[0], &machine);
            if summary.truncated {
                ledger.fail("trace ring overflowed".into());
            } else if summary.coverage_err > COVERAGE_TOL {
                ledger.fail(format!(
                    "phases cover a rank's makespan only to {:.3}",
                    summary.coverage_err
                ));
            } else if let Some(why) = bytes_mismatch(&summary, &s.stats) {
                ledger.fail(why);
            } else {
                traced_s.push(wall);
                runs.push((summary, s.stats.clone()));
            }
            last = Some(s);
        }
    }
    let resid = last.map(|s| ledger.check_residual(algo, &a, &s));
    runs.sort_by(|x, y| x.0.makespan_s.total_cmp(&y.0.makespan_s));
    let mid = runs.get(runs.len() / 2);
    let phases: BTreeMap<String, Value> = mid
        .map(|(t, _)| t.phases.clone())
        .unwrap_or_default()
        .into_iter()
        .map(|(label, s)| {
            (
                label,
                json!({
                    "busy_s": s.busy_ns as f64 * 1e-9,
                    "wait_s": s.wait_ns as f64 * 1e-9,
                    "flops": s.flops,
                    "bytes": s.bytes,
                    "msgs": s.msgs,
                }),
            )
        })
        .collect();
    json!({
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "makespan_s": mid.map(|(t, _)| t.makespan_s),
        "idle_frac": mid.map(|(t, _)| t.idle_frac),
        "critpath_frac": mid.map(|(t, _)| t.critpath_frac),
        "model_s": mid.map(|(t, _)| t.model_s),
        "coverage_err": mid.map(|(t, _)| t.coverage_err),
        "phases": phases,
        "counts": mid.map(|(_, stats)| stats_counts(stats)),
        "residual": resid,
        "ledger": ledger.to_json(),
        "shape": shape(args),
        "provenance": kernel_provenance(),
    })
}

/// The trace's per-phase sent bytes must equal the runtime counters'.
fn bytes_mismatch(summary: &TraceSummary, stats: &WorldStats) -> Option<String> {
    let mut counted = phase_sent(stats);
    counted.retain(|_, sent| *sent > 0);
    let traced: BTreeMap<String, u64> = summary
        .phases
        .iter()
        .map(|(label, s)| (label.clone(), s.bytes))
        .filter(|&(_, bytes)| bytes > 0)
        .collect();
    (counted != traced).then(|| format!("trace bytes {traced:?} != counters {counted:?}"))
}
