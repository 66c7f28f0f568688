#!/usr/bin/env python3
"""End-to-end factorization benchmark: COnfLUX / COnfCHOX time-to-solution
on the in-process and the socket backend of xmpi, with a traced per-phase
split.

    python3 perfbench/run.py --workload lu_local --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The script builds the `perfbench` worker
(`perfbench/src/main.rs`) with cargo into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs it as a series of fresh processes, checks their
outputs, and prints one JSON object as the last line of stdout:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics (all taken with tracing off), `--trace 1` the per-layer
metrics of a separate traced run. Provenance and the load shape are printed
before it as `# key: value` lines.

Workloads (N=1024, P=8, the `auto` configuration: grid 2x2x2, v=16;
RAYON_NUM_THREADS=1 so the P ranks are the only parallelism):

* lu_local   -- COnfLUX in-process: trailing update, tournament pivoting
                and reduce_pivots carry the time.
* chol_local -- COnfCHOX in-process on an SPD input: same dense and xmpi
                layers, no pivoting; an LU-only change must leave it flat.

N is 1024, not 2048: on a shared 2-vCPU host, other tenants' load changed
the speed of both factorizations at N=2048 by up to 1.7x within minutes,
and at N=1024 by about half as much.

The socket backend (one rank process per rank over the UNIX-socket mesh)
is measured in the traced run of each workload: the same call on it, an
empty socket world, and its ping-pong alpha/beta.

End-to-end metrics:

* tts_s   -- median wall seconds of one call (world launch, staging,
             factorization, factor assembly) over the warm calls.
* cpu_s   -- median user+system CPU seconds per call.
* comm_bytes_rank_max -- WorldStats::max_rank_bytes, exact; identical for
             every call of one seed on both backends.
* peak_rss_mib -- mean over worker processes of their peak resident set.
* setup_s -- median cost before the first useful call, input generation
             excluded: a cold first call in a fresh process, 8 per run.

Checks, all outside the timed regions: every call's factor digest and
comm_bytes_rank_max equal the first call's, on both backends; the relative
residual of one call per run is below 1e-10;
in traced runs, each rank's phases tile the makespan and traced bytes match
the runtime counters. A failed check or a kernel/rank error is a failed call.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

N, P = 1024, 8
SELF_CHECK_N = 256
# Everything a run does must finish within this many seconds.
RUN_DEADLINE_S = 170.0

WORKLOADS = {"lu_local": "lu", "chol_local": "chol"}

END_TO_END = {
    "tts_s": "s",
    "cpu_s": "s",
    "comm_bytes_rank_max": "B",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Schedule phase labels of COnfLUX and COnfCHOX, plus the span before the
# first marker (launch and tile staging) and after the last (the world's
# join), so that the phases tile each rank's makespan.
PHASES = {
    "": "staging",
    "pivoting": "pivoting",
    "reduce_pivots": "reduce_pivots",
    "bcast_a00": "bcast_a00",
    "potrf_bcast": "potrf_bcast",
    "scatter_panels": "scatter_panels",
    "panel_trsm": "panel_trsm",
    "update_a11": "update_a11",
    "reduce_col": "reduce_col",
    "_end": "end",
}
PHASE_UNITS = {"busy_s": "s", "wait_s": "s", "gflops": "GF/s", "bytes": "B", "msgs": "count"}

# What each layer metric should move: phase busy/wait of update_a11 moves
# tts_s and cpu_s on both workloads; pivoting and reduce_pivots move tts_s
# on lu_local only; phase bytes/msgs and msgs_rank_max move
# comm_bytes_rank_max on both; trace.idle_frac, critpath_frac and
# makespan_s move tts_s but not cpu_s; the dense rates bound what compute
# blocking can win on tts_s; xmpi.socket.* move no end-to-end metric (they
# time the socket backend, which the end-to-end runs bypass);
# host.outside_world_s is part of every tts_s.
PER_LAYER = {
    **{
        f"phase.{name}.{what}": unit
        for name in PHASES.values()
        for what, unit in PHASE_UNITS.items()
    },
    "msgs_rank_max": "count",
    "trace.idle_frac": "1",
    "trace.critpath_frac": "1",
    "trace.makespan_s": "s",
    "dense.gemm_update.gflops": "GF/s",
    "dense.gemm_deep.gflops": "GF/s",
    "xmpi.local.alpha_us": "us",
    "xmpi.local.gbps": "GB/s",
    "xmpi.socket.alpha_us": "us",
    "xmpi.socket.gbps": "GB/s",
    "xmpi.socket.launch_s": "s",
    "xmpi.socket.tts_s": "s",
    "host.outside_world_s": "s",
    "trace.overhead": "1",
    "model.makespan_err": "1",
}


class BenchError(Exception):
    pass


def median(xs):
    if not xs:
        raise BenchError("no successful samples")
    return statistics.median(xs)


class Bench:
    def __init__(self, n, seed):
        self.n, self.seed = n, seed
        self.deadline = None
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.exe = os.path.join(target, "release", "perfbench")
        tmp = os.path.join(target, "perfbench-tmp")
        self.env = dict(os.environ, CARGO_TARGET_DIR=target, RAYON_NUM_THREADS="1", TMPDIR=tmp)
        self.attempted = self.failed = 0
        self.errors = []
        self.workers = {}
        # Output of every factorization worker, for the cross-process checks.
        self.outputs = []

    def build(self):
        os.makedirs(self.env["TMPDIR"], exist_ok=True)
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
        if subprocess.run(cmd, env=self.env, stdout=sys.stderr).returncode != 0:
            raise BenchError("building the perfbench worker failed")

    def worker(self, mode, **flags):
        """Run one worker process to completion; return its JSON line."""
        argv = [self.exe, mode]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), str(value).lower()]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {mode}")
        # Own session, so a timeout kills rank processes along with it.
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} worker exceeded the run deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        self.workers[mode] = self.workers.get(mode, 0) + 1
        return json.loads(out.strip().splitlines()[-1])

    def factor_worker(self, mode, algo, **flags):
        out = self.worker(mode, algo=algo, n=self.n, p=P, seed=self.seed, **flags)
        ledger = out["ledger"]
        self.attempted += ledger["attempted"]
        self.failed += ledger["failed"]
        self.errors += ledger["errors"]
        self.outputs.append(out)
        return out

    def check_agreement(self):
        """Every process of the run factored the same input: same bytes,
        bitwise-same factors, on either backend."""
        first = self.outputs[0]["ledger"]
        for out in self.outputs[1:]:
            ledger = out["ledger"]
            for key in ("comm_bytes_rank_max", "digest"):
                if ledger[key] != first[key]:
                    self.failed += ledger["attempted"] - ledger["failed"]
                    self.errors.append(f"{key} {ledger[key]} != {first[key]} across processes")
                    break

    def result(self, metrics, units):
        self.check_agreement()
        for err in self.errors:
            print(f"# check failed: {err}")
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"metrics not measured: {sorted(missing)}")
        return {
            "correct": self.failed == 0 and not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def end_to_end(b, algo, seconds):
    # Fresh processes, each a cold call (a set-up sample) then warm calls:
    # pooling their samples averages out per-process placement and page
    # luck. The residual is checked in the first; the others must match its
    # factors bitwise. More processes make only a cold call.
    procs = 4
    outs = [b.factor_worker("local", algo, seconds=seconds / procs, min_calls=2, check=i == 0)
            for i in range(procs)]
    tts = [t for o in outs for t in o["tts_s"]]
    cpu = [c for o in outs for c in o["cpu_s"]]
    rss = [o["peak_rss_mib"] for o in outs]
    outs += [b.factor_worker("local", algo, seconds=0, min_calls=0, check=False)
             for _ in range(4)]
    setup = [o["setup_s"] for o in outs]
    for o in b.outputs:
        if o.get("residual") is not None:
            print(f"# residual: {o['residual']:.3e}")
    print(f"# samples: tts={len(tts)} setup={len(setup)} processes={b.workers}")
    q = statistics.quantiles(tts, n=10, method="inclusive")
    print(f"# tts_s p10/median/p90: {q[0]:.4f} / {median(tts):.4f} / {q[-1]:.4f}")
    metrics = {
        "tts_s": median(tts),
        "cpu_s": median(cpu),
        "comm_bytes_rank_max": b.outputs[0]["ledger"]["comm_bytes_rank_max"],
        # A mean: per-process peaks are bimodal (allocator arena luck), and
        # the median of a few bimodal samples flips between the modes.
        "peak_rss_mib": statistics.fmean(rss),
        "setup_s": median(setup),
    }
    return b.result(metrics, END_TO_END)


def per_layer(b, algo, seconds):
    kern = b.worker("kernels", n=b.n, p=P, seconds=2)
    xmpi = {be: b.worker("pingpong", backend=be) for be in ("local", "socket")}
    launch = []
    for _ in range(5):
        empty = b.worker("socket-empty", p=P)
        b.attempted += 1
        if not empty["ok"]:
            b.failed += 1
            b.errors.append("empty socket world returned wrong ranks")
        launch.append(empty["setup_s"])
    tr = b.factor_worker("traced", algo, seconds=seconds,
                         alpha_us=xmpi["local"]["alpha_us"], gbps=xmpi["local"]["gbps"],
                         gflops=kern["gemm_update_gflops"])
    counts = tr["counts"]
    # The same call on the socket backend, one world per driver process
    # (rank processes replay every earlier world of their driver): its
    # factors and bytes must equal the in-process call's.
    calls = [b.factor_worker("socket-call", algo, check=False) for _ in range(3)]
    for c in calls:
        if c["counts"] != counts:
            b.failed += 1
            b.errors.append("socket per-phase counts differ from the in-process schedule's")
    print(f"# residual: {tr['residual']:.3e}")
    print(f"# samples: untraced={len(tr['untraced_s'])} traced={len(tr['traced_s'])} "
          f"processes={b.workers} phase_coverage_err={tr['coverage_err']:.2e}")
    metrics = {}
    for label, name in PHASES.items():
        ph = tr["phases"].get(label, {})
        busy = ph.get("busy_s", 0.0)
        metrics[f"phase.{name}.busy_s"] = busy
        metrics[f"phase.{name}.wait_s"] = ph.get("wait_s", 0.0)
        metrics[f"phase.{name}.gflops"] = ph.get("flops", 0) / busy / 1e9 if busy > 0 else 0.0
        metrics[f"phase.{name}.bytes"] = counts["phase_bytes"].get(label, 0)
        metrics[f"phase.{name}.msgs"] = ph.get("msgs", 0)
    makespan = tr["makespan_s"]
    metrics.update({
        "msgs_rank_max": counts["msgs_rank_max"],
        "trace.idle_frac": tr["idle_frac"],
        "trace.critpath_frac": tr["critpath_frac"],
        "trace.makespan_s": makespan,
        "dense.gemm_update.gflops": kern["gemm_update_gflops"],
        "dense.gemm_deep.gflops": kern["gemm_deep_gflops"],
        "xmpi.local.alpha_us": xmpi["local"]["alpha_us"],
        "xmpi.local.gbps": xmpi["local"]["gbps"],
        "xmpi.socket.alpha_us": xmpi["socket"]["alpha_us"],
        "xmpi.socket.gbps": xmpi["socket"]["gbps"],
        "xmpi.socket.launch_s": median(launch),
        "xmpi.socket.tts_s": median([c["tts_s"] for c in calls]),
        "host.outside_world_s": median(tr["untraced_s"]) - makespan,
        "trace.overhead": median(tr["traced_s"]) / median(tr["untraced_s"]) - 1.0,
        "model.makespan_err": abs(tr["model_s"] - makespan) / makespan,
    })
    print(f"# model: replayed {tr['model_s']:.4f} s vs measured {makespan:.4f} s "
          f"(alpha {xmpi['local']['alpha_us']:.2f} us, {xmpi['local']['gbps']:.2f} GB/s, "
          f"gamma {kern['gemm_update_gflops']:.2f} GF/s)")
    return b.result(metrics, PER_LAYER)


def source_digest():
    """sha256 over the sources the worker is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]
    for top in roots:
        paths = [top] if os.path.isfile(top) else []
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += sorted(os.path.join(d, f) for f in files)
        for path in paths:
            if path.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(b, name, trace):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or "none (not a git checkout)"
    except OSError:
        commit = "none (git not available)"
    shape = b.outputs[0]["shape"] if b.outputs else {}
    prov = b.outputs[0]["provenance"] if b.outputs else {}
    backend = "local, and socket for xmpi.socket.*" if trace else "local"
    lines = {
        "workload": name,
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": b.seed,
        "trace": trace,
        "nproc": prov.get("nproc"),
        "machine": prov.get("machine"),
        "n": shape.get("n"),
        "p": shape.get("p"),
        "grid": shape.get("grid"),
        "v": shape.get("v"),
        "backend": backend,
        "rayon_threads": b.env["RAYON_NUM_THREADS"],
        "kernel": prov.get("kernel"),
        "tuning_registry_entry": prov.get("registry_entry"),
    }
    for key, value in lines.items():
        print(f"# {key}: {value}")


def run(name, seed, seconds, trace, n):
    b = Bench(n, seed)
    b.build()
    # The deadline starts after the build: a first run in a fresh checkout
    # compiles everything.
    b.deadline = time.monotonic() + RUN_DEADLINE_S
    res = (per_layer if trace else end_to_end)(b, WORKLOADS[name], seconds)
    provenance(b, name, trace)
    return res


def self_check():
    """Every workload once at N=256 in both modes: every metric printed
    with its unit, every check passing."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run(name, 1, 1, trace, SELF_CHECK_N)
            for metric, mv in res["metrics"].items():
                print(f"{name:>10} trace={trace} {metric:<28} {mv['value']:>16.6g} {mv['unit']}")
            print(f"{name:>10} trace={trace} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            ok &= res["correct"] and res["attempted"] > 0
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload once at a tiny N and check everything")
    args = ap.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            ap.error("--workload is required")
        res = run(args.workload, args.seed, args.seconds, args.trace, N)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
