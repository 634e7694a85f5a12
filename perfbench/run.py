"""fuskit benchmark: one workload, one seed, one fresh process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times the workload untraced and reports the
end-to-end metrics; with ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics.  Progress and run details go to the
first lines of standard output; the last line is the result as one JSON object
with the keys correct, attempted, failed and metrics.

A run makes at least one pass over the workload's fixed work list and starts
a further pass only while it is expected to end within ``--seconds``.  Every
pass starts from a fresh import of fuskit and freshly made inputs, so passes do
not share caches.  The timed runs read their times from ``speed.SpeedClock``,
which scales out the drift of the machine's speed; the raw wall times go to
the details line.  Exit code 2 means the checkout lacks the sources the
benchmark needs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans
import speed
from workloads import ROOT, SRC, WORKLOADS, fresh_import, missing_sources

SETUP_ROUNDS = 9          # set-ups alone, plus one per pass; setup_s is their median
COLD_TIMEOUT_S = 120      # per suite, for the cold single-suite processes
TAIL_BEYOND = 10          # samples the tail percentile must leave above it

SUITES = (
    "alperin-decomposition", "alperin-generation", "central-kernel-normality",
    "char-normal-descends", "closure-transfer", "core-of-normal-subsystem", "core-over-centre",
    "example-intersection-unsaturated", "example-sixteen-quotient", "expected-values",
    "factor-equals-bar", "group-centralizer-in-core", "group-fusion-saturated",
    "inner-normal-characteristic", "invariant-iff-frattini", "iso-tables-closed",
    "knormalizer-normal-in-normalizer", "knormalizer-saturated",
    "morphism-kernels-strongly-closed", "normal-control", "normality-five-criteria",
    "nphi-bounds", "product-strongly-closed", "psoluble-constrained", "psoluble-extension",
    "psoluble-group-model", "psoluble-subsystems-quotients", "qdpfree-soluble-cores",
    "quotient-saturated", "second-isomorphism", "subnormal-core-containment",
    "third-isomorphism", "weakly-closed-central",
)

# The operation percentiles (op_p50_ms, op_tail_ms) go to the details line,
# not here: on a 2-vCPU VM their IQR over ten seeds of group-lattice was 0.10
# and 0.12 of the median even on the normalized clock, above a third of the
# largest bound an end-to-end metric may have (0.25).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


def per_layer_names() -> list[tuple[str, str]]:
    out = spans.metric_names()
    for suite in SUITES:
        out.append((f"verify.{suite}.warm_s", "s"))
        out.append((f"verify.{suite}.cold_s", "s"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


# -- statistics ------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND samples above it."""
    return max(50, math.floor(100 * (n - TAIL_BEYOND) / n)) if n > TAIL_BEYOND else 50


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    mass on each rank's interval.  Where the operations near the quantile are
    few and unlike, as in the tail of group-lattice, the single order statistic
    swings with which operation lands on the rank and with the machine's speed
    at that moment (on one set of ten seeds its IQR was 0.36 of the median,
    against 0.13 for this estimate).
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 32   # midpoint-rule points per rank interval
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- run records -------------------------------------------------------------------

def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources and data, to identify what was measured."""
    h = hashlib.sha256()
    pkg = SRC / "fuskit"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(workload, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace,
        "machine": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "git_rev": git_revision(), "source_sha256": source_digest(),
    }


# -- runs --------------------------------------------------------------------------

def timed_setup(workload, seed: int, small: bool, clock=time.perf_counter):
    gc.collect()
    t0 = clock()
    fk = fresh_import()
    inputs = workload.setup(fk, seed, small)
    return fk, inputs, clock() - t0


def timed_run(workload, seed: int, seconds: float, small: bool = False) -> tuple[dict, dict]:
    """Untraced set-ups and passes on the speed-normalized clock; returns
    (result, details).

    After SETUP_ROUNDS set-ups alone, each pass makes its own set-up and
    then runs.  The first pass always runs; a further one starts only when the
    last one's wall time says it ends within ``seconds`` of the first one's
    start.  The raw set-up times include the garbage collection before each.
    """
    setups, raw_setups, passes, raw_walls = [], [], [], []
    with speed.SpeedClock() as clock:
        def setup():
            r0 = clock.raw_now()
            fk, inputs, t = timed_setup(workload, seed, small, clock.now)
            setups.append(t)
            raw_setups.append(clock.raw_now() - r0)
            return fk, inputs

        for _ in range(SETUP_ROUNDS):
            setup()
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            fk, inputs = setup()
            r0 = clock.raw_now()
            passes.append(workload.run_pass(fk, inputs, clock.now))
            raw_walls.append(clock.raw_now() - r0)
            del fk, inputs
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        speed_factor = clock.speed_factor()
        kernel_runs = len(clock.samples)
    n_ops = len(passes[0].op_ms)
    q = tail_percentile(n_ops)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes})
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }
    details = {"passes": len(passes), "digest": digests,
               "op_p50_ms": statistics.median(quantile(p.op_ms, 0.5) for p in passes),
               "op_tail_ms": statistics.median(quantile(p.op_ms, q / 100) for p in passes),
               "op_tail": {"percentile": q, "samples_per_pass": n_ops,
                           "beyond": n_ops - math.ceil(q * n_ops / 100)},
               "setup_samples_s": setups, "wall_samples_s": [p.wall_s for p in passes],
               "raw_setup_samples_s": raw_setups, "raw_wall_samples_s": raw_walls,
               "speed_factor": speed_factor, "kernel_runs": kernel_runs}
    return result, details


def cold_suite_times(suites) -> tuple[dict[str, float], list[str]]:
    """Each suite alone in a fresh process, one process at a time."""
    out, bad = {}, []
    script = str(ROOT / "perfbench" / "cold_suite.py")
    for suite in suites:
        got = {"ok": False, "cold_s": 0.0}
        try:
            proc = subprocess.run([sys.executable, script, suite], cwd=ROOT, capture_output=True,
                                  text=True, timeout=COLD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            if proc.returncode == 0:
                got = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            print(f"cold run of {suite} timed out", file=sys.stderr)
        if not got["ok"]:
            bad.append(suite)
        out[suite] = got["cold_s"]
    return out, bad


def traced_run(workload, seed: int, small: bool = False, layers=None,
               cold: bool = True) -> tuple[dict, dict]:
    """One untraced and one traced pass; returns (result, details)."""
    fk, inputs, _ = timed_setup(workload, seed, small)
    plain = workload.run_pass(fk, inputs)
    del fk, inputs
    fk, inputs, _ = timed_setup(workload, seed, small)
    with spans.Tracer(layers) as tracer:
        traced = workload.run_pass(fk, inputs)
    del fk, inputs
    values = dict.fromkeys((name for name, _ in per_layer_names()), 0)
    values.update(tracer.metrics())
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    bad_cold: list[str] = []
    if plain.suite_s:
        for suite, s in plain.suite_s.items():
            values[f"verify.{suite}.warm_s"] = s
        if cold:
            cold_s, bad_cold = cold_suite_times(plain.suite_s)
            for suite, s in cold_s.items():
                values[f"verify.{suite}.cold_s"] = s
    units = dict(per_layer_names())
    failed = plain.failed + traced.failed + len(bad_cold)
    result = {
        "correct": failed == 0 and plain.digest == traced.digest,
        "attempted": plain.attempted + traced.attempted + (len(plain.suite_s) if cold else 0),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    details = {"digest": [plain.digest], "untraced_wall_s": plain.wall_s,
               "traced_wall_s": traced.wall_s, "spans": len(tracer.span_start),
               "cold_failures": bad_cold}
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fuskit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = missing_sources()
    if missing:
        print(f"perfbench: the checkout lacks {', '.join(missing)}; run from the root of a "
              "fuskit checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = run_record(workload, args.seed, args.seconds, args.trace)
    print("run " + json.dumps(record, sort_keys=True), flush=True)
    if args.trace:
        result, details = traced_run(workload, args.seed)
    else:
        result, details = timed_run(workload, args.seed, args.seconds)
    print("details " + json.dumps(details, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
