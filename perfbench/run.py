"""ffequiv benchmark: end-to-end CLI timings, output checks and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      every workload, one after the other

Run from anywhere; the program is imported from ``src/`` beside this
directory.  Every workload process is a fresh ``python3 -m ffequiv.cli``
invocation with ``--jobs 1``, run one at a time.

--trace 0 repeats the workload for about S seconds, with set-up probes
(fresh interpreters that only import ffequiv and parse the inputs) before
each repetition, and reports medians.  --trace 1 repeats the workload
untraced for about S/2 seconds, runs it once with spans installed (see
tracer.py), times the micro-kernels, and reports the per-layer metrics.
Every output is checked (see workloads.py).  Times are scaled to a reference
CPU speed sampled while each process runs (see CAL_REF_S).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracer import COUNTS
from workloads import TIMED_SEED, WORKLOADS, Outcome, Workload, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The host's CPU speed changes by up to 1.75x from second to second (other
# tenants).  A thread of the harness, pinned to the child's CPU, times a
# fixed burst of Python every CAL_INTERVAL_S while the child runs; every
# reported time is scaled to the speed at which one burst takes CAL_REF_S.
CAL_INTERVAL_S = 0.05
CAL_REF_S = 350e-6

SETUP_PROBES = 9  # at least this many set-up samples per run
SETUP_PROBES_EACH = 2  # set-up samples before each timed invocation
RUN_LIMIT_S = 170  # a process still running this long after the run began is killed

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "fields.mul.calls": "count",
    "fields.add.calls": "count",
    "fields.inv.calls": "count",
    "fields.mul_ns.gf7": "ns",
    "fields.mul_ns.gf243": "ns",
    "fields.mul_ns.gf1024": "ns",
    "fields.inv_ns.gf1024": "ns",
    "poly.pow_mod.s": "s",
    "poly.pow_mod.total_s": "s",
    "poly.pow_mod.calls": "count",
    "poly.factor.s": "s",
    "poly.factor.total_s": "s",
    "poly.factor.calls": "count",
    "poly.gcd.s": "s",
    "poly.gcd.calls": "count",
    "poly.mul.s": "s",
    "poly.mul.calls": "count",
    "poly.divmod.s": "s",
    "poly.divmod.calls": "count",
    "poly.is_irreducible.s": "s",
    "poly.is_irreducible.total_s": "s",
    "poly.is_irreducible.calls": "count",
    "poly.monic_irreducibles.s": "s",
    "poly.mulmod_us.gf243-n8": "us",
    "poly.mulmod_us.gf1024-n15": "us",
    "splitting.split_type.s": "s",
    "splitting.split_type.total_s": "s",
    "splitting.reduce.s": "s",
    "splitting.reduce.calls": "count",
    "splitting.compare.self_s": "s",
    "splitting.compare.total_s": "s",
    "splitting.primes": "count",
    "splitting.rabin_per_prime": "ratio",
    "splitting.sample_accept_ratio": "ratio",
    "splitting.bad_ratio": "ratio",
    "twisted.rho_eval.s": "s",
    "twisted.torsion.s": "s",
    "twisted.mul.calls": "count",
    "exprs.parse.s": "s",
    "exprs.parse.calls": "count",
    "exprs.render.s": "s",
    "gassmann.build_gl.s": "s",
    "gassmann.subgroup.s": "s",
    "gassmann.classes.s": "s",
    "gassmann.fixpoints.self_s": "s",
    "gassmann.verify.self_s": "s",
    "gassmann.matmul.calls": "count",
    "gassmann.matmul_us.gf7-n2": "us",
    "cli.self_s": "s",
    "import.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}

# is_irreducible called under these spans validates a prime already chosen
VALIDATION_PARENTS = ("splitting.split_type", "splitting.reduce")


def meta() -> str:
    rev = "none"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pair"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return (
        f"meta: git={rev} src_sha256={digest.hexdigest()[:16]} "
        f"python={platform.python_version()} cpus={os.cpu_count()}"
    )


def _burst() -> float:
    """CPU seconds this thread takes for a fixed piece of Python work."""
    table, acc = {}, 0
    start = time.thread_time()
    for i in range(1500):
        k = i * 7919 % 1021
        table[k] = table.get(k, 0) + i
        acc += len((k, i, acc & 255))
    return time.thread_time() - start


def _sample_speed(samples: list[float], stop: threading.Event) -> None:
    samples.append(_burst())
    while not stop.wait(CAL_INTERVAL_S):
        samples.append(_burst())


@dataclass
class Proc:
    code: int
    wall: float  # seconds, as measured
    speed: float  # CAL_REF_S / mean burst time while the process ran
    rss_kb: int

    @property
    def ref_wall(self) -> float:
        """Wall time scaled to the reference CPU speed."""
        return self.wall * self.speed


@dataclass
class Invocation:
    wall: float  # as measured, spawn of the first process to exit of the last
    ref_wall: float  # the same, each process scaled to the reference CPU speed
    rss_kb: int
    outcome: Outcome
    traces: list


class Runner:
    """Spawns workload processes one at a time, with rusage and a kill deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # children inherit the CPU, so the speed samples see what they see
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def spawn(self, argv: list[str], stdout: Path) -> Proc:
        """Run one process to its exit, sampling the CPU speed meanwhile."""
        samples: list[float] = []
        stop = threading.Event()
        sampler = threading.Thread(target=_sample_speed, args=(samples, stop))
        with open(stdout, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            sampler.start()
            start = time.perf_counter()
            try:
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
                timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                finally:
                    timer.cancel()
                    if proc.returncode is None:
                        proc.kill()
                        proc.wait()
                wall = time.perf_counter() - start
            finally:
                stop.set()
                sampler.join()
        if proc.returncode != 0:
            tail = (self.work / "stderr.txt").read_text("utf-8", "replace").strip()[-400:]
            print(f"process {argv[1:4]} exited {proc.returncode}: {tail}", file=sys.stderr)
        return Proc(proc.returncode, wall, CAL_REF_S / statistics.fmean(samples), usage.ru_maxrss)

    def workload(self, w: Workload, seed: int = TIMED_SEED, traced: bool = False) -> Invocation:
        outs = [self.work / f"step{i}.out" for i in range(len(w.steps))]
        results, traces, rss, ref_wall = [], [], 0, 0.0
        start = time.perf_counter()
        for i, argv in enumerate(w.argvs(seed, str(outs[0]))):
            if traced:
                trace = self.work / f"trace{i}.json"
                cmd = [sys.executable, str(HERE / "probe.py"), "trace", str(trace), *argv]
            else:
                cmd = [sys.executable, "-m", "ffequiv.cli", *argv]
            proc = self.spawn(cmd, outs[i])
            rss = max(rss, proc.rss_kb)
            ref_wall += proc.ref_wall
            results.append((outs[i].read_bytes(), proc.code))
            if traced and proc.code == 0:
                traces.append({**json.loads(trace.read_text("utf-8")), "speed": proc.speed})
        wall = time.perf_counter() - start
        outcome = check(w, seed, results)
        for problem in outcome.problems[:5]:
            print(f"check failed: {w.name} seed={seed}: {problem}", file=sys.stderr)
        return Invocation(wall, ref_wall, rss, outcome, traces)

    def repeat(self, w: Workload, seconds: float, setup: list[float] | None = None) -> list[Invocation]:
        """At least one invocation; another only while it should end within
        `seconds`.  With a `setup` list, set-up probes run before each
        invocation, so both samples span the whole measuring window."""
        start = time.perf_counter()
        runs = []
        while not runs or time.perf_counter() - start + runs[-1].wall <= seconds:
            if setup is not None:
                setup.extend(self.setup_time(w) for _ in range(SETUP_PROBES_EACH))
            runs.append(self.workload(w))
        while setup is not None and len(setup) < SETUP_PROBES:
            setup.append(self.setup_time(w))
        return runs

    def setup_time(self, w: Workload) -> float:
        cmd = [sys.executable, str(HERE / "probe.py"), "setup", json.dumps(w.setup)]
        proc = self.spawn(cmd, self.work / "setup.out")
        if proc.code != 0:
            raise RuntimeError(f"set-up probe for {w.name} exited {proc.code}")
        return proc.ref_wall

    def micro(self) -> dict:
        out = self.work / "micro.json"
        proc = self.spawn([sys.executable, str(HERE / "probe.py"), "micro", str(out)], self.work / "micro.out")
        if proc.code != 0:
            raise RuntimeError(f"micro-kernel probe exited {proc.code}")
        return {k: v * proc.speed for k, v in json.loads(out.read_text("utf-8")).items()}


def tail_note(samples: list[float]) -> str:
    """Sample count and the highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return f"n={n}; no percentile above the median has 10 samples beyond it"
    s = sorted(samples)
    return f"n={n}; p{100 * (n - 10) // n}={s[n - 11]:.4f}"


def layer_metrics(traces: list[dict], traced_wall: float, untraced_wall: float,
                  outcome: Outcome, micro: dict) -> dict[str, float]:
    """PER_LAYER values from the span aggregates of one traced workload run."""
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    counts = defaultdict(int)
    rabin = {"selection": 0, "validation": 0}
    for data in traces:
        speed = data["speed"]
        for parent, name, c, t, s in data["edges"]:
            t, s = t * speed, s * speed
            calls[name] += c
            self_s[name] += s
            if parent != name:  # nested same-name spans are inside the outer one
                total[name] += t
            if name == "poly.is_irreducible":
                if parent in VALIDATION_PARENTS:
                    rabin["validation"] += c
                elif parent == "splitting.compare":
                    rabin["selection"] += c
        for name, c in data["counts"].items():
            counts[name] += c
    primes = outcome.primes
    # the exhaustive sieve emits irreducibles only: every candidate is accepted
    attempts = rabin["selection"] or primes
    derived = {
        **micro,
        "splitting.primes": primes,
        "splitting.rabin_per_prime": rabin["validation"] / primes if primes else 0.0,
        "splitting.sample_accept_ratio": primes / attempts if attempts else 0.0,
        "splitting.bad_ratio": outcome.bad / primes if primes else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_sum_s": sum(self_s.values()),
    }
    counted = {name for *_, name in COUNTS}
    m = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in derived:
            m[name] = derived[name]
        elif kind == "calls":
            m[name] = counts[layer] if layer in counted else calls[layer]
        elif kind == "total_s":
            m[name] = total[layer]
        elif kind in ("s", "self_s"):
            m[name] = self_s[layer]
        else:
            raise KeyError(f"no rule for layer metric {name}")
    return m


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a workload; returns the result object."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        if not trace:
            setup = []
            runs = runner.repeat(w, seconds, setup)
            # timed runs draw the reference primes; the seed draws fresh ones to check
            fresh = runner.workload(w, seed) if w.sample and seed != TIMED_SEED else None
            checked = runs + [fresh] if fresh else runs
        else:
            runs = runner.repeat(w, seconds / 2)
            traced = runner.workload(w, traced=True)
            micro = runner.micro()
            checked = runs + [traced]
    walls = [r.ref_wall for r in runs]
    wall = statistics.median(walls)
    attempted = sum(r.outcome.attempted for r in checked)
    failed = sum(r.outcome.failed for r in checked)
    print(f"workload: {w.name} seed={seed} trace={int(trace)}")
    print(f"  wall_s {wall:.4f} s (median at reference CPU speed; {tail_note(walls)}; "
          f"as measured: median {statistics.median(r.wall for r in runs):.4f} s)")
    if not trace:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.rss_kb for r in runs) / 1024,
        }
        print(f"  setup_s {metrics['setup_s']:.4f} s (median at reference CPU speed; n={len(setup)})")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.2f} MB (median of per-run maxima; n={len(runs)})")
        if w.split:
            primes = runs[0].outcome.primes
            print(f"  primes_per_s {primes / wall:.3f} 1/s ({primes} prime rows / wall_s)")
        if fresh:
            print(f"  fresh draw at program seed {seed}: {fresh.ref_wall:.4f} s at reference speed, "
                  "checked by invariants (not a metric)")
        units = END_TO_END
    else:
        metrics = layer_metrics(traced.traces, traced.ref_wall, wall, traced.outcome, micro)
        if abs(metrics["trace.self_sum_s"] - traced.ref_wall) > 0.1 * traced.ref_wall:
            print("warning: self times do not sum to the traced wall time within 10%", file=sys.stderr)
        for name, value in metrics.items():
            print(f"  {name} {value if isinstance(value, int) else f'{value:.6g}'} {PER_LAYER[name]}")
        units = PER_LAYER
    print(f"  fail_ratio {failed / attempted:.4g} ({failed} failed of {attempted} ops)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ffequiv" / "cli.py").is_file():
        print(f"error: no ffequiv sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    print(meta())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
