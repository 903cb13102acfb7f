"""Child-process entry points of the benchmark; run with ffequiv's src on PYTHONPATH.

    probe.py setup SPEC           import ffequiv, parse a workload's inputs (JSON list), nothing else
    probe.py trace OUT.json ARGV  run one CLI invocation with spans installed, write aggregates
    probe.py micro OUT.json       time the layer micro-kernels on fixed seeded inputs
"""

from __future__ import annotations

import json
import random
import sys
import time
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent


def setup(spec: list) -> None:
    """Parse what a workload reads: shipped pairs, fields, expressions."""
    from ffequiv import parse, prime_field
    from ffequiv.cli import load_pair

    for kind, *args in spec:
        if kind == "pair":
            load_pair((resources.files("ffequiv") / "pairs" / f"{args[0]}.pair").read_text("utf-8"))
        elif kind == "field":
            prime_field(args[0])
        elif kind == "parse":
            parse(args[2], args[1], prime_field(args[0]))
        elif kind == "parse-reference":  # a later step's input is an earlier step's output
            text = (HERE / "reference" / args[2]).read_text("utf-8")
            parse(text.strip(), args[1], prime_field(args[0]))
        else:
            raise ValueError(f"unknown set-up item {kind!r}")


def trace(out_path: str, argv: list[str]) -> int:
    from tracer import Tracer, install

    tracer = Tracer()

    def load():
        install(tracer)
        return sys.modules["ffequiv.cli"]

    cli = tracer.span("import", load)()
    code = cli.main(argv)
    data = tracer.snapshot()
    data["exit"] = code
    Path(out_path).write_text(json.dumps(data), encoding="utf-8")
    return code


def _per_op(fn, args: list) -> float:
    """Seconds per call of fn over the argument list: the count is doubled
    until a round lasts 20 ms, then the median of 7 rounds is taken."""
    reps = 1
    while True:
        t = _round(fn, args, reps)
        if t >= 0.02:
            break
        reps *= 2
    rounds = sorted(_round(fn, args, reps) for _ in range(7))
    return rounds[3] / (reps * len(args))


def _round(fn, args, reps) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        for a in args:
            fn(*a)
    return time.perf_counter() - start


def micro() -> dict:
    from ffequiv import MatElem, Poly, extension_field, prime_field

    rng = random.Random(20210717)
    fields = {"gf7": prime_field(7), "gf243": extension_field(3, degree=5),
              "gf1024": extension_field(2, degree=10)}

    def elems(f, n):
        return [f.from_index(rng.randrange(1, f.q)) for _ in range(n)]

    def pairs(f, n):
        xs = elems(f, 2 * n)
        return list(zip(xs[::2], xs[1::2]))

    out = {}
    for name, f in fields.items():
        out[f"fields.mul_ns.{name}"] = 1e9 * _per_op(lambda a, b: a * b, pairs(f, 64))
    out["fields.inv_ns.gf1024"] = 1e9 * _per_op(
        lambda a: a.inverse(), [(a,) for a in elems(fields["gf1024"], 16)]
    )
    for name, n in (("gf243", 8), ("gf1024", 15)):
        f = fields[name]

        def poly(deg, monic=False):
            cs = [f.from_index(rng.randrange(f.q)) for _ in range(deg)]
            return Poly(f, cs + [f.one if monic else f.from_index(rng.randrange(1, f.q))])

        mod = poly(n, monic=True)
        args = [(poly(n - 1), poly(n - 1), mod) for _ in range(4)]
        out[f"poly.mulmod_us.{name}-n{n}"] = 1e6 * _per_op(lambda a, b, m: a * b % m, args)
    f7 = fields["gf7"]
    mats = []
    while len(mats) < 64:
        try:
            mats.append(MatElem.from_ints(f7, [[rng.randrange(7) for _ in range(2)] for _ in range(2)]))
        except ValueError:  # singular draw
            continue
    out["gassmann.matmul_us.gf7-n2"] = 1e6 * _per_op(
        lambda a, b: a.mul(b), list(zip(mats[::2], mats[1::2]))
    )
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(json.loads(argv[1]))
        return 0
    if mode == "trace":
        return trace(argv[1], argv[2:])
    if mode == "micro":
        Path(argv[1]).write_text(json.dumps(micro()), encoding="utf-8")
        return 0
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
