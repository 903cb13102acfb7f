"""The benchmark workloads: CLI steps, set-up inputs and output checks.

A workload is one or more ``ffequiv`` CLI invocations run one after the
other.  A step's stdout is kept in a file, which a later step can read
(``{prev}`` in its argv).  Checking counts ops: one op per output row and one
per exit code, each compared with a reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
TIMED_SEED = 0  # program seed of every timed run; its output is the byte reference


@dataclass(frozen=True)
class Sample:
    """A split-check --samples workload: count primes of a degree, pair of y-degree ydeg."""

    count: int
    degree: int
    ydeg: int


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[tuple[str, ...], ...]  # CLI argv per process; "{seed}", "{prev}"
    setup: tuple[tuple, ...]  # inputs a fresh interpreter parses to measure set-up
    split: bool = False  # output rows are primes
    sample: Sample | None = None  # primes are drawn at random from the program seed
    why: str = ""
    reference_dir: Path = REFERENCE

    def argvs(self, seed: int, prev_path: str) -> list[list[str]]:
        return [
            [a.replace("{seed}", str(seed)).replace("{prev}", prev_path) for a in step]
            for step in self.steps
        ]

    def references(self) -> list[bytes]:
        if len(self.steps) == 1:
            names = [f"{self.name}.out"]
        else:
            names = [f"{self.name}.{step[0]}.out" for step in self.steps]
        return [(self.reference_dir / name).read_bytes() for name in names]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "split-f3-exh",
            (("split-check", "--pair", "gl2_f3_deg8", "--max-degree", "5", "--jobs", "1"),),
            setup=(("pair", "gl2_f3_deg8"),),
            split=True,
            why="all 80 primes of degree <=5 over F_3 (F_3..F_243); the DDF Frobenius step dominates",
        ),
        Workload(
            "split-f2-sampled",
            (
                (
                    "split-check", "--pair", "gl2_f4_deg15", "--samples", "6",
                    "--degree", "10", "--seed", "{seed}", "--jobs", "1",
                ),
            ),
            setup=(("pair", "gl2_f4_deg15"),),
            split=True,
            sample=Sample(6, 10, 15),
            why="characteristic 2: trace EDF, F_1024 residue fields, reduction of a large g, Rabin rejection sampling",
        ),
        Workload(
            "gassmann-gl2-f7",
            (("gassmann", "--p", "7", "--n", "2", "--construction", "example1"),),
            setup=(("field", 7),),
            why="group side only: |G|=2016, O(|G|^2) conjugacy classes; no polynomial code runs",
        ),
        Workload(
            "torsion-factor-f4",
            (
                ("torsion", "--p", "2", "--rho", "tau^2 + tau + T", "--a", "T^4 + T + 1", "--strip"),
                ("factor", "--p", "2", "--prime", "T^2 + T + 1", "--poly", "@{prev}"),
            ),
            setup=(
                ("parse", 2, "twisted", "tau^2 + tau + T"),
                ("parse", 2, "t_poly", "T^4 + T + 1"),
                ("parse", 2, "t_poly", "T^2 + T + 1"),
                ("parse-reference", 2, "y_poly", "torsion-factor-f4.torsion.out"),
            ),
            why="control: torsion and exprs, then a full EDF factorization with almost no DDF Frobenius",
        ),
    )
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    primes: int = 0  # prime rows decided
    bad: int = 0  # prime rows classified Bad
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _compare_bytes(out: Outcome, got: bytes, ref: bytes, label: str) -> None:
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    for i in range(max(len(got_lines), len(ref_lines))):
        a = got_lines[i] if i < len(got_lines) else None
        b = ref_lines[i] if i < len(ref_lines) else None
        out.op(a == b, f"{label} line {i + 1}: {a!r} != reference {b!r}")
    if got_lines == ref_lines and got != ref:
        out.op(False, f"{label}: line endings differ from the reference")


def _gf2_bits(text: str) -> int:
    """'T^10 + T^3 + 1' -> bit mask of the exponents present; 0 if malformed."""
    bits = 0
    for term in text.split(" + "):
        m = re.fullmatch(r"1|T|T\^(\d+)", term)
        if m is None:
            return 0
        e = 0 if term == "1" else 1 if term == "T" else int(m.group(1))
        if bits >> e & 1:
            return 0
        bits |= 1 << e
    return bits


def _gf2_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_irreducible(bits: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2 over F_2; an
    independent route from the program's Rabin test and sieve."""
    d = bits.bit_length() - 1
    if d < 1:
        return False
    return all(_gf2_mod(bits, t) for t in range(2, 1 << (d // 2 + 1)))


def _type_sum(col: str):
    m = re.fullmatch(r"\[(\d+(?:,\d+)*)\]", col)
    return None if m is None else sum(int(x) for x in m.group(1).split(","))


def _check_sample(out: Outcome, s: Sample, got: bytes, code: int) -> None:
    """Invariants of a sampled split-check over F_2, whatever primes were
    drawn: distinct irreducible primes of the asked degree, split types of
    the pair's degree, no unequal row, a consistent summary and exit 0."""
    out.op(code == 0, f"exit code {code} != 0")
    lines = got.decode("utf-8", "replace").splitlines()
    rows, summary = lines[:-1], lines[-1] if lines else ""
    seen, good, bad = set(), 0, 0
    for i in range(s.count):
        row = rows[i].split("\t") if i < len(rows) else []
        ok = len(row) == 5 and row[1] == str(s.degree) and row[0] not in seen
        if ok:
            seen.add(row[0])
            bits = _gf2_bits(row[0])
            tf, tg, status = row[2], row[3], row[4]
            ok = bits.bit_length() == s.degree + 1 and gf2_irreducible(bits)
            if status == "equal":
                ok = ok and tf == tg and _type_sum(tf) == s.ydeg
                good += 1
            elif status == "bad:repeated_factor_f":
                ok = ok and tf == "-" and (tg == "-" or _type_sum(tg) == s.ydeg)
                bad += 1
            elif status == "bad:repeated_factor_g":
                ok = ok and tg == "-" and _type_sum(tf) == s.ydeg
                bad += 1
            else:
                ok = False
        out.op(ok, f"row {i + 1}: {rows[i] if i < len(rows) else None!r}")
    out.op(len(rows) == s.count, f"{len(rows)} prime rows != {s.count}")
    out.op(
        summary == f"good={good} equal={good} unequal=0 bad={bad} overall=consistent",
        f"summary {summary!r}",
    )


def check(w: Workload, seed: int, results: list[tuple[bytes, int]]) -> Outcome:
    """Check every process's stdout and exit code of one workload run.

    A sampled workload run at another program seed than TIMED_SEED draws
    other primes, so it is checked by invariants; everything else is
    compared byte for byte with the reference.
    """
    out = Outcome()
    if w.sample is not None and seed != TIMED_SEED:
        _check_sample(out, w.sample, *results[0])
    else:
        for (got, code), ref, step in zip(results, w.references(), w.steps):
            out.op(code == 0, f"{step[0]}: exit code {code} != 0")
            _compare_bytes(out, got, ref, step[0])
    if w.split:
        rows = [r for r in results[0][0].decode("utf-8", "replace").splitlines() if "\t" in r]
        out.primes += len(rows)
        out.bad += sum(1 for r in rows if r.rsplit("\t", 1)[-1].startswith("bad:"))
    return out
