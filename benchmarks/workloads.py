"""The three benchmark workloads: inputs made from the workload seed, the
calls into the program, and the correctness check on every output.

Each workload is a closed loop with one caller.  A round is one verdict
table: ``sweep`` searches all 22 entries without a non-Einstein solution,
``classify`` prints the four-row table of positive entries, ``verify``
checks every candidate document once.  ``run_round`` yields one ``Op`` per
call into the program (one entry search, one classify call, one verify
call); an operation fails if it raises or its answer is wrong.  A wrong
*verdict* (a non-Einstein solution on a negative entry, a disagreeing row, a
rejected family point, an accepted non-solution, or an exception) also makes
the run incorrect; an exit code of 1 where the candidate document should have
been refused with 2 is a failed operation only.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from liemaxwell import cli, families, lie_algebra, maxwell, solver

#: Seeds per entry search in ``sweep`` and per entry in ``classify``.
SWEEP_SEEDS = 2
CLASSIFY_SEEDS = 8
CLASSIFY_ENTRIES = ["2A2", "A2+2A1", "A4,6^{a,0}", "A4,9^{-1/2}"]

#: Perturbed copies of each family point, random draws per catalog entry, and
#: documents per refused kind in ``verify``.
PERTURBED_PER_POINT = 4
DRAWS_PER_ENTRY = 20
REFUSED_PER_KIND = 13
NONFINITE_PER_KIND = 52

#: Null-stress bound on solutions of a negative entry (acceptance criterion 7).
NULL_STRESS = 1e-8


@dataclass
class Op:
    seconds: float               # wall time of the call
    failure: str | None = None   # why the operation failed, if it did
    wrong_verdict: bool = False
    slowdown: float = 1.0        # machine slowdown around the call (see speed.py)

    @property
    def nominal_seconds(self) -> float:
        return self.seconds / self.slowdown


def search_seed(seed: int, round_index: int) -> int:
    """``--seed`` of round ``round_index``.  The program seeds start i with
    ``seed ^ i``, so the low ten bits stay zero and distinct rounds never share
    a start for up to 1024 seeds per search."""
    rng = np.random.default_rng([seed, round_index])
    return int(rng.integers(1, 2 ** 20)) << 10


def _metric(entry, metric_params: dict) -> np.ndarray:
    return np.array([[metric_params[c] if isinstance(c, str) else c for c in row]
                     for row in entry.metric_shape], dtype=float)


def _null_stress(g: np.ndarray, f6) -> float:
    """max |F g^-1 F - tr/4 g|, computed here independently of the program."""
    fm = np.zeros((4, 4))
    fm[np.triu_indices(4, 1)] = f6
    fm -= fm.T
    g_inv = np.linalg.inv(g)
    comp = fm @ g_inv @ fm
    return float(np.abs(comp - np.sum(g_inv * comp) / 4 * g).max())


def _guarded(label: str, operation) -> Op:
    """Run one operation.  If the program raises, that is a failed operation
    with a wrong verdict, and the run goes on."""
    t0 = time.perf_counter()
    try:
        return operation()
    except Exception as exc:
        return Op(time.perf_counter() - t0, f"{label}: raised {exc!r}", True)


def _call_cli(argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, code, out.getvalue()


class Sweep:
    """Criterion 7 at a smaller budget: ``multistart_search(entry, n_seeds, seed,
    mode="unit_F")`` over every entry whose verdict is not HasNonEinsteinEM."""

    name = "sweep"
    work_unit = "seeds"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.entries = [e for e in lie_algebra.catalog() if e.verdict != "HasNonEinsteinEM"]
        self.work_per_round = SWEEP_SEEDS * len(self.entries)
        self.params = {"n_seeds": SWEEP_SEEDS, "entries": len(self.entries)}

    def run_round(self, index: int, request) -> Iterator[Op]:
        seed = search_seed(self.seed, index)
        for entry in self.entries:
            label = f"search {entry.name} seed={seed}"
            yield _guarded(label, lambda: self._search(entry, seed, request(label)))

    def _search(self, entry, seed: int, request) -> Op:
        with request:
            t0 = time.perf_counter()
            outcome = solver.multistart_search(entry, n_seeds=SWEEP_SEEDS, seed=seed,
                                               mode="unit_F")
            seconds = time.perf_counter() - t0
        failure = self._check(entry, outcome)
        return Op(seconds, failure, failure is not None)

    @staticmethod
    def _check(entry, outcome) -> str | None:
        for cand, report in outcome.solutions:
            if report.classification == maxwell.NON_EINSTEIN_EM:
                return f"{entry.name}: NonEinsteinEM solution"
            if _null_stress(_metric(entry, cand.metric_params), cand.f_coeffs) > NULL_STRESS:
                return f"{entry.name}: solution without null stress"
        miss = outcome.best_nonsolution_residual
        if np.isfinite(miss) and miss <= solver.EVIDENCE_FACTOR * maxwell.TOL_SOLUTION:
            return f"{entry.name}: inconclusive, closest miss {miss:.3e}"
        return None


class Classify:
    """``liemaxwell classify --json`` on the paper's four positive rows."""

    name = "classify"
    work_unit = "tables"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work_per_round = 1
        self.params = {"n_seeds": CLASSIFY_SEEDS, "entries": CLASSIFY_ENTRIES}

    def run_round(self, index: int, request) -> Iterator[Op]:
        seed = search_seed(self.seed, index)
        label = f"classify seed={seed}"
        yield _guarded(label, lambda: self._classify(seed, request(label)))

    @staticmethod
    def _classify(seed: int, request) -> Op:
        argv = ["classify", "--entries", *CLASSIFY_ENTRIES, "--seeds", str(CLASSIFY_SEEDS),
                "--seed", str(seed), "--json"]
        with request:
            seconds, code, out = _call_cli(argv)
        failure = None
        if code != 0:
            failure = f"classify seed={seed}: exit {code}"
        else:
            rows = json.loads(out)["rows"]
            bad = [r["entry"] for r in rows if not r["agree"] or r["n_non_einstein"] < 1]
            if bad or len(rows) != len(CLASSIFY_ENTRIES):
                failure = f"classify seed={seed}: rows {bad or len(rows)} wrong"
        return Op(seconds, failure, failure is not None)


class Verify:
    """In-process ``liemaxwell verify PATH --json`` over candidate documents
    written at set-up.  Expected exit codes: 0 for family points, 1 for
    perturbed points and random admissible draws, 2 for malformed, unknown,
    inadmissible and non-finite documents."""

    name = "verify"
    work_unit = "calls"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        docs = self._documents(rng)
        order = rng.permutation(len(docs))
        self.docs: list[tuple[Path, int, str]] = []
        for k, i in enumerate(order):
            text, expected, kind = docs[i]
            path = workdir / f"candidate{k:05d}.json"
            path.write_text(text)
            self.docs.append((path, expected, kind))
        self.work_per_round = len(self.docs)
        kinds: dict[str, int] = {}
        for _, _, kind in self.docs:
            kinds[kind] = kinds.get(kind, 0) + 1
        self.params = {"documents": len(self.docs), "kinds": kinds}

    def run_round(self, index: int, request) -> Iterator[Op]:
        for path, expected, kind in self.docs:
            label = f"verify {path.name} ({kind})"
            yield _guarded(label, lambda: self._verify(path, expected, label, request(label)))

    @staticmethod
    def _verify(path: Path, expected: int, label: str, request) -> Op:
        with request:
            seconds, code, out = _call_cli(["verify", str(path), "--json"])
        failure, wrong = None, (code == 0) != (expected == 0)
        if code == 0 and json.loads(out)["classification"] != maxwell.NON_EINSTEIN_EM:
            failure, wrong = f"{label}: exit 0 without NonEinsteinEM", True
        elif code != expected:
            failure = f"{label}: exit {code}, expected {expected}"
        return Op(seconds, failure, wrong)

    # -- documents ----------------------------------------------------------

    @staticmethod
    def _documents(rng: np.random.Generator) -> list[tuple[str, int, str]]:
        docs: list[tuple[str, int, str]] = []
        entries = lie_algebra.catalog()

        def add(doc, expected: int, kind: str) -> None:
            docs.append((doc if isinstance(doc, str) else json.dumps(doc), expected, kind))

        points = []
        for fam in families.FAMILIES.values():
            for point in fam.default_grid:
                for orientation in (1, -1):
                    points.append({"entry": fam.entry_name,
                                   "algebra_params": fam.algebra_params(point),
                                   "metric_params": fam.metric_params(point),
                                   "f_coeffs": [float(x) for x in fam.f_coeffs(point)],
                                   "orientation": orientation})
        for doc in points:
            add(doc, 0, "family point")
            entry = lie_algebra.entry_by_name(doc["entry"])
            for _ in range(PERTURBED_PER_POINT):
                add(_perturbed(doc, entry, rng), 1, "perturbed point")

        draws = [_random_draw(entry, rng) for entry in entries for _ in range(DRAWS_PER_ENTRY)]
        for doc in draws:
            add(doc, 1, "random draw")

        def pick():
            return dict(draws[rng.integers(len(draws))])

        for _ in range(REFUSED_PER_KIND):
            add(json.dumps(pick())[:-7], 2, "malformed")
            add(json.dumps([pick()]), 2, "malformed")
            add({k: v for k, v in pick().items() if k != "f_coeffs"}, 2, "malformed")
            add({**pick(), "f_coeffs": pick()["f_coeffs"][:5]}, 2, "malformed")
            add({**pick(), "orientation": 3}, 2, "malformed")
            add({**pick(), "f_coeffs": ["x"] * 6}, 2, "malformed")
            add({**pick(), "entry": f"A5,{rng.integers(1, 40)}"}, 2, "unknown entry")
            add(_indefinite(pick(), rng), 2, "inadmissible")
            doc = pick()
            add({**doc, "algebra_params": {**doc["algebra_params"], "q": 0.5}}, 2, "inadmissible")
            add({**doc, "metric_params": {**doc["metric_params"], "z9": 1.0}}, 2, "inadmissible")

        unbounded = [(e, p.name) for e in entries for p in e.params if p.hi is None]
        for _ in range(NONFINITE_PER_KIND):
            doc = pick()
            f = list(doc["f_coeffs"])
            f[rng.integers(6)] = float(rng.choice([np.inf, -np.inf]))
            add({**doc, "f_coeffs": f}, 2, "non-finite")
            entry, param = unbounded[rng.integers(len(unbounded))]
            doc = _random_draw(entry, rng)
            marker = 0.123456789
            doc["algebra_params"][param] = marker
            add(json.dumps(doc).replace(repr(marker), "1e400"), 2, "non-finite")
        return docs


def _diagonal_params(entry) -> set[str]:
    return {entry.metric_shape[i][i] for i in range(4) if isinstance(entry.metric_shape[i][i], str)}


def _random_draw(entry, rng: np.random.Generator) -> dict:
    """Admissible by construction: diagonal parameters in [0.8, 2], the others
    in [-0.15, 0.15], so every row is diagonally dominant (at most three
    off-diagonal cells) and every principal minor is positive."""
    diagonal = _diagonal_params(entry)
    metric = {n: float(rng.uniform(0.8, 2.0) if n in diagonal else rng.uniform(-0.15, 0.15))
              for n in entry.metric_param_names}
    if np.linalg.eigvalsh(_metric(entry, metric)).min() <= 0.05:
        raise RuntimeError(f"{entry.name}: drawn metric is not safely positive definite")
    return {"entry": entry.name, "algebra_params": entry.sample_params(),
            "metric_params": metric, "f_coeffs": [float(x) for x in rng.normal(size=6)],
            "orientation": int(rng.choice([1, -1]))}


def _perturbed(doc: dict, entry, rng: np.random.Generator) -> dict:
    f = np.asarray(doc["f_coeffs"]) * (1 + 1e-3 * rng.normal(size=6)) + 1e-3 * rng.normal(size=6)
    metric = {k: v + 1e-4 * float(rng.normal()) for k, v in doc["metric_params"].items()}
    if np.linalg.eigvalsh(_metric(entry, metric)).min() <= 0.05:
        raise RuntimeError(f"{entry.name}: perturbed metric is not safely positive definite")
    return {**doc, "metric_params": metric, "f_coeffs": [float(x) for x in f]}


def _indefinite(doc: dict, rng: np.random.Generator) -> dict:
    """Flip the sign of one diagonal parameter, or inflate an off-diagonal one,
    so a leading principal minor turns negative."""
    entry = lie_algebra.entry_by_name(doc["entry"])
    metric = dict(doc["metric_params"])
    diagonal = sorted(_diagonal_params(entry))
    if diagonal:
        metric[diagonal[rng.integers(len(diagonal))]] = -float(rng.uniform(0.5, 2.0))
    elif metric:
        metric[sorted(metric)[rng.integers(len(metric))]] = float(rng.choice([-1, 1]) * 3.0)
    else:
        return {**doc, "metric_params": {"a1": -1.0}}
    return {**doc, "metric_params": metric}


WORKLOADS = {w.name: w for w in (Sweep, Classify, Verify)}
