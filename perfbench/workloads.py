"""The four certification workloads.

Each workload turns the seed into inputs, prepares them untimed, and hands
out passes: lists of jobs, where a job is a timed call into threefold's
public functions and an untimed check of its result against an oracle of
the benchmark's own.  Job bodies look functions up through their module
(``dimensions.check_decomposition``), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import oracles

R_VALUES = (7, 23, 47, 95)
HALF_AMBIENT = (2, (1, 1, 1, 0, 0))
MODEL_CHECKS = ("model_valid", "discrepancy", "e_cubed", "one_singular_point",
                "no_manual_charts", "quotient_type")


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is correct


def cd2_weights(r: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(w) for w in ((r + 1) // 2, (r - 1) // 2, 2, 1, r))


def expected_point(r: int) -> str:
    """The one singular point every model's blow-up has, in canonical form."""
    n = 2 * r
    return oracles.format_type(n, oracles.canonical_form(n, (1, 2 * r - 1, r + 4)))


# -- dims-growth ---------------------------------------------------------------


class DimsGrowth:
    """The verify-dim suite at imax = 6r, one job per r in R_VALUES."""

    name = "dims-growth"

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._series: dict[int, list[tuple[int, int]]] = {}
        self._tables_checked: set[int] = set()

    def prepare(self) -> None:
        self._series = {r: oracles.hilbert_dimensions(r, 6 * r) for r in R_VALUES}

    def next_pass(self) -> list[Job]:
        order = list(R_VALUES)
        self._rng.shuffle(order)
        return [Job(f"r{r}", lambda r=r: self._suite(r, 6 * r),
                    lambda result, r=r: self._check(r, 6 * r, result))
                for r in order]

    @staticmethod
    def _suite(r: int, imax: int):
        from threefold import dimensions
        decomposition = [dimensions.check_decomposition(r, i, j)
                         for i in range(imax + 1) for j in (0, 1)]
        profile = dimensions.correction_profile(r, imax)
        return decomposition, profile, dimensions.solve_correction(profile)

    def _check(self, r: int, imax: int, result) -> str | None:
        decomposition, profile, table = result
        series = self._series[r]
        period = 2 * r
        if len(decomposition) != 2 * (imax + 1) or not all(decomposition):
            return f"r={r}: decomposition check failed or incomplete"
        if sorted(profile.delta) != list(range(period)):
            return f"r={r}: profile does not cover every residue mod {period}"
        for i in range(2, imax + 1):
            for j in (0, 1):
                key = (2 * i + r * j) % period
                if profile.delta[key] != oracles.expected_increment(series, r, i, j):
                    return f"r={r}: increment at (i,j)=({i},{j}) disagrees with the series"
        for start in (0, 1):
            if sum(profile.delta[k] for k in oracles.orbit(start, period)) != 0:
                return f"r={r}: orbit sum through {start} is nonzero"
        if table.get(0) != 0 or table.get(1) != 0:
            return f"r={r}: correction is not normalized by B(0) = B(1) = 0"
        if any(table[(k + 2) % period] - table[k] != profile.delta[k] for k in range(period)):
            return f"r={r}: correction does not integrate the profile"
        if r not in self._tables_checked:
            # every graded dimension up to 6r, once per run
            from threefold.dimensions import DimensionTable
            dims = DimensionTable.compute(r, imax)
            for i in range(imax + 1):
                for j in (0, 1):
                    if dims.dimension(i, j) != series[i][j]:
                        return f"r={r}: dim({i},{j}) disagrees with the Hilbert series"
            self._tables_checked.add(r)
        return None


# -- models-batch --------------------------------------------------------------


_FOUND_TYPE = re.compile(r"found \{.*'type': '([^']*)'")


class ModelsBatch:
    """Load and certify 120 seeded models, 30 for each r in R_VALUES."""

    name = "models-batch"
    PER_R = 30

    def __init__(self, seed: int):
        self._seed = seed
        self._rng = random.Random(seed)
        self._models: list[tuple[int, str]] = []

    def prepare(self) -> None:
        from threefold import models
        rng = random.Random(self._seed)
        self._models = [(r, json.dumps(models.generate_model(r, model_seed).to_json_dict()))
                        for r in R_VALUES
                        for model_seed in rng.sample(range(1_000_000), self.PER_R)]

    def next_pass(self) -> list[Job]:
        order = list(self._models)
        self._rng.shuffle(order)
        return [Job(f"r{r}", lambda text=text: self._certify(text),
                    lambda report, r=r: self._check(r, report))
                for r, text in order]

    @staticmethod
    def _certify(text: str):
        from threefold import blowup, models
        return blowup.verify_blowup_profile(models.CD2Model.from_json_dict(json.loads(text)))

    @staticmethod
    def _check(r: int, report) -> str | None:
        names = tuple(c.name for c in report.checks)
        if names != MODEL_CHECKS:
            return f"r={r}: checks {names}, expected {MODEL_CHECKS}"
        failed = [c.name for c in report.checks if not c.passed]
        if failed:
            return f"r={r}: failed checks {failed}"
        found = _FOUND_TYPE.search(report.checks[-1].detail)
        if found is None or found.group(1) != expected_point(r):
            return f"r={r}: quotient point {found and found.group(1)}, expected {expected_point(r)}"
        return None


# -- toric-sweep ---------------------------------------------------------------


class ToricSweep:
    """Reid-Tai verdicts and blow-up chart groups on inputs never repeated.

    Three infinite streams, each consumed in order so that no input occurs
    twice in a run and the cost per job stays the same however many passes
    a run makes:
    - Reid-Tai blocks: types 1/n(a,b,c) with n <= RT_MAX_N, visited in the
      order of a seeded affine permutation of all 4,326,400 such triples,
      about ninety times what a run consumed when this benchmark was written;
    - Kawamata data 1/n(a,n-a,1) with v = (a,n-a,1)/n, n = 2, 3, ...;
    - cD/2 ambients 1/2(1,1,1,0,0) with the model weights of r, for valid r
      outside R_VALUES, shuffled within windows of 600.
    """

    name = "toric-sweep"
    RT_MAX_N = 64
    RT_BLOCK = 200
    RT_PER_PASS = 40
    KAWAMATA_PER_PASS = 300
    CD2_PER_PASS = 40

    def __init__(self, seed: int):
        self._seed = seed
        self._rng = random.Random(seed)

    def prepare(self) -> None:
        rng = random.Random(self._seed)
        self._offsets = list(itertools.accumulate((n ** 3 for n in range(1, self.RT_MAX_N + 1)),
                                                  initial=0))
        size = self._offsets[-1]
        self._step = next(s for s in iter(lambda: rng.randrange(size // 3, size), None)
                          if math.gcd(s, size) == 1)
        self._shift = rng.randrange(size)
        self._rt_next = 0
        self._kawamata = ((n, a) for n in itertools.count(2)
                          for a in range(1, n) if math.gcd(a, n) == 1)
        self._cd2 = self._cd2_stream(rng)

    @staticmethod
    def _cd2_stream(rng: random.Random):
        for start in itertools.count(0, 600):
            window = [r for r in range(max(start, 9), start + 600)
                      if r % 8 in (1, 7) and r not in R_VALUES]
            rng.shuffle(window)
            yield from window

    def _rt_type(self, index: int) -> tuple[int, tuple[int, int, int]]:
        x = (self._step * index + self._shift) % self._offsets[-1]
        n = bisect.bisect_right(self._offsets, x)
        local = x - self._offsets[n - 1]
        return n, (local // (n * n), (local // n) % n, local % n)

    def next_pass(self) -> list[Job]:
        jobs = []
        for _ in range(self.RT_PER_PASS):
            types = [self._rt_type(self._rt_next + k) for k in range(self.RT_BLOCK)]
            self._rt_next += self.RT_BLOCK
            jobs.append(Job("reid-tai", lambda types=types: self._verdicts(types),
                            lambda out, types=types: self._check_verdicts(types, out)))
        for n, a in itertools.islice(self._kawamata, self.KAWAMATA_PER_PASS):
            v = (Fraction(a, n), Fraction(n - a, n), Fraction(1, n))
            jobs.append(self._chart_job("kawamata", n, (a, n - a, 1), v))
        for r in itertools.islice(self._cd2, self.CD2_PER_PASS):
            jobs.append(self._chart_job("cd2", *HALF_AMBIENT, cd2_weights(r)))
        self._rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _verdicts(types):
        from threefold import quotients
        out = []
        for n, weights in types:
            q = quotients.QuotientType(n, weights)
            out.append((q.normalized(), quotients.reid_tai_is_terminal(q),
                        quotients.reid_tai_is_canonical(q)))
        return out

    def _check_verdicts(self, types, out) -> str | None:
        if len(out) != len(types):
            return f"{len(out)} verdicts for {len(types)} types"
        for (n, weights), (normal, terminal, canonical) in zip(types, out):
            form, age = oracles.canonical_form(n, weights), oracles.min_age(n, weights)
            label = oracles.format_type(n, weights)
            if terminal != oracles.is_terminal(n, weights):
                return f"{label}: terminal verdict {terminal} contradicts the classification"
            if canonical != (age >= n):
                return f"{label}: canonical verdict {canonical}, least age {age}/{n}"
            if (normal.n, normal.weights) != (n, form):
                return f"{label}: normalized to {normal}, expected {oracles.format_type(n, form)}"
        return None

    @staticmethod
    def _chart_job(label: str, n: int, weights: tuple[int, ...], v) -> Job:
        def run():
            from threefold import quotients
            return quotients.blowup_charts(quotients.QuotientType(n, weights), v)

        def check(report) -> str | None:
            orders = [chart.order for chart in report.charts]
            expected = oracles.chart_orders(n, v)
            if orders != expected:
                return (f"{oracles.format_type(n, weights)} at {[str(x) for x in v]}: "
                        f"chart orders {orders}, expected {expected}")
            return None

        return Job(label, run, check)


# -- cli-commands --------------------------------------------------------------


class CliCommands:
    """The eight CLI commands, each run through ``threefold.cli.main`` in process.

    A cold start (a fresh interpreter importing threefold.cli) is what
    setup_s times on every workload; here the commands themselves are timed,
    from argument parsing to the JSON they print.
    """

    name = "cli-commands"
    COMMANDS = ("ni", "dims", "verify-dim", "terminal", "charts", "generate", "validate",
                "blowup")
    # (r, degree) of each counting command.  They are kept to about ten
    # milliseconds: longer jobs follow the machine's load (README.md), and
    # dims-growth measures counting at full size.
    NI = (23, 69)
    DIMS = (7, 42)
    VERIFY_DIM = (7, 21)

    def __init__(self, seed: int, scratch: Path):
        self._rng = random.Random(seed)
        self._model = scratch / "model.json"
        self._series: dict[int, list[tuple[int, int]]] = {}

    def prepare(self) -> None:
        self._series = {r: oracles.hilbert_dimensions(r, degree)
                        for r, degree in (self.NI, self.DIMS)}

    @staticmethod
    def _command(label: str, args: list[str], check) -> Job:
        argv = ["--format", "json", label, *args]

        def run():
            from threefold import cli
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse exits on arguments it rejects
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def checked(done) -> str | None:
            code, out, err = done
            try:
                return check(code, json.loads(out))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return (f"{label}: unreadable output ({exc!r}), exit {code}, "
                        f"stderr {err.strip()[-200:]!r}")

        return Job(label, run, checked)

    def next_pass(self) -> list[Job]:
        rng = self._rng
        n = rng.randint(2, 30)
        weights = tuple(rng.randrange(n) for _ in range(3))
        r, model_seed = rng.choice(R_VALUES), rng.randrange(1_000_000)
        model = str(self._model)
        return [
            self._command("ni", ["--r", str(self.NI[0]), "--i", str(self.NI[1])],
                          self._check_ni),
            self._command("dims", ["--r", str(self.DIMS[0]), "--imax", str(self.DIMS[1])],
                          self._check_dims),
            self._command("verify-dim", ["--r", str(self.VERIFY_DIM[0]),
                                         "--imax", str(self.VERIFY_DIM[1])],
                          self._check_verify_dim),
            self._command("terminal", ["--type", oracles.format_type(n, weights)],
                          lambda code, out: self._check_terminal(n, weights, code, out)),
            self._command("charts", ["--ambient", "1/2(1,1,1,0,0)", "--weights",
                                     ",".join(str(w) for w in cd2_weights(95))],
                          self._check_charts),
            self._command("generate", ["--r", str(r), "--seed", str(model_seed),
                                       "--out", model],
                          lambda code, out: self._check_generate(r, model_seed, code, out)),
            self._command("validate", ["--model", model], self._check_validate),
            self._command("blowup", ["--model", model],
                          lambda code, out: self._check_blowup(r, code, out)),
        ]

    def _check_ni(self, code, out) -> str | None:
        r, i = self.NI
        weights = ((r + 1) // 2, (r - 1) // 2, 2, 1, r)
        points = [tuple(p["exponents"]) for p in out["points"]]
        if code != 0 or (out["r"], out["i"], out["parity"]) != (r, i, None):
            return f"ni: exit {code}, header {out['r'], out['i'], out['parity']}"
        if len(points) != sum(self._series[r][i]) or len(set(points)) != len(points):
            return f"ni: {len(points)} points, expected {sum(self._series[r][i])} distinct"
        for p, entry in zip(points, out["points"]):
            if (sum(w * e for w, e in zip(weights, p)) != i or p[0] > 1 or p[1] > 1
                    or min(p) < 0 or entry["parity"] != sum(p[:3]) % 2):
                return f"ni: point {entry} is not a degree-{i} solution"
        return None

    def _check_dims(self, code, out) -> str | None:
        r, imax = self.DIMS
        expected = [{"i": i, "j": j, "dim": self._series[r][i][j]}
                    for i in range(imax + 1) for j in (0, 1)]
        if code != 0 or out["r"] != r or out["dims"] != expected:
            return f"dims: exit {code} or dimensions disagree with the Hilbert series"
        return None

    def _check_verify_dim(self, code, out) -> str | None:
        names = [c["name"] for c in out["checks"]]
        if (code != 0 or out["imax"] != self.VERIFY_DIM[1] or out["passed"] is not True
                or names != ["decomposition", "well_defined", "orbit_sums", "correction_solved"]
                or not all(c["passed"] for c in out["checks"])):
            return f"verify-dim: exit {code}, checks {names}, passed {out['passed']}"
        return None

    @staticmethod
    def _check_terminal(n, weights, code, out) -> str | None:
        terminal = oracles.is_terminal(n, weights)
        expected = {"type": oracles.format_type(n, weights),
                    "normalized": oracles.format_type(n, oracles.canonical_form(n, weights)),
                    "terminal": terminal,
                    "canonical": oracles.min_age(n, weights) >= n}
        if code != (0 if terminal else 1) or out != expected:
            return f"terminal: exit {code}, output {out}, expected {expected}"
        return None

    @staticmethod
    def _check_charts(code, out) -> str | None:
        orders = [c["order"] for c in out["charts"]]
        expected = oracles.chart_orders(HALF_AMBIENT[0], cd2_weights(95))
        if code != 0 or orders != expected:
            return f"charts: exit {code}, orders {orders}, expected {expected}"
        return None

    def _check_generate(self, r, model_seed, code, out) -> str | None:
        if (code != 0 or (out["r"], out["seed"]) != (r, model_seed)
                or out["written"] != str(self._model) or min(out["p_terms"], out["q_terms"]) < 1):
            return f"generate: exit {code}, output {out}"
        return None

    @staticmethod
    def _check_validate(code, out) -> str | None:
        if code != 0 or out["passed"] is not True or not all(c["passed"] for c in out["checks"]):
            return f"validate: exit {code}, output {out}"
        return None

    @staticmethod
    def _check_blowup(r, code, out) -> str | None:
        nonsmooth = [c for c in out["charts"] if c["finding"] != "smooth"]
        if (code != 0 or out["r"] != r or out["discrepancy"] != "2" or out["e3"] != f"1/{r}"
                or [(c["finding"], c["type"]) for c in nonsmooth]
                != [("quotient", expected_point(r))]):
            return f"blowup: exit {code}, r {out['r']}, discrepancy {out['discrepancy']}, " \
                   f"E^3 {out['e3']}, non-smooth {nonsmooth}"
        return None


ALL = (DimsGrowth, ModelsBatch, ToricSweep, CliCommands)
