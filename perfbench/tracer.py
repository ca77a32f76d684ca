"""In-memory spans around threefold's public functions.

A traced run wraps each function in LAYERS at its module attribute and at
every name another threefold module imported it under, so calls between
layers get their own spans.  A span's self time is its length minus the
time its child spans cover; spans are folded into per-layer totals as they
close, so memory stays flat however many calls a run makes, and nothing is
written until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction


def _degree_key(r, degree):
    return (r, degree)


def _chart_key(ambient, v):
    return (ambient, tuple(Fraction(x) for x in v))


def _count_findings(tracer, findings):
    tracer.findings.update(f.kind for f in findings)


# (module, qualified name, key of the arguments whose distinct values are
# counted or None, hook that sees the result or None).  Methods are named
# Class.method.
LAYERS = (
    ("dimensions", "degree_points", _degree_key, None),
    ("dimensions", "graded_dimension", None, None),
    ("dimensions", "check_decomposition", None, None),
    ("dimensions", "correction_profile", None, None),
    ("dimensions", "solve_correction", None, None),
    ("polynomials", "weighted_order", None, None),
    ("polynomials", "is_semi_invariant", None, None),
    ("polynomials", "detect_square_form", None, None),
    ("linalg", "smith_normal_form", None, None),
    ("linalg", "invert_rational", None, None),
    ("linalg", "invert_unimodular", None, None),
    ("linalg", "rational_determinant", None, None),
    ("quotients", "blowup_charts", _chart_key, None),
    ("quotients", "quotient_presentation", None, None),
    ("quotients", "effective_factors", None, None),
    ("quotients", "reid_tai_is_terminal", None, None),
    ("quotients", "reid_tai_is_canonical", None, None),
    ("quotients", "QuotientType.normalized", None, None),
    ("models", "validate_model", None, None),
    ("models", "model_equations", None, None),
    ("blowup", "model_germ", None, None),
    ("blowup", "chart_singularities", None, _count_findings),
    ("blowup", "verify_blowup_profile", None, None),
)

FINDING_KINDS = ("smooth", "quotient", "manual")


class Tracer:
    """Span stack plus per-name totals: calls, self time and distinct keys."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.keys: defaultdict = defaultdict(set)
        self.findings: Counter = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        end = self._clock()
        name, start, covered = self._stack.pop()
        length = end - start
        self.calls[name] += 1
        self.self_s[name] += length - covered
        if self._stack:
            self._stack[-1][2] += length

    def wrap(self, name: str, fn, key=None, observe=None):
        def traced(*args, **kwargs):
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(self, result)
            return result
        return traced

    def distinct(self, name: str) -> int:
        return len(self.keys[name])


class Installed:
    """Reusable context manager that swaps the traced wrappers in and out.

    The wrappers are built once; entering and leaving only reassigns
    attributes, so a run can trace job bodies and leave its checks
    untraced.
    """

    def __init__(self, tracer: Tracer):
        self._patches: list[tuple[object, str, object, object]] = []
        for module_name, qualname, key, observe in LAYERS:
            module = importlib.import_module(f"threefold.{module_name}")
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original,
                                      tracer.wrap(name, original, key, observe)))
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(name, original, key, observe)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name == "threefold" or loaded_name.startswith("threefold."):
                    self._patches.extend((loaded, attr, original, wrapper)
                                         for attr, value in vars(loaded).items()
                                         if value is original)

    def __enter__(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
