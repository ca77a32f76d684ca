import sys

import pytest

from threefold import linalg, quotients


def _counted(monkeypatch, module, name):
    # replace module.<name>, wherever a threefold module has bound it, with
    # a wrapper that records its first argument; returns the list of
    # recorded arguments
    seen = []
    compute = getattr(module, name)

    def counted(first, *rest):
        seen.append(first)
        return compute(first, *rest)

    for loaded_name, loaded in list(sys.modules.items()):
        if loaded_name.partition(".")[0] == "threefold":
            for attr, value in list(vars(loaded).items()):
                if value is compute:
                    monkeypatch.setattr(loaded, attr, counted)
    return seen


@pytest.fixture
def age_loops(monkeypatch):
    """The types the Reid-Tai verdicts send through the age loop."""
    return _counted(monkeypatch, quotients, "_ages_above")


@pytest.fixture
def terminal_lemmas(monkeypatch):
    """The types the Reid-Tai verdicts decide by the terminal lemma."""
    return _counted(monkeypatch, quotients, "_terminal_lemma")


@pytest.fixture
def snf_calls(monkeypatch):
    """The matrices the toric layer puts into Smith normal form."""
    return _counted(monkeypatch, linalg, "smith_normal_form")


@pytest.fixture
def unimodular_inverses(monkeypatch):
    """The matrices given to invert_unimodular."""
    return _counted(monkeypatch, linalg, "invert_unimodular")
