import pytest

from threefold import quotients


def _counted(monkeypatch, name):
    # replace quotients.<name> with a wrapper that records its first
    # argument; returns the list of recorded arguments
    seen = []
    compute = getattr(quotients, name)

    def counted(first, *rest):
        seen.append(first)
        return compute(first, *rest)

    monkeypatch.setattr(quotients, name, counted)
    return seen


@pytest.fixture
def age_loops(monkeypatch):
    """The types the Reid-Tai verdicts send through the age loop."""
    return _counted(monkeypatch, "_ages_above")


@pytest.fixture
def snf_calls(monkeypatch):
    """The matrices the toric layer puts into Smith normal form."""
    return _counted(monkeypatch, "smith_normal_form")
