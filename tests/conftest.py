import pytest

from qforge import catalog
from qforge.gadgets import AlphaBeta
from qforge.model import ENC_DNF, Domain, Relation


@pytest.fixture
def d2():
    return Domain(2)


@pytest.fixture
def d3():
    return Domain(3)


@pytest.fixture
def ab():
    return AlphaBeta.of({0, 2}, {1, 2})


@pytest.fixture
def semilattice():
    return catalog.semilattice_algebra()


@pytest.fixture
def switchable():
    return catalog.switchable_algebra()


@pytest.fixture
def projections3():
    return catalog.projections_algebra()


@pytest.fixture
def no_dnf_materialization(monkeypatch):
    """Make Relation.tuples raise on DNF-backed relations."""
    original = Relation.tuples

    def guarded(rel):
        if rel.encoding == ENC_DNF:
            raise AssertionError(f"materialized {rel!r}")
        return original(rel)

    monkeypatch.setattr(Relation, "tuples", guarded)
