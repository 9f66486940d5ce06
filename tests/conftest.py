import numpy as np
import pytest

from qdecouple import ModelParams, TimeOperator, build_restructured, build_two_qubit


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def two_qubit_model():
    return build_two_qubit(ModelParams())


@pytest.fixture(scope="session")
def restructured_model():
    return build_restructured(ModelParams())


@pytest.fixture(scope="session")
def restructured_g0():
    return build_restructured(ModelParams(g=0.0))


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_matrix(rng, dim, scale=1.0):
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def generator_bytes(op):
    """An operator's matrix bytes, per coefficient family for a TimeOperator."""
    if isinstance(op, TimeOperator):
        return [(key, m.tobytes()) for key, m in op.families.items()]
    return op.matrix.tobytes()


def count_time_operators(monkeypatch):
    """Labels of every TimeOperator built from here on, through its one setter."""
    built = []
    original = TimeOperator._set

    def counted(self, parts, dim, label):
        built.append(label)
        original(self, parts, dim, label)

    monkeypatch.setattr(TimeOperator, "_set", counted)
    return built
