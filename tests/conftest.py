import numpy as np
import pytest

from accr.corpus import (
    example1,
    example1_chart,
    example2,
    example2_chart,
    example3_hsphere_ext,
    flat_parallel,
)
from accr.models import DEFAULT_FD_STEP, coordinate_derivatives
from accr.structure import Field, PointFields

ORIGIN = np.zeros(0)


@pytest.fixture(scope="session")
def ex1():
    return example1(n=1)


@pytest.fixture(scope="session")
def ex1_n2():
    return example1(n=2)


@pytest.fixture(scope="session")
def ex2():
    return example2(lam=1.0, mu=0.0)


@pytest.fixture(scope="session")
def ex2_generic():
    return example2(lam=2.0, mu=1.0)


@pytest.fixture(scope="session")
def ex1_chart():
    return example1_chart(n=1)


@pytest.fixture(scope="session")
def ex2_chart():
    return example2_chart(lam=1.0)


@pytest.fixture(scope="session")
def ex3():
    return example3_hsphere_ext(n=3, a=1.0, b=0.0)


@pytest.fixture(scope="session")
def flat():
    return flat_parallel(n=1)


def sample_fields(cm, count, seed):
    """The PointFields of cm's structure at its first count sample points."""
    return [PointFields(cm.structure, p) for p in cm.model.sample_points(count, seed)]


def sample_block(cm, count, seed):
    """The PointFields of cm's structure at its first count sample points, as
    one block (a group's sample is one point)."""
    return PointFields(cm.structure, np.stack(cm.model.sample_points(count, seed)))


def coordinate(mu, coef=1.0):
    """The Field coef x^mu of a chart, whose frame jet is coef e_i(x^mu) =
    coef A[mu, i], A its frame matrix."""
    return Field(lambda p: coef * p[..., mu], lambda m, p: coef * m.frame_matrix(p)[..., mu, :])


def stencil_field(value):
    """The Field of value on a chart, with the finite differences of value
    at the default step as its jet: for a field whose closed-form jet takes
    more than a line."""
    return Field(value, lambda m, p: m.frame_derivative(p, value))


def stepped_example1_chart(n=1, step=DEFAULT_FD_STEP):
    """example1_chart with its coframe jets the finite differences of its
    coframe at step: a zero step makes its brackets, and so every row that
    reads the connection, NaN."""
    cm = example1_chart(n)
    chart = cm.model
    diff = lambda fn: (lambda x: coordinate_derivatives(fn, x, step))
    chart.coframe_derivs_fn = diff(cm.coframe_fn)
    chart.coframe_derivs2_fn = diff(chart.coframe_derivs_fn)
    return cm
