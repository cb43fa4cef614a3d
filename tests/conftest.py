import dataclasses

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
from accr.models import chart_model
from accr.structure import PointFields, standard_structure

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


def jetless_example1_chart(n=1):
    """example1_chart with its coframe given to chart_model without any
    derivative: its brackets and curvature come by finite differences, so it
    is not exact and its report carries the half-step error estimate."""
    cm = example1_chart(n)
    model = chart_model(cm.model.dim, cm.model.metric_fn, frame=cm.coframe_fn,
                        ranges=cm.model.ranges)
    return dataclasses.replace(cm, model=model, structure=standard_structure(model, n))
