"""Shared tiny fixtures for Spark-dependent tests.

Session scope: the bundles/executors are read-only for tests and expensive
enough (Spark round-trips) that rebuilding per test would dominate runtime.
"""
import pytest

from repro.core.config import TINY
from repro.core.executor import QueryExecutor
from repro.core.feataug import DatasetContext
from repro.datasets import household, tmall
from tests import synth_data


@pytest.fixture(scope="session")
def tiny_tmall(spark):
    return tmall(spark, scale=0.12, seed=7)


@pytest.fixture(scope="session")
def tiny_household(spark):
    return household(spark, scale=0.15, seed=7)


@pytest.fixture(scope="session")
def tmall_ctx(spark, tiny_tmall):
    ctx = DatasetContext(spark, tiny_tmall, TINY, seed=0)
    yield ctx
    ctx.close()


@pytest.fixture(scope="session")
def household_ctx(spark, tiny_household):
    ctx = DatasetContext(spark, tiny_household, TINY, seed=0)
    yield ctx
    ctx.close()


@pytest.fixture(scope="session")
def lineitem_small(spark):
    return synth_data.lineitem(spark, sf=0.001, seed=0).cache()


@pytest.fixture(scope="session")
def lineitem_executor(spark, lineitem_small):
    ex = QueryExecutor(spark, lineitem_small, view="li_test")
    yield ex
    ex.unpersist()
