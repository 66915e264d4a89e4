"""Device-primitive tests: numpy and python backends must agree exactly."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.setops import (
    BACKENDS,
    Counter,
    NumpySetOps,
    PythonSetOps,
)

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=200), max_size=60, unique=True
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


def ref_intersect(a, b):
    return np.array(sorted(set(a.tolist()) & set(b.tolist())), dtype=np.int64)


def ref_difference(a, b):
    return np.array(sorted(set(a.tolist()) - set(b.tolist())), dtype=np.int64)


@pytest.mark.parametrize("ops", [NumpySetOps, PythonSetOps], ids=lambda o: o.name)
class TestBackends:
    @settings(max_examples=60, deadline=None)
    @given(a=sorted_sets, b=sorted_sets)
    def test_intersect(self, ops, a, b):
        assert np.array_equal(ops.intersect(a, b), ref_intersect(a, b))

    @settings(max_examples=60, deadline=None)
    @given(a=sorted_sets, b=sorted_sets)
    def test_difference(self, ops, a, b):
        assert np.array_equal(ops.difference(a, b), ref_difference(a, b))

    @settings(max_examples=40, deadline=None)
    @given(a=sorted_sets, y=st.integers(min_value=-5, max_value=210))
    def test_bound_upper(self, ops, a, y):
        got = ops.bound_upper(a, y)
        assert np.array_equal(got, a[a < y])

    @settings(max_examples=40, deadline=None)
    @given(a=sorted_sets, y=st.integers(min_value=-5, max_value=210))
    def test_bound_lower(self, ops, a, y):
        got = ops.bound_lower(a, y)
        assert np.array_equal(got, a[a > y])

    @settings(max_examples=40, deadline=None)
    @given(a=sorted_sets, vals=st.lists(st.integers(0, 200), max_size=4))
    def test_remove(self, ops, a, vals):
        got = ops.remove(a, vals)
        assert np.array_equal(got, np.array(
            [x for x in a.tolist() if x not in set(vals)], dtype=np.int64))

    def test_empty_inputs(self, ops):
        e = np.array([], dtype=np.int64)
        a = np.array([1, 2, 3], dtype=np.int64)
        assert len(ops.intersect(e, a)) == 0
        assert len(ops.intersect(a, e)) == 0
        assert np.array_equal(ops.difference(a, e), a)
        assert len(ops.difference(e, a)) == 0
        assert len(ops.bound_upper(e, 5)) == 0
        assert len(ops.remove(e, [1])) == 0

    def test_counter_accumulates(self, ops):
        ctr = Counter()
        a = np.arange(10, dtype=np.int64)
        b = np.arange(5, 15, dtype=np.int64)
        ops.intersect(a, b, ctr)
        assert ctr.ops > 0


def test_backends_registry():
    assert set(BACKENDS) == {"numpy", "python"}


@settings(max_examples=30, deadline=None)
@given(a=sorted_sets, b=sorted_sets)
def test_backends_agree(a, b):
    assert np.array_equal(NumpySetOps.intersect(a, b), PythonSetOps.intersect(a, b))
    assert np.array_equal(NumpySetOps.difference(a, b), PythonSetOps.difference(a, b))

