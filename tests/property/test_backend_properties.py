"""Hypothesis properties for the compiled kernel backends.

The differential matrix (tests/unit/test_backend_differential.py) pins
hand-picked corners; these properties sweep random CSR structures and
operand dtypes and assert the same tolerance contract: ``numpy`` (and
the test-only ``fake`` backend) bitwise-equal to the references,
``numba`` (when importable) within 1 ULP.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import spmm, spmm_gather_reference, spmv
from repro.kernels.backends import available_backends

from test_sparse_properties import csr_matrices

#: Backends that are importable here; the full set runs in the CI
#: ``backends`` lane where numba is installed.
AVAILABLE = tuple(available_backends())


def _assert_matches(backend_name, got, reference):
    if backend_name == "numba":
        np.testing.assert_array_max_ulp(got, reference, maxulp=1)
    else:
        np.testing.assert_array_equal(got, reference)


class TestBackendSpmmProperties:
    @pytest.mark.parametrize("backend_name", AVAILABLE)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=lambda d: d.__name__)
    @given(csr=csr_matrices(), k=st.integers(0, 9), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_spmm_matches_numpy_reference(self, backend_name, dtype, csr, k, seed):
        X = np.random.default_rng(seed).normal(
            size=(csr.n_cols, k)
        ).astype(dtype)
        reference = spmm_gather_reference(csr, X)
        _assert_matches(backend_name, spmm(csr, X, backend=backend_name), reference)

    @pytest.mark.parametrize("backend_name", AVAILABLE)
    @given(csr=csr_matrices(), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_spmv_matches_numpy_reference(self, backend_name, csr, seed):
        x = np.random.default_rng(seed).normal(size=csr.n_cols)
        reference = spmv(csr, x)
        _assert_matches(backend_name, spmv(csr, x, backend=backend_name), reference)
