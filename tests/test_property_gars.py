"""Property-based tests (hypothesis) for the vectorized GAR kernels.

Two families of properties, each run against randomly drawn
``(n, f, d)`` inputs:

* **Agreement with the pre-vectorization references** — the kernels in
  :mod:`repro.gars.kernels` must compute the same aggregates as the
  original per-row Python implementations kept in
  :mod:`tests.reference_gars`.  For selection-based rules (Krum, MDA,
  Bulyan) agreement is asserted on *integer-valued* inputs, where both
  distance paths are exact (no rounding anywhere), so any disagreement
  is a logic bug and not a last-ulp score flip; the smooth rules
  (coordinate-wise, geometric median) are additionally checked on
  arbitrary floats.
* **Permutation invariance** — shuffling the submission order never
  changes the aggregate, including under exact ties.

The exact-tie behaviour of the new tie-break kernel gets its own
deterministic tests (duplicate rows, tied scores, signed zeros).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gars import get_gar
from repro.gars.kernels import (
    krum_scores_from_sq_distances,
    pairwise_sq_distances,
    rank_by_score_then_value,
)
from tests.reference_gars import (
    REFERENCE_AGGREGATORS,
    krum_scores_reference,
    rank_by_score_then_value_reference,
)

# (name, n, f) cells with every precondition satisfied.
SETUPS = [
    ("median", 9, 4),
    ("trimmed-mean", 9, 4),
    ("meamed", 9, 4),
    ("phocas", 9, 4),
    ("krum", 9, 2),
    ("mda", 9, 3),
    ("bulyan", 11, 2),
    ("geometric-median", 9, 4),
]


def _matrix_strategy(n, d, elements):
    return st.lists(
        st.lists(elements, min_size=d, max_size=d), min_size=n, max_size=n
    ).map(lambda rows: np.asarray(rows, dtype=np.float64))


def _integer_matrix(n, d):
    """Integer-valued float matrices: all distance arithmetic is exact."""
    return _matrix_strategy(n, d, st.integers(-8, 8).map(float))


def _float_matrix(n, d):
    return _matrix_strategy(
        n,
        d,
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, width=32),
    )


@pytest.mark.slow
class TestAgreementWithReference:
    @pytest.mark.parametrize("name,n,f", SETUPS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_integer_inputs_exact_agreement(self, name, n, f, data):
        """On exact-arithmetic inputs the kernel and the reference must
        produce identical aggregates — selection rules included."""
        d = data.draw(st.integers(1, 4))
        gradients = data.draw(_integer_matrix(n, d))
        gar = get_gar(name, n, f)
        expected = REFERENCE_AGGREGATORS[name](gradients, n, f)
        actual = gar.aggregate(gradients)
        if name == "geometric-median":  # iterative: agreement to tolerance
            assert np.allclose(actual, expected, atol=1e-7)
        else:
            assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("name,n,f", SETUPS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_float_inputs_close_agreement(self, name, n, f, data):
        """On arbitrary floats, agreement up to reordering tolerance.

        Selection rules can legitimately flip between tied-to-rounding
        candidates, so their tolerance is driven by the score gap:
        inputs whose reference scores are neither exactly tied nor
        well-separated are skipped via ``assume``-style filtering.
        """
        from hypothesis import assume

        d = data.draw(st.integers(1, 4))
        gradients = data.draw(_float_matrix(n, d))
        gar = get_gar(name, n, f)
        if name in ("krum", "bulyan", "mda"):
            scores = krum_scores_reference(gradients, min(f, n - 3))
            gaps = np.diff(np.sort(scores))
            scale = max(float(np.max(scores)), 1.0)
            assume(np.all((gaps == 0.0) | (gaps > 1e-6 * scale)))
        expected = REFERENCE_AGGREGATORS[name](gradients, n, f)
        actual = gar.aggregate(gradients)
        scale = max(float(np.max(np.abs(gradients))), 1.0)
        assert np.allclose(actual, expected, atol=1e-6 * scale)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_krum_scores_match_brute_force(self, data):
        """Kernel scores equal the O(n^2 d) definition on any input —
        including near-duplicate rows, where the old Gram path lost
        precision (the hybrid kernel recomputes those exactly)."""
        n = data.draw(st.integers(5, 10))
        f = data.draw(st.integers(0, n - 4))
        d = data.draw(st.integers(1, 5))
        gradients = data.draw(_float_matrix(n, d))
        scores = krum_scores_from_sq_distances(pairwise_sq_distances(gradients), f)
        neighbours = n - f - 2
        for i in range(n):
            exact = sorted(
                float(np.sum((gradients[i] - gradients[j]) ** 2))
                for j in range(n)
                if j != i
            )
            assert scores[i] == pytest.approx(sum(exact[:neighbours]), rel=1e-9)


@pytest.mark.slow
class TestPermutationInvariance:
    @pytest.mark.parametrize("name,n,f", SETUPS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_shuffle_invariant(self, name, n, f, data):
        d = data.draw(st.integers(1, 4))
        gradients = data.draw(_integer_matrix(n, d))
        permutation = data.draw(st.permutations(list(range(n))))
        gar = get_gar(name, n, f)
        base = gar.aggregate(gradients)
        shuffled = gar.aggregate(gradients[np.asarray(permutation)])
        if name == "geometric-median":
            assert np.allclose(shuffled, base, atol=1e-7)
        else:
            assert np.array_equal(shuffled, base)


class TestTieBreakKernel:
    """Deterministic exact-tie cases for the NumPy-native tie-break."""

    def _assert_matches_reference(self, scores, gradients):
        actual = rank_by_score_then_value(np.asarray(scores, float), gradients)
        expected = rank_by_score_then_value_reference(
            np.asarray(scores, float), gradients
        )
        assert np.array_equal(actual, expected)

    def test_all_scores_tied_ranks_by_value(self):
        gradients = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, 2.0], [0.5, 9.0]])
        self._assert_matches_reference([1.0, 1.0, 1.0, 1.0], gradients)

    def test_duplicate_rows_keep_submission_order(self):
        row = np.array([1.0, 2.0, 3.0])
        gradients = np.stack([row, row, row + 1.0, row])
        self._assert_matches_reference([0.0, 0.0, 5.0, 0.0], gradients)

    def test_partial_tie_runs(self):
        gradients = np.array(
            [[3.0], [1.0], [2.0], [1.5], [0.0]]
        )
        self._assert_matches_reference([2.0, 1.0, 2.0, 1.0, 3.0], gradients)

    def test_signed_zeros_compare_equal(self):
        """-0.0 == 0.0 must tie (and fall through to the next column),
        exactly as Python tuple comparison treats it."""
        gradients = np.array([[0.0, 2.0], [-0.0, 1.0], [0.0, 3.0]])
        self._assert_matches_reference([1.0, 1.0, 1.0], gradients)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_on_random_ties(self, data):
        """Random low-entropy inputs (many exact ties) vs the reference."""
        n = data.draw(st.integers(2, 8))
        d = data.draw(st.integers(1, 3))
        scores = np.asarray(
            data.draw(
                st.lists(
                    st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n
                )
            )
        )
        gradients = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
                        min_size=d,
                        max_size=d,
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        self._assert_matches_reference(scores, gradients)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_permutation_covariant(self, data):
        """Ranking then permuting == permuting then ranking (as index
        sets), so selection GARs stay permutation-invariant even when
        everything ties."""
        n = data.draw(st.integers(2, 7))
        gradients = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=2),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        scores = np.asarray(
            data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        )
        permutation = np.asarray(data.draw(st.permutations(list(range(n)))))
        base = rank_by_score_then_value(scores, gradients)
        shuffled = rank_by_score_then_value(
            scores[permutation], gradients[permutation]
        )
        # The *rows* selected at every rank must match (indices differ
        # by the permutation, and equal rows may swap places).
        assert np.array_equal(
            gradients[base], gradients[permutation][shuffled]
        )
        assert np.array_equal(scores[base], scores[permutation][shuffled])
