import math
from collections import Counter

import numpy as np
import pytest

from distclust import evaluation
from distclust.errors import DimensionMismatch, InvalidConfig
from distclust.evaluation import _contingency, _entropy, _mutual_information, nmi


def brute_force_nmi(a, b) -> float:
    """Slow dictionary-based reference implementation."""
    n = len(a)
    joint = Counter(zip(a, b))
    ca, cb = Counter(a), Counter(b)
    info = math.fsum(
        (c / n) * math.log(n * c / (ca[x] * cb[y])) for (x, y), c in joint.items()
    )
    ha = -math.fsum((c / n) * math.log(c / n) for c in ca.values())
    hb = -math.fsum((c / n) * math.log(c / n) for c in cb.values())
    if ha + hb == 0.0:
        return 1.0
    return 2.0 * info / (ha + hb)


def test_nmi_is_the_only_public_name():
    defined = [
        name
        for name, value in vars(evaluation).items()
        if getattr(value, "__module__", None) == evaluation.__name__
    ]
    assert [name for name in defined if not name.startswith("_")] == ["nmi"]


class TestContingency:
    def test_counts(self):
        counts = _contingency([0, 0, 1, 1], [0, 1, 1, 1])
        assert counts.sum() == 4
        np.testing.assert_array_equal(counts, [[1, 1], [0, 2]])

    def test_labels_need_not_be_contiguous(self):
        counts = _contingency([10, 10, -3], ["x", "y", "y"])
        np.testing.assert_array_equal(counts, [[0, 1], [1, 1]])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _contingency([0, 1], [0, 1, 2])


class TestEntropy:
    def test_hand_value(self):
        # sizes {1, 3} of 4: -(1/4 ln 1/4 + 3/4 ln 3/4)
        assert _entropy(np.array([1, 3])) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )

    def test_uniform_is_log_k(self):
        assert _entropy(np.array([5, 5, 5])) == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_constant_is_zero(self):
        assert _entropy(np.array([7])) == 0.0


class TestMutualInformation:
    def test_independent_labelings(self):
        assert _mutual_information(_contingency([0, 1, 0, 1], [0, 0, 1, 1])) == 0.0

    def test_identical_labelings_give_entropy(self):
        labels = [0, 0, 1, 2, 2, 2]
        expected = _entropy(np.array([2, 1, 3]))
        assert _mutual_information(_contingency(labels, labels)) == pytest.approx(
            expected, abs=1e-12
        )


class TestNmi:
    @pytest.mark.parametrize("a, b, name", [
        ([], [0, 1], "a"), ([[0, 1], [1, 0]], [0, 1], "a"), ([0, 1], [], "b"),
        ([0, 1], [[0], [1]], "b"),
    ], ids=["empty a", "2-d a", "empty b", "2-d b"])
    def test_rejects_empty_or_2d_labels(self, a, b, name):
        with pytest.raises(InvalidConfig, match=f"^{name} must be a non-empty 1-d label array$"):
            nmi(a, b)

    def test_perfect_match(self):
        assert nmi([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_invariant_to_label_permutation(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [2, 2, 0, 0, 1, 1]
        assert nmi(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_independent_is_zero(self):
        assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0

    def test_both_constant(self):
        assert nmi([3, 3, 3], [9, 9, 9]) == 1.0

    def test_one_constant(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    def test_exactly_symmetric(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 4, size=n)
            assert nmi(a, b) == nmi(b, a)

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 25))
            a = rng.integers(0, 3, size=n).tolist()
            b = rng.integers(0, 3, size=n).tolist()
            assert nmi(a, b) == pytest.approx(brute_force_nmi(a, b), abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 5, size=n)
            assert 0.0 <= nmi(a, b) <= 1.0 + 1e-12

    def test_information_bounded_by_entropies(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 4, size=n)
            counts = _contingency(a, b)
            h_a, h_b = _entropy(counts.sum(axis=1)), _entropy(counts.sum(axis=0))
            assert _mutual_information(counts) <= min(h_a, h_b) + 1e-12
