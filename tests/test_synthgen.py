import numpy as np
import pytest

from distclust.errors import InvalidConfig
from distclust.matrixcore import psd_root
from distclust.synthgen import (
    derive_trial_seed,
    generate_benchmark,
    make_generator,
    random_orthogonal,
    random_simplex_point,
)


def reference_groups(d, k, n, q, seed, spectrum=None, simplex_boundary=False):
    """The groups as drawn one object at a time, each with its generator's
    own root: the reference for the stacked draw."""
    rng = np.random.default_rng(seed)
    spec = np.arange(1.0, d + 1.0) if spectrum is None else np.asarray(spectrum, float)
    gens = [make_generator(d, rng, spec, simplex_boundary, f"gen_{g}") for g in range(k)]
    width = len(str(n - 1))
    groups = []
    for t in range(n):
        gen = gens[t % k]
        root = psd_root(gen.covariance.values[None], lambda i: "covariance")[0]
        groups.append((f"obj_{t:0{width}d}", gen.mean + rng.standard_normal((q, d)) @ root))
    return groups


class TestRandomOrthogonal:
    def test_orthonormal(self, rng):
        for d in (2, 3, 7, 12):
            u = random_orthogonal(d, rng)
            np.testing.assert_allclose(u @ u.T, np.eye(d), atol=1e-10)

    def test_deterministic(self):
        a = random_orthogonal(5, np.random.default_rng(3))
        b = random_orthogonal(5, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_not_sign_biased(self, rng):
        # with the R-sign correction the first row should change sign
        # across draws rather than being pinned positive
        signs = [np.sign(random_orthogonal(3, rng)[0, 0]) for _ in range(40)]
        assert len(set(signs)) == 2


class TestRandomSimplexPoint:
    def test_on_simplex(self, rng):
        for d in (2, 3, 8):
            p = random_simplex_point(d, rng)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0.0)

    def test_boundary_pins_one_coordinate(self, rng):
        for _ in range(20):
            p = random_simplex_point(4, rng, boundary=True)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.sum(p == 0.0) == 1

    def test_boundary_needs_two_dims(self, rng):
        with pytest.raises(InvalidConfig):
            random_simplex_point(1, rng, boundary=True)


class TestDeriveTrialSeed:
    def test_trial_zero_is_base(self):
        assert derive_trial_seed(42, 0) == 42

    def test_in_64_bit_range_and_distinct(self):
        seeds = [derive_trial_seed(7, t) for t in range(200)]
        assert all(0 <= s < 2**64 for s in seeds)
        assert len(set(seeds)) == 200

    def test_deterministic(self):
        assert derive_trial_seed(123, 9) == derive_trial_seed(123, 9)

    def test_negative_rejected(self):
        with pytest.raises(InvalidConfig):
            derive_trial_seed(-1, 0)
        with pytest.raises(InvalidConfig):
            derive_trial_seed(0, -1)


class TestGenerateBenchmark:
    def test_shapes_and_balance(self):
        bench = generate_benchmark(d=3, k=4, n_objects=22, samples_per_object=5, seed=0)
        assert len(bench.groups) == 22
        assert all(g.samples.shape == (5, 3) for g in bench.groups)
        counts = np.bincount(bench.truth, minlength=4)
        # objects cycle through generators, so sizes differ by at most one
        assert counts.max() - counts.min() <= 1

    def test_exact_balance_when_divisible(self):
        bench = generate_benchmark(d=2, k=5, n_objects=200, samples_per_object=2, seed=1)
        assert np.all(np.bincount(bench.truth) == 40)

    def test_generator_spectrum(self):
        d = 6
        bench = generate_benchmark(d=d, k=2, n_objects=4, samples_per_object=3, seed=5)
        for gen in bench.generators:
            eigs = np.linalg.eigvalsh(gen.covariance.values)
            np.testing.assert_allclose(eigs, np.arange(1.0, d + 1.0), atol=1e-8)

    def test_generator_means_on_simplex(self):
        bench = generate_benchmark(d=5, k=3, n_objects=6, samples_per_object=2, seed=2)
        for gen in bench.generators:
            assert gen.mean.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(gen.mean >= 0.0)

    def test_custom_spectrum(self):
        bench = generate_benchmark(
            d=3, k=2, n_objects=4, samples_per_object=2, seed=0,
            spectrum=(2.0, 2.0, 2.0),
        )
        for gen in bench.generators:
            np.testing.assert_allclose(
                gen.covariance.values, 2.0 * np.eye(3), atol=1e-10
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidConfig, match="^seed must be non-negative, got -1$"):
            generate_benchmark(d=3, k=2, n_objects=4, samples_per_object=2, seed=-1)

    def test_reproducible(self):
        a = generate_benchmark(d=4, k=3, n_objects=9, samples_per_object=4, seed=11)
        b = generate_benchmark(d=4, k=3, n_objects=9, samples_per_object=4, seed=11)
        for ga, gb in zip(a.groups, b.groups):
            assert ga.group_id == gb.group_id
            assert np.array_equal(ga.samples, gb.samples)
        c = generate_benchmark(d=4, k=3, n_objects=9, samples_per_object=4, seed=12)
        assert not np.array_equal(a.groups[0].samples, c.groups[0].samples)

    @pytest.mark.parametrize("d, k, n, q, spectrum, boundary", [
        (2, 2, 7, 2, None, False),
        (3, 5, 13, 30, None, True),
        (7, 5, 23, 30, None, False),
        (7, 3, 10, 2, None, True),
        (3, 2, 9, 4, (0.25, 3.0, 40.0), False),
        (7, 5, 12, 3, (1e-3, 0.5, 1.0, 2.0, 8.0, 9.0, 1e3), True),
        (7, 5, 97, 30, None, False),  # several draw blocks, the last one short
        (12, 2, 3, 700, None, False),  # one group per draw block
    ])
    def test_stacked_draw_matches_one_object_at_a_time(self, d, k, n, q, spectrum, boundary):
        bench = generate_benchmark(d, k, n, q, seed=d + n, spectrum=spectrum,
                                   simplex_boundary=boundary)
        expected = reference_groups(d, k, n, q, d + n, spectrum, boundary)
        assert [g.group_id for g in bench.groups] == [name for name, _ in expected]
        for g, (_, samples) in zip(bench.groups, expected):
            assert g.samples.shape == (q, d)
            assert g.samples.tobytes() == samples.tobytes()

    def test_groups_are_read_only(self):
        bench = generate_benchmark(d=3, k=2, n_objects=4, samples_per_object=3, seed=0)
        for g in bench.groups:
            with pytest.raises(ValueError):
                g.samples[0, 0] = 1.0

    def test_group_ids_zero_padded(self):
        bench = generate_benchmark(d=2, k=2, n_objects=12, samples_per_object=2, seed=0)
        assert bench.groups[0].group_id == "obj_00"
        assert bench.groups[11].group_id == "obj_11"

    def test_boundary_means(self):
        bench = generate_benchmark(
            d=4, k=3, n_objects=6, samples_per_object=2, seed=3, simplex_boundary=True
        )
        for gen in bench.generators:
            assert np.sum(gen.mean == 0.0) == 1

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            generate_benchmark(d=1, k=2, n_objects=4, samples_per_object=2)
        with pytest.raises(InvalidConfig):
            generate_benchmark(d=2, k=1, n_objects=4, samples_per_object=2)
        with pytest.raises(InvalidConfig):
            generate_benchmark(d=2, k=5, n_objects=4, samples_per_object=2)
        with pytest.raises(InvalidConfig):
            generate_benchmark(d=2, k=2, n_objects=4, samples_per_object=1)
        with pytest.raises(InvalidConfig):
            generate_benchmark(d=2, k=2, n_objects=4, samples_per_object=2,
                               spectrum=(1.0,))
