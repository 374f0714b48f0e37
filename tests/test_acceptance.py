"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and then asserts, so the suite both documents and enforces
the bar. Tolerances are fixed here and should not be loosened to make a
failing build green.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from conftest import log_density, random_model
from distclust.evaluation import _contingency, _entropy, _mutual_information, nmi
from distclust.gaussian import GaussianModel, _draw_groups
from distclust.ingest import read_stock_csv
from distclust.metrics import kl_divergence, wasserstein_sq
from distclust.pipeline import (
    ALGO_BHATTACHARYYA,
    ALGO_KLPP,
    ALGO_WASSERSTEIN,
    ALGORITHMS,
    FAMILY_DISTRIBUTION,
    FAMILY_MEAN_ONLY,
    benchmark_stock,
    benchmark_synthetic,
)
from distclust.spectral import AdjacencyMatrix, normalized_laplacian, spectral_cluster
from distclust.storage import canonical_json_bytes

from pathlib import Path

STOCK_FIXTURE = Path(__file__).parent / "data" / "stocks_ohlc.csv"

DISTRIBUTION_MIN_MEAN = 0.85
MEAN_ONLY_MAX_MEAN = 0.40
MAIN_RUN_BUDGET_S = 600.0
TWO_CLUSTER_MIN_MEAN = 0.98
VARIANCE_CEILING = 0.02
KL_MC_RELATIVE_TOL = 0.02
KL_MC_BUDGET_S = 30.0
STOCK_BUDGET_S = 300.0
STOCK_MONOTONE_SLACK = 0.05


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def main_synth_run():
    """The flagship synthetic benchmark: d=7, k=5, 50 trials, all algorithms."""
    started = time.perf_counter()
    report = benchmark_synthetic(
        d_list=[7], k_list=[5], trials=50, base_seed=0, threads=1
    )
    elapsed = time.perf_counter() - started
    return report, elapsed


@pytest.fixture(scope="module")
def stock_run():
    groups = read_stock_csv(STOCK_FIXTURE).groups
    started = time.perf_counter()
    report = benchmark_stock(
        groups,
        k_list=[4],
        noise_sigmas=[1.0, 2.0, 3.0],
        trials=10,
        base_seed=0,
        threads=1,
    )
    elapsed = time.perf_counter() - started
    return report, elapsed


def test_criterion_1_synthetic_benchmark_separates_families(main_synth_run):
    report, elapsed = main_synth_run
    lines = []
    ok = elapsed < MAIN_RUN_BUDGET_S
    for cell in report["cells"]:
        mean = cell["mean_nmi"]
        if cell["family"] == FAMILY_DISTRIBUTION:
            ok = ok and mean >= DISTRIBUTION_MIN_MEAN
        else:
            ok = ok and mean <= MEAN_ONLY_MAX_MEAN
        lines.append(f"{cell['algorithm']}={mean:.4f}")
    _report(
        1,
        ok,
        f"d=7 k=5 50 trials: {', '.join(lines)}; "
        f"distribution >= {DISTRIBUTION_MIN_MEAN}, mean-only <= {MEAN_ONLY_MAX_MEAN}, "
        f"{elapsed:.0f}s < {MAIN_RUN_BUDGET_S:.0f}s",
    )


def test_criterion_2_two_cluster_near_perfect():
    report = benchmark_synthetic(
        d_list=[7],
        k_list=[2],
        trials=20,
        base_seed=0,
        algorithms=(ALGO_KLPP, ALGO_BHATTACHARYYA, ALGO_WASSERSTEIN),
        threads=1,
    )
    means = {c["algorithm"]: c["mean_nmi"] for c in report["cells"]}
    ok = all(m >= TWO_CLUSTER_MIN_MEAN for m in means.values())
    detail = ", ".join(f"{a}={m:.4f}" for a, m in means.items())
    _report(2, ok, f"d=7 k=2 20 trials: {detail}; all >= {TWO_CLUSTER_MIN_MEAN}")


def test_criterion_3_trial_variance_bounded(main_synth_run):
    report, _ = main_synth_run
    cells = [c for c in report["cells"] if c["family"] == FAMILY_DISTRIBUTION]
    ok = all(c["var_nmi"] <= VARIANCE_CEILING for c in cells)
    detail = ", ".join(f"{c['algorithm']}={c['var_nmi']:.5f}" for c in cells)
    _report(3, ok, f"across-trial variances: {detail}; all <= {VARIANCE_CEILING}")


def test_criterion_4_kl_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(41)
    draws = 100_000
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        a = random_model(d, rng, ridge=1.0)
        # push the second mean away so the divergence is well off zero and
        # the 2% relative band is meaningful
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        b = GaussianModel(
            a.mean + 2.0 * direction,
            random_model(d, rng, ridge=1.0).covariance,
        )
        closed = kl_divergence(a, b)
        assert closed > 0.3
        points = _draw_groups([a], np.zeros(1, dtype=np.intp), draws, rng, ["mc"])[0].samples
        mc = float(np.mean(log_density(a, points) - log_density(b, points)))
        worst = max(worst, abs(mc - closed) / closed)
    elapsed = time.perf_counter() - started
    ok = worst <= KL_MC_RELATIVE_TOL and elapsed < KL_MC_BUDGET_S
    _report(
        4,
        ok,
        f"20 pairs x {draws} draws: worst relative gap {worst:.4f} <= "
        f"{KL_MC_RELATIVE_TOL}, {elapsed:.1f}s < {KL_MC_BUDGET_S:.0f}s",
    )


def test_criterion_5_wasserstein_metric_axioms():
    rng = np.random.default_rng(52)
    identity_worst = 0.0
    symmetry_worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 5))
        a = random_model(d, rng)
        b = random_model(d, rng)
        identity_worst = max(identity_worst, wasserstein_sq(a, a))
        gap = abs(wasserstein_sq(a, b) - wasserstein_sq(b, a))
        symmetry_worst = max(
            symmetry_worst, gap / max(1.0, wasserstein_sq(a, b))
        )
    triangle_worst = -np.inf
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a, b, c = (random_model(d, rng) for _ in range(3))
        w_ac = math.sqrt(wasserstein_sq(a, c))
        w_ab = math.sqrt(wasserstein_sq(a, b))
        w_bc = math.sqrt(wasserstein_sq(b, c))
        triangle_worst = max(triangle_worst, w_ac - (w_ab + w_bc))
    ok = identity_worst < 1e-9 and symmetry_worst <= 1e-9 and triangle_worst <= 1e-7
    _report(
        5,
        ok,
        f"identity worst {identity_worst:.2e} < 1e-9, symmetry worst "
        f"{symmetry_worst:.2e} <= 1e-9, triangle slack worst "
        f"{triangle_worst:.2e} <= 1e-7",
    )


def test_criterion_6_nmi_matches_independent_reference():
    rng = np.random.default_rng(63)
    worst = 0.0
    bound_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        a = rng.integers(0, 3, size=n).tolist()
        b = rng.integers(0, 3, size=n).tolist()
        joint = Counter(zip(a, b))
        ca, cb = Counter(a), Counter(b)
        info = math.fsum(
            (c / n) * math.log(n * c / (ca[x] * cb[y]))
            for (x, y), c in joint.items()
        )
        ha = -math.fsum((c / n) * math.log(c / n) for c in ca.values())
        hb = -math.fsum((c / n) * math.log(c / n) for c in cb.values())
        reference = 1.0 if ha + hb == 0.0 else max(2.0 * info / (ha + hb), 0.0)
        worst = max(worst, abs(nmi(a, b) - reference))
        counts = _contingency(a, b)
        h_a, h_b = _entropy(counts.sum(axis=1)), _entropy(counts.sum(axis=0))
        if _mutual_information(counts) > min(h_a, h_b) + 1e-12:
            bound_ok = False
    ok = worst <= 1e-12 and bound_ok
    _report(
        6,
        ok,
        f"1000 label pairs: worst |nmi - reference| {worst:.2e} <= 1e-12, "
        f"information bounded by entropies: {bound_ok}",
    )


def test_criterion_7_spectral_recovers_planted_blocks():
    truth = np.array([0] * 5 + [1] * 5)
    w = np.full((10, 10), 1e-12)
    w[:5, :5] = 1.0
    w[5:, 5:] = 1.0
    adjacency = AdjacencyMatrix(w, 1.0)
    block_ok = True
    for seed in range(20):
        assignment, _ = spectral_cluster(adjacency, 2, np.random.default_rng(seed))
        if nmi(truth, assignment.labels) != 1.0:
            block_ok = False

    rng = np.random.default_rng(71)
    align_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 16))
        x = rng.uniform(0.05, 1.0, size=(n, n))
        values = np.clip((x + x.T) / 2.0, 0.0, 1.0)
        np.fill_diagonal(values, 1.0)
        kernel = AdjacencyMatrix(values, 1.0)
        eigenvalues, eigenvectors = np.linalg.eigh(normalized_laplacian(kernel))
        null = np.sqrt(kernel.values.sum(axis=1))
        null /= np.linalg.norm(null)
        alignment = abs(float(eigenvectors[:, 0] @ null))
        align_worst = max(align_worst, abs(1.0 - alignment))
        align_worst = max(align_worst, abs(eigenvalues[0]))
    ok = block_ok and align_worst <= 1e-8
    _report(
        7,
        ok,
        f"two-block recovery exact on 20 seeds: {block_ok}; Laplacian null "
        f"vector alignment worst gap {align_worst:.2e} <= 1e-8",
    )


def test_criterion_8_stock_stability_degrades_monotonically(stock_run):
    report, elapsed = stock_run
    ok = elapsed < STOCK_BUDGET_S
    lines = []
    for algorithm in ALGORITHMS:
        curve = [
            c["mean_nmi"]
            for c in sorted(
                (c for c in report["cells"] if c["algorithm"] == algorithm),
                key=lambda c: c["noise_sigma"],
            )
        ]
        monotone = all(
            curve[i + 1] <= curve[i] + STOCK_MONOTONE_SLACK
            for i in range(len(curve) - 1)
        )
        ok = ok and monotone
        lines.append(f"{algorithm}=[{', '.join(f'{v:.3f}' for v in curve)}]")
    _report(
        8,
        ok,
        f"sigma 1..3 mean agreement {'; '.join(lines)}; non-increasing within "
        f"{STOCK_MONOTONE_SLACK}, {elapsed:.0f}s < {STOCK_BUDGET_S:.0f}s",
    )


def test_criterion_9_reports_are_reproducible():
    synth_kwargs = dict(d_list=[7], k_list=[5], trials=5, base_seed=0, threads=1)
    synth_a = canonical_json_bytes(benchmark_synthetic(**synth_kwargs))
    synth_b = canonical_json_bytes(benchmark_synthetic(**synth_kwargs))
    groups = read_stock_csv(STOCK_FIXTURE).groups
    stock_kwargs = dict(
        k_list=[4], noise_sigmas=[1.0], trials=5, base_seed=0, threads=1
    )
    stock_a = canonical_json_bytes(benchmark_stock(groups, **stock_kwargs))
    stock_b = canonical_json_bytes(benchmark_stock(groups, **stock_kwargs))
    ok = synth_a == synth_b and stock_a == stock_b
    _report(
        9,
        ok,
        f"synthetic report bytes equal: {synth_a == synth_b}; stock report "
        f"bytes equal: {stock_a == stock_b}",
    )
