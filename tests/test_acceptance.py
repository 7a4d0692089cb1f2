"""End-to-end acceptance battery.

Each test checks one headline guarantee at its stated tolerance and
prints a single [PASS]/[FAIL] line (visible under `pytest -s`).  Slow
artifacts (solver battery, full sweeps) are shared through
module-scoped fixtures so the battery stays fast enough to run often.
"""

import filecmp
import math
import re
import time

import numpy as np
import pytest

from oracles import (
    brute_count_cost,
    brute_fractional_linear_cost,
    brute_median_cost,
)
from pdq.baselines import (
    fip_answer,
    fip_epsilon_assignment,
    fip_select_from_arrays,
    fq_count_answer,
    fq_median_answer,
    fq_select_from_arrays,
    median_replacement_sensitivity,
)
from pdq.experiment import (
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    ExperimentConfig,
    run_experiment,
    write_outputs,
)
from pdq.private_query import (
    COUNT,
    LINEAR,
    MEDIAN,
    QuerySpec,
    SampledDataset,
    modification_scores,
)
from pdq.suites import icir_battery, lemma2_battery, pdp_battery, solver_battery
from pdq.thresholds import solve_threshold_system
from pdq.verification import check_interim_budget

ACCEPT_SEED = 20240801


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:02d}: {label}{suffix}")


# -- shared artifacts ---------------------------------------------------------


@pytest.fixture(scope="module")
def solver_results():
    start = time.perf_counter()
    checks = solver_battery()
    return checks, time.perf_counter() - start


@pytest.fixture(scope="module")
def count_sweep():
    fractions = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    start = time.perf_counter()
    by_rho = {}
    for rho in (0.0, -0.5, -1.0):
        config = ExperimentConfig(
            query="count",
            mechanisms=("smq", "fq"),
            rho=rho,
            trials=500,
            budget_fractions=fractions,
            seed=ACCEPT_SEED,
            n=1000,
        )
        summaries, _ = run_experiment(config)
        by_rho[rho] = summaries
    return by_rho, fractions, time.perf_counter() - start


@pytest.fixture(scope="module")
def median_sweep():
    config = ExperimentConfig(
        query="median",
        mechanisms=("smq",),
        rho=-0.5,
        trials=500,
        budget_fractions=(0.3, 0.6, 0.9),
        seed=ACCEPT_SEED,
        n=1000,
        median_value_max=10_000,
    )
    summaries, _ = run_experiment(config)
    return summaries


# -- the criteria -------------------------------------------------------------


def test_criterion_01_solver_matches_grid_oracle(solver_results):
    checks, elapsed = solver_results
    oracle_ok = checks[0][1]
    binding_ok = checks[1][1]
    ok = oracle_ok and binding_ok and elapsed < 60.0
    report(
        1,
        "threshold solver within 1e-2 of the grid oracle, budget binding 1e-9",
        ok,
        f"{checks[0][2]}; {checks[1][2]}; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_stationarity_residual(solver_results):
    checks, _ = solver_results
    ok = checks[2][1]
    report(2, "interior first-order residual at most 1e-6", ok, checks[2][2])
    assert ok


def test_criterion_03_truthfulness_grid():
    checks = icir_battery(seed=ACCEPT_SEED + 3)
    ok = checks[0][1]
    report(
        3,
        "truthful and voluntary on 0.01 misreport grids over 50 markets",
        ok,
        checks[0][2],
    )
    assert ok


def test_criterion_04_interim_budget():
    rng = np.random.default_rng(ACCEPT_SEED + 4)
    worst_sigma = 0.0
    failures = 0
    for _ in range(10):
        n = int(rng.integers(2, 21))
        eps = np.maximum(rng.random(n), 1e-3)
        budget = float(rng.uniform(0.05, 0.95) * n)
        tv = solve_threshold_system(eps, budget)
        result = check_interim_budget(tv, draws=100_000, rng=rng)
        failures += 0 if result.passed else 1
        if result.stderr > 0.0:
            worst_sigma = max(
                worst_sigma, abs(result.mc_mean - result.expected) / result.stderr
            )
    ok = failures == 0
    report(
        4,
        "mean realized spend within 3 standard errors over 1e5 draws",
        ok,
        f"10 markets, worst deviation {worst_sigma:.2f} sigma",
    )
    assert ok


def test_criterion_05_exact_privacy_ratios():
    start = time.perf_counter()
    checks = pdp_battery()
    elapsed = time.perf_counter() - start
    ok = checks[0][1] and elapsed < 300.0
    report(
        5,
        "exact neighbour ratios within each owner's level (slack 1e-9)",
        ok,
        f"{checks[0][2]}; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_06_scores_match_brute_force():
    rng = np.random.default_rng(ACCEPT_SEED + 6)
    mismatches = 0
    checked = 0

    def compare(got, want):
        nonlocal mismatches, checked
        checked += 1
        if math.isinf(want):
            mismatches += 0 if np.isneginf(got) else 1
        elif not np.isclose(got, -want, rtol=0.0, atol=1e-9):
            mismatches += 1

    count_q = QuerySpec(COUNT, (0.0, 1.0))
    for _ in range(200):
        k = int(rng.integers(1, 9))
        values = rng.integers(0, 2, size=k).astype(float)
        eps = 0.05 + 0.95 * rng.random(k)
        s = SampledDataset(count_q, values, eps, k)
        targets = np.arange(-1, k + 2, dtype=float)
        scores = modification_scores(s, targets)
        for t, got in zip(targets, scores):
            compare(got, brute_count_cost(values, eps, t))

    median_q = QuerySpec(MEDIAN, (1, 15))
    for _ in range(200):
        k = int(rng.integers(1, 9))
        values = np.sort(rng.choice(15, size=k, replace=False) + 1).astype(float)
        eps = 0.05 + 0.95 * rng.random(k)
        s = SampledDataset(median_q, values, eps, k)
        targets = np.arange(0, 17, dtype=float)
        scores = modification_scores(s, targets)
        for t, got in zip(targets, scores):
            compare(got, brute_median_cost(values, eps, (1, 15), t))

    lo, hi = 0.0, 4.0
    grid = np.linspace(lo, hi, 5)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        values = grid[rng.integers(0, 5, size=k)]
        weights = (0.2 + 1.8 * rng.random(k)) * rng.choice((-1.0, 1.0), size=k)
        eps = 0.05 + 0.95 * rng.random(k)
        linear_q = QuerySpec(LINEAR, (lo, hi))
        s = SampledDataset(linear_q, values, eps, k, weights=weights,
                           full_weight_sum=float(weights.sum()))
        raw = float(weights @ values)
        up_sum = float(
            sum(w * (hi - v) if w > 0 else -w * (v - lo)
                for w, v in zip(weights, values))
        )
        down_sum = float(
            sum(w * (v - lo) if w > 0 else -w * (hi - v)
                for w, v in zip(weights, values))
        )
        fracs = (0.1, 0.35, 0.5, 0.8, 0.95, 1.2)
        offsets = [0.0]
        offsets += [f * up_sum for f in fracs if up_sum > 0.0]
        offsets += [-f * down_sum for f in fracs if down_sum > 0.0]
        targets = raw + np.array(offsets)
        scores = modification_scores(s, targets)
        for t, got in zip(targets, scores):
            compare(
                got, brute_fractional_linear_cost(values, weights, eps, (lo, hi), t)
            )

    ok = mismatches == 0
    report(
        6,
        "modification scores equal subset enumeration, 200 datasets per query",
        ok,
        f"{checked} targets compared, {mismatches} mismatches",
    )
    assert ok


def test_criterion_07_accuracy_privacy_tradeoff():
    checks = lemma2_battery()
    ok = checks[0][1]
    detail = checks[0][2]
    match = re.search(r"\((\d+) in the non-vacuous regime\)", detail)
    nonvacuous = int(match.group(1)) if match else 0
    ok = ok and nonvacuous > 0
    report(
        7,
        "no mechanism is accurate without buying enough privacy",
        ok,
        detail,
    )
    assert ok


def test_criterion_08_beats_fixed_quota_everywhere(count_sweep):
    by_rho, fractions, elapsed = count_sweep
    worst_ratio = 0.0
    ok = elapsed < 600.0
    for rho, summaries in by_rho.items():
        rmse = {
            (row.mechanism, row.budget_fraction): row.rmse for row in summaries
        }
        for frac in fractions:
            smq = rmse[("smq", frac)]
            fq = rmse[("fq", frac)]
            ok = ok and smq < fq
            worst_ratio = max(worst_ratio, smq / fq)
    report(
        8,
        "lower RMSE than the fixed quota at every budget and correlation",
        ok,
        f"27 cells, worst smq/fq RMSE ratio {worst_ratio:.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_09_correlation_trends(count_sweep):
    by_rho, fractions, _ = count_sweep

    def avg_rmse(rho, mech):
        return float(
            np.mean(
                [row.rmse for row in by_rho[rho] if row.mechanism == mech]
            )
        )

    rhos = (0.0, -0.5, -1.0)
    fq = [avg_rmse(r, "fq") for r in rhos]
    smq = [avg_rmse(r, "smq") for r in rhos]
    fq_ok = all(fq[i + 1] >= fq[i] * 0.95 for i in range(2))
    smq_ok = all(smq[i + 1] <= smq[i] * 1.05 for i in range(2))
    ok = fq_ok and smq_ok
    report(
        9,
        "average RMSE trends with correlation (5% slack)",
        ok,
        "fq " + "->".join(f"{x:.1f}" for x in fq)
        + ", smq " + "->".join(f"{x:.1f}" for x in smq),
    )
    assert ok


def test_criterion_10_median_accuracy(median_sweep):
    value_range = 10_000 - 1
    limit = 0.01 * value_range
    worst = max(row.rmse for row in median_sweep)
    ok = all(row.rmse <= limit for row in median_sweep)
    report(
        10,
        "median RMSE at most 1% of the data range at budgets >= 0.3",
        ok,
        f"worst RMSE {worst:.1f} vs limit {limit:.2f}",
    )
    assert ok


def test_criterion_11_baseline_hand_traces(zero_noise_rng):
    checks = []

    # uniform-payment selection: v = (0.05, 0.1, 0.15, 0.2), the largest
    # k with k * v_k <= 0.5 is 3, and the budget rate undercuts the
    # threshold rate: min(0.5/3, 0.2) owed to each selected owner
    sel = fq_select_from_arrays([0.1, 0.2, 0.3, 0.4], [2.0] * 4, 0.5)
    checks.append(sel.selected_indices.size == 3)
    checks.append(sorted(sel.selected_indices) == [0, 1, 2])
    checks.append(all(abs(p - 0.5 / 3) <= 1e-12 for p in sel.payments[:3]))
    checks.append(bool(np.all(np.abs(sel.levels - 1.0) <= 1e-12)))

    tiny = fq_select_from_arrays([0.1, 0.2, 0.3, 0.4], [2.0] * 4, 0.04)
    checks.append(tiny.selected_indices.size == 0)
    huge = fq_select_from_arrays([0.1, 0.2, 0.3], [2.0] * 3, 100.0)
    checks.append(huge.selected_indices.size == 2)

    # requirement filter active: the cheapest owner only tolerates 0.1
    # but the first pass would grant level 1, so it is struck
    filt = fq_select_from_arrays([0.001, 0.2, 0.3], [0.1, 2.0, 2.0], 0.25)
    checks.append(filt.selected_indices.size == 1)
    checks.append(list(filt.selected_indices) == [1])
    checks.append(abs(filt.payments[1] - 0.075) <= 1e-12)
    checks.append(bool(np.all(np.abs(filt.levels - 0.5) <= 1e-12)))

    # weight-proportional selection: no dominant weight (0.5 = rest),
    # k = 2 fails (0.25 < 1.0), so k = 1 paid 0.5 * min(0.4, 0.4)
    fip = fip_select_from_arrays(
        [0.1, 0.2, 0.3], [1.0] * 3, [0.5, 0.3, 0.2], 0.2
    )
    checks.append(fip.selected_indices.size == 1)
    checks.append(list(fip.selected_indices) == [0])
    checks.append(abs(fip.payments[0] - 0.2) <= 1e-12)

    dom = fip_select_from_arrays(
        [0.1, 0.2, 0.3], [1.0] * 3, [0.9, 0.05, 0.05], 0.2
    )
    checks.append(
        dom.selected_indices.size == 1 and list(dom.selected_indices) == [0]
    )
    checks.append(abs(dom.payments[0] - 0.2) <= 1e-12)
    empty = fip_select_from_arrays(
        [0.1, 0.2, 0.3], [1.0] * 3, [0.5, 0.3, 0.2], 0.0
    )
    checks.append(empty.selected_indices.size == 0)

    count = fq_count_answer([1.0, 1.0, 0.0], 5, 3, zero_noise_rng)
    checks.append(abs(count - 3.0) <= 1e-12)

    med = fq_median_answer([1.0, 5.0, 9.0], 5, 3, (1, 100), zero_noise_rng)
    checks.append(abs(med - 5.0) <= 1e-12)
    checks.append(median_replacement_sensitivity([1.0, 5.0, 9.0], (1, 100)) == 4.0)
    checks.append(median_replacement_sensitivity([5.0], (1, 100)) == 95.0)

    lin = fip_answer([1.0, 2.0], [0.5, -1.0], [2.0], (0.0, 4.0), zero_noise_rng)
    checks.append(abs(lin - 2.5) <= 1e-12)
    assigned = fip_epsilon_assignment([0.5, 0.3, 0.2], [0])
    checks.append(np.allclose(assigned, [1.0, 0.6, 0.4], rtol=0.0, atol=1e-12))

    ok = all(checks)
    report(
        11,
        "baseline hand traces reproduce exactly (tolerance 1e-12)",
        ok,
        f"{sum(checks)}/{len(checks)} checks",
    )
    assert ok


def test_criterion_12_reproducible_outputs(tmp_path):
    config = ExperimentConfig(
        query="count",
        mechanisms=("smq", "fq"),
        rho=-0.5,
        trials=20,
        budget_fractions=(0.3, 0.7),
        seed=ACCEPT_SEED,
        n=50,
    )
    paths = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            **{
                **{
                    f: getattr(config, f)
                    for f in (
                        "query", "mechanisms", "rho", "trials",
                        "budget_fractions", "seed", "n",
                    )
                },
                "output_dir": str(tmp_path / sub),
            }
        )
        summaries, records = run_experiment(cfg)
        paths.append(write_outputs(cfg, summaries, records))
    same_summary = filecmp.cmp(paths[0][0], paths[1][0], shallow=False)
    same_trials = filecmp.cmp(paths[0][1], paths[1][1], shallow=False)
    with open(paths[0][0]) as fh:
        header_ok = fh.readline().rstrip("\n") == ",".join(SUMMARY_COLUMNS)
    with open(paths[0][1]) as fh:
        header_ok = header_ok and fh.readline().rstrip("\n") == ",".join(
            TRIAL_COLUMNS
        )
    ok = same_summary and same_trials and header_ok
    report(
        12,
        "summary.csv and trials.csv are byte-identical per master seed",
        ok,
        f"summary identical: {same_summary}, trials identical: {same_trials}",
    )
    assert ok
