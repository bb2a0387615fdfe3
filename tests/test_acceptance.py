"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Every tolerance is pinned here; nothing is deferred to later calibration.
Monte Carlo checks use fixed seeds, so each criterion is a deterministic
verdict about a draw whose population value satisfies the stated bound.
"""

import hashlib
import time

import numpy as np
import pytest

from crosslist.cli import main
from crosslist.event_study import EventWindows, aggregate, cap_weights
from crosslist.garch import GarchSimConfig, GarchSpec, fit_garch_market_model, simulate_garch
from crosslist.linear_models import durbin_watson, ols_fit
from crosslist.stats_core import variance_f_test

from .support import ols_oracle, simulate_panel
from .test_event_study import REFERENCE_CAPS, record


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


class TestAcceptance:
    def test_ols_oracle_equivalence(self):
        rng = np.random.default_rng(20240101)
        instances = []
        for _ in range(100):
            x1 = rng.normal(0.0, 1.0, 50)
            x2 = rng.normal(0.0, 1.0, 50)
            y = rng.normal(0.0, 1.0) + rng.normal(0.0, 2.0) * x1 + rng.normal(
                0.0, 2.0
            ) * x2 + rng.normal(0.0, 0.8, 50)
            instances.append((y, x1, x2))
        expected = [ols_oracle(y, [x1, x2]) for y, x1, x2 in instances]

        start = time.perf_counter()
        fitted = [ols_fit(y, [x1, x2]).coefficients for y, x1, x2 in instances]
        elapsed = time.perf_counter() - start

        worst = max(
            float(np.max(np.abs(f - e) / np.maximum(np.abs(e), 1e-300)))
            for f, e in zip(fitted, expected)
        )
        report(
            "OLS oracle equivalence (100 x n=50, rel 1e-10, < 1 s)",
            worst <= 1e-10 and elapsed < 1.0,
            f"worst rel err {worst:.2e}, {elapsed:.3f} s",
        )

    def test_durbin_watson_closed_form_and_null_range(self):
        closed_form_ok = True
        for n in (10, 100, 1000):
            e = np.tile([1.0, -1.0], n // 2)
            if durbin_watson(e) != pytest.approx(4.0 * (n - 1) / n, rel=1e-14):
                closed_form_ok = False
        rng = np.random.default_rng(20240102)
        inside = sum(
            1.8 <= durbin_watson(rng.standard_normal(1000)) <= 2.2 for _ in range(200)
        )
        report(
            "Durbin-Watson closed form and null range (>=95% of 200 in [1.8, 2.2])",
            closed_form_ok and inside >= 190,
            f"{inside}/200 inside",
        )

    def test_garch_recovery_and_degenerate_spec(self):
        rng = np.random.default_rng(20240103)
        start = time.perf_counter()
        hits = 0
        n_seeds = 50
        for seed in range(n_seeds):
            loc = 0.01 * rng.standard_normal(5000)
            us = 0.01 * rng.standard_normal(5000)
            sim = simulate_garch(
                GarchSimConfig(
                    true_mean_coefficients=(0.0002, 0.6, 0.3),
                    true_alpha0=0.1 * 4e-4,  # 0.1 * sigma^2 with sigma = 0.02
                    true_alphas=(0.1,),
                    true_gammas=(0.8,),
                    seed=7000 + seed,
                ),
                loc,
                us,
            )
            fit = fit_garch_market_model(sim, loc, us, GarchSpec(1, 1))
            if abs(fit.alphas[0] - 0.1) <= 0.05 and abs(fit.gammas[0] - 0.8) <= 0.05:
                hits += 1
        elapsed = time.perf_counter() - start

        loc = 0.01 * rng.standard_normal(2000)
        us = 0.01 * rng.standard_normal(2000)
        y = 0.0002 + 0.6 * loc + 0.3 * us + 0.02 * rng.standard_normal(2000)
        flat = fit_garch_market_model(y, loc, us, GarchSpec(0, 0))
        base = ols_fit(y, [loc, us])
        degenerate_ok = bool(
            np.max(
                np.abs(flat.mean_coefficients - base.coefficients)
                / np.maximum(np.abs(base.coefficients), 1e-300)
            )
            <= 1e-6
        )
        report(
            "GARCH(1,1) recovery (>=90% of 50 seeds within +/-0.05; (0,0)=OLS; < 60 s)",
            hits >= 45 and degenerate_ok and elapsed < 60.0,
            f"{hits}/50 recovered, degenerate ok={degenerate_ok}, {elapsed:.1f} s",
        )

    def test_unconditional_variance_long_run(self):
        rng = np.random.default_rng(20240104)
        T = 100_000
        loc = 0.01 * rng.standard_normal(T)
        us = 0.01 * rng.standard_normal(T)
        alpha0, alpha1, gamma1 = 4e-5, 0.1, 0.8
        sim = simulate_garch(
            GarchSimConfig(
                true_mean_coefficients=(0.0002, 0.6, 0.3),
                true_alpha0=alpha0,
                true_alphas=(alpha1,),
                true_gammas=(gamma1,),
                seed=777,
            ),
            loc,
            us,
        )
        eps = sim - (0.0002 + 0.6 * loc + 0.3 * us)
        target = alpha0 / (1.0 - alpha1 - gamma1)
        rel_err = abs(float(eps.var()) - target) / target
        report(
            "Simulated long-run error variance within 5% of alpha0/(1-a1-g1)",
            rel_err <= 0.05,
            f"rel err {rel_err:.3f}",
        )

    def test_event_study_null_calibration(self):
        rng = np.random.default_rng(20240105)
        windows = EventWindows()
        day0 = int(np.where(windows.event.offsets() == 0)[0][0])
        n_panels = 500
        rejections = 0
        pooled_star = []
        z_values = []
        for _ in range(n_panels):
            results = simulate_panel(rng, n_firms=10)
            panel = aggregate(results, windows)
            rejections += abs(panel.z[day0]) > 1.96
            z_values.append(panel.z)
            pooled_star.append(np.concatenate([r.star for r in results]))
        rate = rejections / n_panels
        star_var = float(np.concatenate(pooled_star).var(ddof=1))
        mean_z = float(np.mean(np.concatenate(z_values)))
        report(
            "Null calibration (500 panels: day-0 rejections 5% +/- 3pp, "
            "pooled StAR variance in [0.8, 1.2])",
            0.02 <= rate <= 0.08 and 0.8 <= star_var <= 1.2 and abs(mean_z) < 0.15,
            f"rate {rate:.3f}, StAR var {star_var:.3f}, mean z {mean_z:.4f}",
        )

    def test_injected_effect_detection(self):
        rng = np.random.default_rng(20240106)
        windows = EventWindows()
        day0 = int(np.where(windows.event.offsets() == 0)[0][0])
        n_seeds = 100
        detected = 0
        in_band = 0
        aar0 = []
        for _ in range(n_seeds):
            panel = aggregate(simulate_panel(rng, n_firms=10, effect=-0.04), windows)
            detected += abs(panel.z[day0]) > 1.96
            in_band += -0.05 <= panel.aar[day0] <= -0.03
            aar0.append(panel.aar[day0])
        mean_aar = float(np.mean(aar0))
        report(
            "Injected -4% day-0 effect (AAR in -0.04 +/- 0.01, |Z| > 1.96 power > 0.9)",
            detected / n_seeds > 0.9 and in_band / n_seeds > 0.9 and -0.05 <= mean_aar <= -0.03,
            f"power {detected / n_seeds:.2f}, in-band {in_band / n_seeds:.2f}, "
            f"mean AAR {mean_aar:.4f}",
        )

    def test_variance_ratio_calibration(self):
        # exact two-sided power at ratio 2 with 90/90 windows is 0.9017,
        # so the population value clears the bound and the fixed draw is pinned
        rng = np.random.default_rng(20240107)
        n_pairs = 500
        size_rejections = 0
        power_rejections = 0
        for _ in range(n_pairs):
            pre = rng.standard_normal(90)
            post = rng.standard_normal(90)
            size_rejections += variance_f_test(post, pre).significant_5pct
        for _ in range(n_pairs):
            pre = rng.standard_normal(90)
            post = np.sqrt(2.0) * rng.standard_normal(90)
            power_rejections += variance_f_test(post, pre).significant_5pct
        size = size_rejections / n_pairs
        power = power_rejections / n_pairs
        report(
            "Variance-ratio F-test (size 5% +/- 3pp at n=90 x 500; doubled-variance power > 0.9)",
            0.02 <= size <= 0.08 and power > 0.9,
            f"size {size:.3f}, power {power:.3f}",
        )

    def test_structural_identities(self):
        rng = np.random.default_rng(20240108)
        windows = EventWindows()
        results = simulate_panel(rng, n_firms=10)
        panel = aggregate(results, windows)

        car_ok = bool(np.max(np.abs(np.diff(panel.car) - panel.aar[1:])) < 1e-12)
        weights_ok = abs(sum(r.weight for r in results) - 1.0) < 1e-12

        lone = aggregate(results[:1], windows)
        collapse_ok = bool(np.array_equal(lone.z, results[0].star))

        cz_ok = all(
            lone.cumulative_z(t, t) == lone.z[i]
            for i, t in enumerate(windows.event.offsets().tolist())
        )
        report(
            "Structural identities (CAR additivity < 1e-12, weights sum to 1, "
            "n=1 Z==StAR, CZ[t,t]==Z_t)",
            car_ok and weights_ok and collapse_ok and cz_ok,
        )

    def test_weight_reproduction_reference_value(self):
        """Reference weight for Petro China from the documented capitalisations.

        The published reference weight (0.437614896) is NOT reproducible
        from the documented per-firm capitalisations, which imply 0.414385:
        they total 580.209e9 while the reference weight implies a 549.41e9
        denominator (consistent with a 5.32e9, not 36.119e9, China Unicom
        cap).  The criterion is asserted as stated and is expected to fail;
        see notes outside the package for the full reconciliation.
        """
        manifest = [record(code, cap) for code, cap in REFERENCE_CAPS.items()]
        weights = cap_weights(manifest, list(REFERENCE_CAPS))
        diff = abs(weights["PTR"] - 0.437614896)
        report(
            "Weight reproduction (Petro China weight = 0.437614896 +/- 1e-6 "
            "from documented caps)",
            diff <= 1e-6,
            f"got {weights['PTR']:.9f}, diff {diff:.2e}; documented caps imply this value "
            "only with a 5.32e9 China Unicom cap",
        )

    def test_cli_determinism(self, tmp_path):
        hashes = []
        for label in ("r1", "r2"):
            bundle = tmp_path / f"bundle_{label}"
            assert main(["simulate", "--out", str(bundle), "--seed", "20240109"]) == 0
            out = tmp_path / label
            assert main(["event-study", "--config", str(bundle / "run.ini"), "--out", str(out)]) == 0
            digest = {}
            for path in sorted(list(bundle.iterdir()) + list(out.iterdir())):
                if path.is_file():
                    digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            hashes.append(digest)
        report(
            "Determinism (simulate + event-study byte-identical across runs)",
            hashes[0] == hashes[1],
            f"{len(hashes[0])} files compared",
        )
