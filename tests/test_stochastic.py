import math
from fractions import Fraction
from itertools import product

import pytest

from toursid.core import Orientation
from toursid import stochastic
from toursid.errors import CapExceeded, DiscriminantNegative, InternalAssertionFailed, InvalidInput
from toursid.hom import hom_path
from toursid.stochastic import (
    FG_EXHAUSTIVE_CAP,
    fg_process,
    fg_x_series,
    lyapunov_estimate,
    ratio_chain,
    ratio_support,
    resolve_beta_star,
    sample_fg,
)
from toursid.tournament import WeightedTournament, _freeze

F = Fraction

# the two-vertex host: a unit arc with half loops
K_HOST = WeightedTournament(
    2, _freeze([[F(1, 2), F(1)], [F(0), F(1, 2)]]), loops_half=True
)


def test_fg_forward_path():
    assert fg_process(">>>>").total == F(5, 8)


def test_fg_alternating():
    assert fg_process("><><").total == F(29, 8)


def test_fg_empty():
    st = fg_process("")
    assert (st.f, st.g, st.i) == (F(1), F(1), 0)
    assert st.total == 2


def test_fg_equals_hom_exhaustive():
    for e in range(1, 13):
        for dirs in product((1, -1), repeat=e):
            st = fg_process(dirs)
            assert st.total == hom_path(Orientation(dirs), K_HOST).raw


def test_fg_positivity_and_dyadic_denominators():
    for dirs in product((1, -1), repeat=10):
        st = fg_process(dirs)
        assert st.f > 0 and st.g > 0
        assert (2**st.i) % st.f.denominator == 0
        assert (2**st.i) % st.g.denominator == 0


def test_fg_martingale_exhaustive():
    for e in range(1, 13):
        total = sum(fg_process(dirs).total for dirs in product((1, -1), repeat=e))
        assert total == 2 * 2**e


def test_beta_star_is_quarter():
    assert resolve_beta_star(10) == F(1, 4)


def test_beta_star_with_two_ratios_is_an_internal_error(monkeypatch):
    # x_2 - x_1 = x_0 after a forward first edge, 2 x_0 after a backward one
    monkeypatch.setattr(stochastic, "fg_x_series",
                        lambda dirs: [F(1), F(1), F(2) if dirs[0] == 1 else F(3)])
    with pytest.raises(InternalAssertionFailed, match=r"got \[Fraction\(1, 1\), Fraction\(2, 1\)\]"):
        resolve_beta_star(2)


def test_x_series_recurrence_identity():
    # x_n - x_(n-1) = +-(1/4) x_(n-2) with the sign set by the balance bit
    from toursid.stochastic import balance_indicators

    for dirs in product((1, -1), repeat=9):
        xs = fg_x_series(dirs)
        ind = balance_indicators(dirs)
        for n in range(2, len(xs)):
            expect = -F(1, 4) if ind[n - 1] else F(1, 4)
            assert xs[n] - xs[n - 1] == expect * xs[n - 2]


def test_sample_exhaustive_mean_two():
    s = sample_fg(10, 1024, exhaustive=True)
    assert s.mean_total == 2
    assert s.trials == 1024


def test_exhaustive_sample_is_capped_before_any_chain_runs(monkeypatch):
    def chain(dirs):
        raise AssertionError("a chain ran past the cap")

    monkeypatch.setattr(stochastic, "fg_process", chain)
    with pytest.raises(CapExceeded):
        sample_fg(FG_EXHAUSTIVE_CAP + 1, 1, exhaustive=True)
    # Monte Carlo sampling has no such cap
    assert sample_fg(FG_EXHAUSTIVE_CAP + 1, 10, seed=1).n == FG_EXHAUSTIVE_CAP + 1


def test_sample_martingale_monte_carlo():
    s = sample_fg(100, 100_000, seed=7)
    se = s.std_total / math.sqrt(s.trials)
    assert abs(s.mean_total - 2) <= 3 * se


def test_sample_seed_required():
    with pytest.raises(ValueError):
        sample_fg(10, 100)


@pytest.mark.parametrize("run", [
    lambda seed: sample_fg(5, 3, seed=seed),
    lambda seed: ratio_chain(F(1, 8), 100, seed=seed),
    lambda seed: lyapunov_estimate("fg", steps=200, seed=seed),
    lambda seed: lyapunov_estimate("recurrence", steps=200, seed=seed, beta=F(1, 8)),
], ids=["sample_fg", "ratio_chain", "lyapunov-fg", "lyapunov-recurrence"])
def test_a_negative_seed_is_invalid_input(run):
    with pytest.raises(InvalidInput, match="seed must be non-negative"):
        run(-1)
    # seeds past 64 bits are fine: numpy hashes them through its SeedSequence
    assert run(2**64 + 1) == run(2**64 + 1)


@pytest.mark.parametrize("beta", [F(10**400), F(-(10**400))])
def test_recurrence_beta_past_the_float_range_is_out_of_range(beta):
    with pytest.raises(DiscriminantNegative):
        lyapunov_estimate("recurrence", steps=100, seed=1, beta=beta)


@pytest.mark.parametrize("beta", [F(1, 8), F(7, 9), F(10**400), F(0)])
def test_fg_mode_takes_no_beta(beta):
    # the f/g chain has no beta, so one given to it would be echoed unused
    with pytest.raises(InvalidInput, match="fg mode takes no beta"):
        lyapunov_estimate("fg", steps=100, seed=1, beta=beta)


def test_ratio_support_eighth():
    lo, hi = ratio_support(0.125)
    assert lo == pytest.approx((1 + math.sqrt(2)) / (2 * math.sqrt(2)), abs=1e-12)
    assert hi == pytest.approx((3 * math.sqrt(2) - 1) / (2 * math.sqrt(2)), abs=1e-12)


def test_ratio_support_quarter():
    assert ratio_support(0.25) == (0.5, 1.5)


def test_ratio_chain_zero_beta():
    rc = ratio_chain(0, 10_000, seed=1)
    assert rc.min_r == rc.max_r == 1.0
    assert rc.mean_ln_r == 0.0


def test_ratio_chain_stays_inside():
    rc = ratio_chain(F(1, 8), 100_000, seed=3)
    assert rc.all_inside
    assert rc.min_r >= rc.r_low - 1e-12
    assert rc.max_r <= rc.r_high + 1e-12


def test_ratio_chain_discriminant():
    with pytest.raises(DiscriminantNegative):
        ratio_chain(0.3, 100, seed=0)


def test_lyapunov_zero_beta_exact():
    est = lyapunov_estimate("recurrence", steps=10_000, seed=5, beta=0)
    assert est.lambda_hat == 0.0


def test_lyapunov_recurrence_eighth():
    est = lyapunov_estimate("recurrence", steps=2_000_000, seed=11, beta=F(1, 8))
    assert est.lambda_hat == pytest.approx(-0.0083, abs=0.003)
    assert est.ci95_high < 0


def test_lyapunov_fg_negative():
    est = lyapunov_estimate("fg", steps=1_000_000, seed=13)
    assert est.ci95_high < 0
    # pinned from long runs of both the chain and its beta* = 1/4 recurrence
    assert est.lambda_hat == pytest.approx(-0.043, abs=0.004)


def test_lyapunov_fg_matches_quarter_recurrence():
    a = lyapunov_estimate("fg", steps=2_000_000, seed=17)
    b = lyapunov_estimate("recurrence", steps=2_000_000, seed=19, beta=F(1, 4))
    assert a.lambda_hat == pytest.approx(b.lambda_hat, abs=0.004)


def test_paper_style_tail_bound_arithmetic():
    # -(1/8)^2 / (2 (3/sqrt 2)^2) = -1/576, all rational
    val = -F(1, 8) ** 2 / (2 * F(9, 2))
    assert val == -F(1, 576)
    assert val < -F(1, 1000)


def _per_step_lyapunov(mode, steps, seed, beta=None, batches=100):
    """Batch means from a loop that takes one step per iteration, drawing and
    rescaling exactly as lyapunov_estimate does: the reference for its
    64-step slices."""
    import numpy as np

    from toursid.stochastic import RESCALE_EVERY

    rng = np.random.Generator(np.random.PCG64(seed))
    batch_len = steps // batches
    means = []
    if mode == "recurrence":
        t = 1.0
        for _ in range(batches):
            acc, prod, k = 0.0, 1.0, 0
            for s in rng.integers(0, 2, size=batch_len).tolist():
                t = 1.0 + beta / t if s else 1.0 - beta / t
                prod *= t
                k += 1
                if k == RESCALE_EVERY:
                    acc += math.log(prod)
                    prod, k = 1.0, 0
            acc += math.log(prod)
            means.append(acc / batch_len)
        return means
    f, g, prev_ln, logscale, step = 1.0, 1.0, 0.0, 0.0, 0
    for _ in range(batches):
        for bal in rng.integers(0, 2, size=batch_len).tolist():
            if step == 0:
                bal = 1
            f, g = (0.5 * f + g, 0.5 * g) if bal else (0.5 * g + f, 0.5 * f)
            step += 1
            if step % RESCALE_EVERY == 0:
                s = f + g
                logscale += math.log(s)
                f, g = f / s, g / s
        ln_now = logscale + math.log((f + g) / 2.0)
        means.append((ln_now - prev_ln) / batch_len)
        prev_ln = ln_now
    return means


def _per_step_ratio_chain(beta, steps, seed):
    """(min_r, max_r, mean ln r, inside) from a loop that takes one step per
    iteration: the reference for ratio_chain's 64-step slices."""
    import numpy as np

    from toursid.stochastic import RESCALE_EVERY

    r_low, r_high = ratio_support(beta)
    rng = np.random.Generator(np.random.PCG64(seed))
    r = min_r = max_r = 1.0
    log_sum, prod, count, inside, done = 0.0, 1.0, 0, True, 0
    while done < steps:
        todo = min(1 << 16, steps - done)
        for s in rng.integers(0, 2, size=todo).tolist():
            r = 1.0 + beta / r if s else 1.0 - beta / r
            min_r, max_r = min(min_r, r), max(max_r, r)
            inside &= r_low - 1e-12 <= r <= r_high + 1e-12
            prod *= r
            count += 1
            if count == RESCALE_EVERY:
                log_sum += math.log(prod)
                prod, count = 1.0, 0
        done += todo
    log_sum += math.log(prod)
    return min_r, max_r, log_sum / steps, inside


@pytest.mark.parametrize("steps,batches", [(1, 1), (63, 1), (64, 1), (65, 1), (129, 1),
                                           (640, 10), (1000, 7), (6400, 100), (70001, 3)])
def test_sliced_loops_match_the_per_step_loops_bit_for_bit(steps, batches):
    for seed in (0, 5):
        for beta in (0.125, 0.25, 3 / 64):
            est = lyapunov_estimate("recurrence", steps, seed, beta=beta, batches=batches)
            assert list(est.batch_means) == _per_step_lyapunov(
                "recurrence", steps, seed, beta, batches)
        for beta in (0.0, 0.125, 0.25, 3 / 64, -1 / 16):  # -1/16: an empty support
            rc = ratio_chain(beta, steps, seed)
            assert (rc.min_r, rc.max_r, rc.mean_ln_r, rc.all_inside) == _per_step_ratio_chain(
                beta, steps, seed)
        est = lyapunov_estimate("fg", steps, seed, batches=batches)
        assert list(est.batch_means) == _per_step_lyapunov("fg", steps, seed, batches=batches)
