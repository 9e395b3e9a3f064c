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
K_HOST = WeightedTournament(2, _freeze([[F(1, 2), F(1)], [F(0), F(1, 2)]]))


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


# float(1/4 + 10^-16) is 1/4, so only the exact beta shows it out of range;
# NaN fails every comparison, so the range check is written to fail on it
@pytest.mark.parametrize("beta", [F(10**400), F(-(10**400)), F(1, 4) + F(1, 10**16), float("nan")])
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


@pytest.mark.parametrize("beta", [F(10**400), 10**400, F(1, 4) + F(1, 10**30)])
def test_ratio_chain_checks_the_discriminant_on_the_exact_beta(beta):
    # float(10**400) overflows, and float(1/4 + 10^-30) is 1/4
    with pytest.raises(DiscriminantNegative):
        ratio_chain(beta, 10, 0)


@pytest.mark.parametrize("steps", [0, -5])
def test_ratio_chain_needs_a_step(steps):
    with pytest.raises(InvalidInput, match="at least one step"):
        ratio_chain(0.125, steps, 1)


def test_ratio_chain_nan_beta_is_invalid_input():
    with pytest.raises(InvalidInput, match="beta >= -1/4"):
        ratio_chain(float("nan"), 100, 1)


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


# both ratio chains run as side-by-side segments at every size, fg chains from
# 2^15 steps on and the scalar walk below: the longest walk, with batch ends
# off the rescale steps, at and just past that threshold, batches of 4104 and
# 33 steps (not multiples of 64), one batch a step longer than a ratio chunk,
# whose last piece is that one step, and one batch longer than an fg chunk
# whose last chunk is shorter than a segment
@pytest.mark.parametrize("steps,batches", [(1, 1), (63, 1), (64, 1), (65, 1), (129, 1),
                                           (640, 10), (1000, 7), (6400, 100), (70001, 3),
                                           (32767, 7), (32768, 1), (32769, 1), (32832, 8),
                                           (33000, 1000), (65537, 1), (262244, 1)])
def test_sliced_loops_match_the_per_step_loops_bit_for_bit(steps, batches):
    for seed in (0, 5):
        for beta in (0.125, 0.25, 3 / 64, 1 / 64):
            est = lyapunov_estimate("recurrence", steps, seed, beta=beta, batches=batches)
            assert list(est.batch_means) == _per_step_lyapunov(
                "recurrence", steps, seed, beta, batches)
        for beta in (0.0, 0.125, 0.25, 3 / 64, -1 / 16):  # -1/16: an empty support
            rc = ratio_chain(beta, steps, seed)
            assert (rc.min_r, rc.max_r, rc.mean_ln_r, rc.all_inside) == _per_step_ratio_chain(
                beta, steps, seed)
        est = lyapunov_estimate("fg", steps, seed, batches=batches)
        assert list(est.batch_means) == _per_step_lyapunov("fg", steps, seed, batches=batches)


def _settle_and_loop(step_of, starts, segments, length):
    """_settle on `segments` segments of `length` steps from `starts` (the
    other segments from the guess 0), and the sequential loop over the same
    steps.  step_of(k, x, s) takes the state x before step k of segment s,
    a column of every segment or one float.  Returns the scan's states after
    every step, its end, passes and step calls, and the loop's states."""
    import numpy as np

    cols = np.arange(segments)
    seen = np.empty((length, segments))
    calls = [0]

    def step(k, x):
        calls[0] += 1
        seen[k] = step_of(k, x, cols)
        return seen[k]

    first = np.zeros(segments)
    first[0] = starts
    end, passes = stochastic._settle(step, first, length)
    x, want = starts, []
    for s in range(segments):
        for k in range(length):
            x = float(step_of(k, x, s))
            want.append(x)
    return seen.T.ravel().tolist(), end.tolist(), passes, calls[0], want


def test_settle_stops_a_pass_once_a_chain_has_coupled_mid_segment():
    # x <- floor(x/2) + d on integer-valued floats halves any error in a
    # start, so the segments couple after a few steps: the first pass ends
    # every segment exactly and the second stops at its first checkpoint
    import numpy as np

    segments, length = 6, 4 * stochastic.CHECKPOINT
    ds = np.random.default_rng(23).integers(0, 50, size=(length, segments)).astype(float)
    got, end, passes, calls, want = _settle_and_loop(
        lambda k, x, s: np.floor(x * 0.5) + ds[k, s], 1000.0, segments, length)
    assert got == want
    assert end[-1] == want[-1]
    assert passes == 2
    assert calls == length + stochastic.CHECKPOINT < passes * length


def test_settle_stops_a_pass_at_the_checkpoint_where_a_chain_couples():
    # x <- x + d carries a start's error until the reset at the step before
    # the second checkpoint, which takes every segment to the same state
    import numpy as np

    segments, length = 5, 3 * stochastic.CHECKPOINT
    reset = 2 * stochastic.CHECKPOINT - 1
    ds = np.random.default_rng(29).integers(1, 10, size=(length, segments)).astype(float)

    def step_of(k, x, s):
        return ds[k, s] if k == reset else x + ds[k, s]

    got, end, passes, calls, want = _settle_and_loop(step_of, 7.0, segments, length)
    assert got == want
    assert end[-1] == want[-1]
    assert passes == 2
    assert calls == length + reset + 1


def test_settle_reruns_a_chain_that_never_forgets_its_start():
    # x <- x + d on integer-valued floats carries any error in a start to the
    # end of its segment, so each pass makes exactly one more start exact;
    # segments long enough to reach checkpoints never repeat the last pass
    import numpy as np

    segments = 7
    for length in (5, 3 * stochastic.CHECKPOINT):
        ds = np.random.default_rng(19).integers(1, 10, size=(length, segments)).astype(float)
        got, end, passes, calls, want = _settle_and_loop(
            lambda k, x, s: x + ds[k, s], 3.0, segments, length)
        assert got == want
        assert end[-1] == want[-1]
        assert passes == segments
        assert calls == passes * length


@pytest.mark.parametrize("mode,beta", [("recurrence", 0.25), ("fg", None)])
def test_long_chains_hold_one_chunk_at_a_time(mode, beta):
    # one batch of 2e6 steps: only one chunk of draws and states is alive at a
    # time, so the peak does not grow with the batch (its 2e6 draws alone as
    # int64 would take 16 MB)
    import tracemalloc

    tracemalloc.start()
    try:
        lyapunov_estimate(mode, 2_000_000, 5, beta=beta, batches=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _frozen_sample_fg(n, trials, seed):
    """sample_fg's Monte Carlo loop as it was before it shared the scan's
    step, with one draw of `trials` balance bits per step and an np.where
    select, frozen as the reference for the draw blocks and the bitwise
    select: (mean_total, std_total, mean_log_ratio, median_log_ratio,
    frac_at_least)."""
    import numpy as np

    from toursid.stochastic import RESCALE_EVERY

    rng = np.random.Generator(np.random.PCG64(seed))
    f = np.ones(trials)
    g = np.ones(trials)
    logscale = np.zeros(trials)
    for i in range(n):
        if i == 0:
            bal = np.ones(trials, dtype=bool)
        else:
            bal = rng.integers(0, 2, size=trials).astype(bool)
        fn = np.where(bal, 0.5 * f + g, 0.5 * g + f)
        gn = np.where(bal, 0.5 * g, 0.5 * f)
        f, g = fn, gn
        if (i + 1) % RESCALE_EVERY == 0:
            s = f + g
            logscale += np.log(s)
            f /= s
            g /= s
    lnx = logscale + np.log((f + g) / 2.0)
    log_ratio = lnx / n
    mean_total = std_total = None
    if n <= 256:
        totals = np.exp(logscale + np.log(f + g))
        mean_total, std_total = float(np.mean(totals)), float(np.std(totals))
    return (mean_total, std_total, float(np.mean(log_ratio)), float(np.median(log_ratio)),
            float(np.mean(lnx >= 0.0)))


# the CLI's golden sample, a short chain with its totals, the last n with
# totals (a multiple of 64), and a multiple of 64 past it; then against the
# draw blocks: trials that do not divide DRAW_BLOCK (3, 7, 1001, 10,000), one
# that does (16,384, a block of one row) and one past it (20,000), at n = 1,
# 64, 65 and 257 (the first n without totals)
@pytest.mark.parametrize("n,trials,seed", [(300, 400, 3), (100, 10_000, 1), (256, 2_000, 9),
                                           (640, 500, 2), (1, 3, 0), (1, 20_000, 11),
                                           (64, 1001, 0), (65, 3, 11), (65, 10_000, 0),
                                           (257, 1001, 11), (257, 20_000, 0), (130, 16_384, 11),
                                           (300, 7, 0)])
def test_sample_fg_matches_the_frozen_loop_bit_for_bit(n, trials, seed):
    s = sample_fg(n, trials, seed=seed)
    got = (s.mean_total, s.std_total, s.mean_log_ratio, s.median_log_ratio, s.frac_at_least)
    assert got == _frozen_sample_fg(n, trials, seed)
    assert (s.mean_total is None) == (n > 256)


def test_the_bitwise_select_is_np_where_on_every_word():
    import numpy as np

    rng = np.random.default_rng(31)
    special = np.array([0x7FF0000000000001, 0xFFF8000000000123, 0x7FF8000000000000,  # NaNs
                        0x0000000000000000, 0x8000000000000000,  # +-0.0
                        0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
                        0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
                        0x3FF0000000000000], dtype=np.uint64)
    for _ in range(20):
        words = rng.integers(0, 2**64, size=(2, 997), dtype=np.uint64)
        words.flat[rng.integers(0, words.size, size=400)] = rng.choice(special, 400)
        fg = words.view(np.float64)
        bal = rng.integers(0, 2, size=997)
        got = stochastic._select(np.negative(bal).view(np.uint64), fg)
        assert np.array_equal(got.view(np.uint64), np.where(bal, fg, fg[::-1]).view(np.uint64))
        assert np.array_equal(fg.view(np.uint64), words)  # the input is left as it was
    got = stochastic._select(~np.uint64(0), fg)  # one all-ones mask for every column
    assert np.array_equal(got.view(np.uint64), words)


def test_sample_fg_holds_no_draw_array_of_every_step():
    # the bits come in blocks of at most DRAW_BLOCK values, so 100 times the
    # steps reach the same traced peak (40,000 x 2,000 draws as int64 would
    # take 640 MB)
    import tracemalloc

    sample_fg(2, 2, seed=1)  # numpy's import is not part of the peak
    peaks = []
    for n in (400, 40_000):
        tracemalloc.start()
        try:
            sample_fg(n, 2000, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0] < 1e6


def test_ratio_chain_past_a_quarter_below_zero_is_invalid_input():
    # |beta| > 1/4 lets r reach 0, a division by zero on most of these seeds
    for seed in range(5):
        with pytest.raises(InvalidInput, match="beta >= -1/4"):
            ratio_chain(-1, 50, seed)
    for seed in (0, 5):
        rc = ratio_chain(F(-1, 4), 5000, seed)
        assert (rc.min_r, rc.max_r, rc.mean_ln_r, rc.all_inside) == _per_step_ratio_chain(
            -0.25, 5000, seed)
