"""The two-state homomorphism chain, its ratio process, and Lyapunov estimates.

Revealing a random oriented path edge by edge and tracking its weighted
homomorphism count into the two-vertex host K (one unit arc, half loops)
gives a Markov pair (f, g): f carries the maps whose last vertex is
consistent with the newest edge, g the rest.  A path vertex is balanced when
its two edges point in opposite ways relative to it, i.e. when consecutive
direction entries agree; the indicator of that event drives the update

    f' = f/2 + g,  g' = g/2      (balanced)
    f' = g/2 + f,  g' = f/2      (imbalanced)

with f_0 = g_0 = 1.  f + g is a martingale with mean 2, and the halved sum
x = (f+g)/2 satisfies the scalar recurrence x_n = x_(n-1) +- beta* x_(n-2)
with an i.i.d. fair sign; resolve_beta_star pins beta* = 1/4 exactly from
the chain itself.  The literature's recurrence x_n = x_(n-1) +- beta x_(n-2)
is exposed separately with beta a free parameter so the beta = 1/8 chain and
its reported exponent can be reproduced as stated.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .core import Orientation, as_orientation
from .errors import CapExceeded, DiscriminantNegative, InternalAssertionFailed, InvalidInput

RESCALE_EVERY = 64
FG_EXHAUSTIVE_CAP = 16  # 2^16 exact chains take about 8 s


@dataclass(frozen=True)
class FGState:
    f: Fraction
    g: Fraction
    i: int

    @property
    def total(self) -> Fraction:
        return self.f + self.g


def _generator(seed: int):
    """numpy's PCG64 generator for a non-negative integer seed."""
    import numpy as np

    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def _dirs_of(o) -> tuple[int, ...]:
    if o is None or o == "":
        return ()
    if isinstance(o, Orientation):
        return o.dirs
    if isinstance(o, (tuple, list)):
        return tuple(o)
    return as_orientation(o).dirs


def balance_indicators(dirs) -> list[int]:
    """I_0 = 1; I_i = 1 iff vertex i is balanced (entries i-1 and i agree)."""
    dirs = _dirs_of(dirs)
    out = [1]
    out.extend(1 if dirs[i - 1] == dirs[i] else 0 for i in range(1, len(dirs)))
    return out


def _fg_chain(dirs):
    """The exact states (f_i, g_i) for i = 0..len(dirs), from f_0 = g_0 = 1.

    An imbalanced step is the balanced step applied to the swapped pair.
    """
    f = g = Fraction(1)
    yield f, g
    for _, balanced in zip(dirs, balance_indicators(dirs)):
        if not balanced:
            f, g = g, f
        f, g = f / 2 + g, g / 2
        yield f, g


def fg_process(o) -> FGState:
    """Run the exact dyadic chain along an orientation; '' gives the start state."""
    dirs = _dirs_of(o)
    *_, (f, g) = _fg_chain(dirs)
    return FGState(f, g, len(dirs))


def fg_x_series(o) -> list[Fraction]:
    """x_i = (f_i + g_i)/2 along the orientation, starting at x_0 = 1."""
    return [(f + g) / 2 for f, g in _fg_chain(_dirs_of(o))]


def resolve_beta_star(max_edges: int = 12) -> Fraction:
    """The unique beta with x_n - x_(n-1) = +-beta x_(n-2), from the exact chain.

    Exhausts all orientations with up to max_edges edges; raises if the ratio
    is not a single constant (which would falsify the scalar-recurrence
    reduction).
    """
    from itertools import product as iproduct

    ratios = set()
    for e in range(2, max_edges + 1):
        for dirs in iproduct((1, -1), repeat=e):
            xs = fg_x_series(dirs)
            for n in range(2, e + 1):
                ratios.add(abs((xs[n] - xs[n - 1]) / xs[n - 2]))
    if len(ratios) != 1:
        raise InternalAssertionFailed(f"expected a single ratio constant, got {sorted(ratios)}")
    return ratios.pop()


@dataclass(frozen=True)
class FGSample:
    n: int
    trials: int
    exhaustive: bool
    mean_total: float | Fraction | None  # None when it would overflow
    std_total: float | None  # sample std of f+g (None when it would overflow)
    mean_log_ratio: float  # mean of ln(x_n)/n
    median_log_ratio: float
    frac_at_least: float  # fraction of trials with x_n >= threshold
    threshold: float
    seed: int | None


def sample_fg(
    n: int,
    trials: int,
    seed: int | None = None,
    exhaustive: bool = False,
    threshold: float = 1.0,
) -> FGSample:
    """Monte Carlo (or exhaustive, exact) summary of the chain at step n.

    Exhaustive mode runs all 2^n orientations in exact arithmetic and reports
    the exact mean of f+g (the martingale value 2).  Monte Carlo mode tracks
    log-rescaled floats so n up to ~10^5 cannot underflow.
    """
    if n < 1 or trials < 1:
        raise InvalidInput("need at least one step and at least one trial")
    if exhaustive and n > FG_EXHAUSTIVE_CAP:
        raise CapExceeded(f"exhaustive sampling capped at n <= {FG_EXHAUSTIVE_CAP}")
    if exhaustive:
        from itertools import product as iproduct

        totals = []
        logs = []
        for dirs in iproduct((1, -1), repeat=n):
            st = fg_process(dirs)
            totals.append(st.total)
            logs.append(math.log(float(st.total) / 2.0) / n)
        mean_total = sum(totals) / len(totals)
        frac = sum(1 for t in totals if float(t) / 2.0 >= threshold) / len(totals)
        std = statistics.pstdev(float(t) for t in totals)
        return FGSample(n, len(totals), True, mean_total, std,
                        statistics.fmean(logs), statistics.median(logs),
                        frac, threshold, None)
    if seed is None:
        raise InvalidInput("seed is required for Monte Carlo sampling")
    import numpy as np

    rng = _generator(seed)
    f = np.ones(trials)
    g = np.ones(trials)
    logscale = np.zeros(trials)
    for i in range(n):
        if i == 0:
            bal = np.ones(trials, dtype=bool)  # I_0 = 1
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
    frac = float(np.mean(lnx >= math.log(threshold)))
    if n <= 256:  # totals fit in float range only for short chains
        totals = np.exp(logscale + np.log(f + g))
        mean_total = float(np.mean(totals))
        std_total = float(np.std(totals))
    else:
        mean_total = std_total = None
    return FGSample(n, trials, False, mean_total, std_total,
                    float(np.mean(log_ratio)), float(np.median(log_ratio)),
                    frac, threshold, seed)


@dataclass(frozen=True)
class RatioChainResult:
    beta: float
    steps: int
    seed: int
    r_low: float
    r_high: float
    min_r: float
    max_r: float
    mean_ln_r: float
    all_inside: bool


def ratio_support(beta: float) -> tuple[float, float]:
    """Invariant support [r_low, r_high]: r_low solves r = 1 - beta/r (larger root)."""
    disc = 1.0 - 4.0 * beta
    if disc < 0:
        raise DiscriminantNegative(f"1 - 4 beta = {disc} < 0")
    r_low = (1.0 + math.sqrt(disc)) / 2.0
    return r_low, 1.0 + beta / r_low if beta else 1.0


def ratio_chain(beta, steps: int, seed: int) -> RatioChainResult:
    """Simulate r_n = 1 +- beta / r_(n-1) from r_0 = 1 and report its range."""
    import numpy as np

    beta = float(beta)
    r_low, r_high = ratio_support(beta)
    rng = _generator(seed)
    r = 1.0
    min_r, max_r = r, r
    log_sum = 0.0
    chunk = 1 << 16  # a multiple of RESCALE_EVERY
    for done in range(0, steps, chunk):
        signs = rng.integers(0, 2, size=min(chunk, steps - done))
        ds = np.where(signs, beta, -beta).tolist()
        for i in range(0, len(ds), RESCALE_EVERY):
            prod = 1.0
            for d in ds[i:i + RESCALE_EVERY]:
                r = 1.0 + d / r
                if r < min_r:
                    min_r = r
                if r > max_r:
                    max_r = r
                prod *= r
            log_sum += math.log(prod)
    # r_0 = 1 lies in the support whenever the support is not empty
    inside = r_low - 1e-12 <= min_r and max_r <= r_high + 1e-12
    return RatioChainResult(beta, steps, seed, r_low, r_high, min_r, max_r,
                            log_sum / steps, inside)


@dataclass(frozen=True)
class LyapunovEstimate:
    mode: str
    beta: float | None
    steps: int
    seed: int
    lambda_hat: float
    ci95_low: float
    ci95_high: float
    batch_means: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "beta": self.beta,
            "steps": self.steps,
            "seed": self.seed,
            "lambda_hat": self.lambda_hat,
            "ci95_low": self.ci95_low,
            "ci95_high": self.ci95_high,
        }


def _batch_ci(batch_means: list[float], total_mean: float) -> tuple[float, float]:
    b = len(batch_means)
    if b < 2:
        return (total_mean, total_mean)
    se = statistics.stdev(batch_means) / math.sqrt(b)
    return (total_mean - 1.96 * se, total_mean + 1.96 * se)


def lyapunov_estimate(
    mode: str,
    steps: int,
    seed: int,
    beta=None,
    batches: int = 100,
) -> LyapunovEstimate:
    """Estimate lim ln(x_n)/n by long simulation with batch-means confidence.

    mode "recurrence" runs x_n = x_(n-1) +- beta x_(n-2) through its ratio
    form with periodic log-rescaling; mode "fg" runs the homomorphism chain
    itself (float, rescaled) and takes no beta.
    """
    import numpy as np

    if not 1 <= batches <= steps:
        raise InvalidInput("need at least one batch and at least as many steps as batches")
    rng = _generator(seed)
    batch_len = steps // batches
    total = batches * batch_len
    batch_means: list[float] = []
    if mode == "recurrence":
        if beta is None:
            raise InvalidInput("recurrence mode needs beta")
        # checked before the float conversion, which overflows past 1e308
        if beta < 0 or 4 * beta - 1 > 1e-15:
            raise DiscriminantNegative("recurrence mode needs 0 <= beta <= 1/4")
        beta = float(beta)
        if beta == 0.0:
            return LyapunovEstimate(mode, beta, steps, seed, 0.0, 0.0, 0.0,
                                    tuple([0.0] * batches))
        t = 1.0  # x_n / x_(n-1)
        for _ in range(batches):
            ds = np.where(rng.integers(0, 2, size=batch_len), beta, -beta).tolist()
            acc = 0.0
            for i in range(0, batch_len, RESCALE_EVERY):
                prod = 1.0
                for d in ds[i:i + RESCALE_EVERY]:
                    t = 1.0 + d / t
                    prod *= t
                acc += math.log(prod)
            batch_means.append(acc / batch_len)
    elif mode == "fg":
        if beta is not None:
            raise InvalidInput("fg mode takes no beta")
        f, g = 1.0, 1.0
        prev_ln = 0.0
        logscale = 0.0
        step = 0
        for b in range(batches):
            bal_arr = rng.integers(0, 2, size=batch_len).tolist()
            if b == 0:
                bal_arr[0] = 1  # the first vertex indicator is deterministic
            i = 0
            while i < batch_len:
                # run up to the next multiple of RESCALE_EVERY steps overall
                j = min(batch_len, i + RESCALE_EVERY - step % RESCALE_EVERY)
                for bal in bal_arr[i:j]:
                    if bal:
                        f, g = 0.5 * f + g, 0.5 * g
                    else:
                        f, g = 0.5 * g + f, 0.5 * f
                step += j - i
                i = j
                if step % RESCALE_EVERY == 0:
                    s = f + g
                    logscale += math.log(s)
                    f /= s
                    g /= s
            ln_now = logscale + math.log((f + g) / 2.0)
            batch_means.append((ln_now - prev_ln) / batch_len)
            prev_ln = ln_now
    else:
        raise InvalidInput("mode must be 'recurrence' or 'fg'")
    lam = statistics.fmean(batch_means)
    lo, hi = _batch_ci(batch_means, lam)
    return LyapunovEstimate(mode, beta, steps, seed, lam, lo, hi, tuple(batch_means))
