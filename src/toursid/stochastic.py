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

Both ratio chains (ratio_chain and lyapunov_estimate's recurrence mode) and
fg chains of SCAN_MIN_STEPS steps or more run as a segment scan: a chunk of
draws is cut into SEGMENT-step segments, and each float operation of the
scalar loop becomes one numpy operation on the column of all segments.
Segment 0 starts from the exact state, the others from a guess (r = 1, or
f = g = 1/2); each further pass restarts every segment from the end the last
pass gave the one before it, until no start changes (see _settle, which also
stops a pass at the first CHECKPOINT-step checkpoint that repeats the last
pass).  numpy's +, /, * 0.5 and select are the same correctly rounded IEEE
operations as Python's, segment 0 is always exact, and a segment restarted
from an exact end is exact in turn, so the result is bit for bit the scalar
loop's.  Ratio segments forget their start within a few dozen steps: the
first pass ends every segment exactly and the second stops after 32 steps (64
at beta = 1/4).  fg segments merge only at rescales, so an fg chunk takes two
or three passes.  Block products, math.log calls and running sums keep the
scalar loop's order.  Shorter fg chains run _fg_walk, a scalar loop with the
scan's contract; one driver, _fg_scan, draws and books both.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add

from .core import Orientation, as_orientation
from .errors import CapExceeded, DiscriminantNegative, InternalAssertionFailed, InvalidInput

RESCALE_EVERY = 64
FG_EXHAUSTIVE_CAP = 16  # 2^16 exact chains take about 8 s
SEGMENT = 256  # steps per segment of the side-by-side scan, a multiple of RESCALE_EVERY
SCAN_MIN_STEPS = 1 << 15  # shorter fg chains run the scalar loop
SCAN_CHUNK = 1 << 16  # recurrence steps drawn and settled at a time, a multiple of SEGMENT
FG_SCAN_CHUNK = 1 << 18  # the same for the fg chain, which keeps one state in RESCALE_EVERY
CHECKPOINT = 32  # steps between the states a pass of the scan compares with the last pass
DRAW_BLOCK = 1 << 14  # balance bits sample_fg draws at a time (at least one row)


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
    frac_at_least: float  # fraction of trials with x_n >= 1
    seed: int | None


def _select(mask, fg):
    """(f, g) in the columns of a 2-row float64 array where the uint64 mask word
    is all ones, (g, f) where it is zero: with d = f ^ g masked, the words
    g ^ d and f ^ d.  Every bit pattern moves unchanged, as in np.where."""
    import numpy as np

    w = fg.view(np.uint64)
    d = w[0] ^ w[1]
    d &= mask
    return (w[::-1] ^ d).view(np.float64)


def _fg_step(mask, fg):
    """One step of the fg chain on the columns (f, g) of a 2-row array, with
    one mask word per column (or one for all), all ones where the step is
    balanced: an imbalanced step is the balanced step applied to the swapped
    pair.  Returns a new array."""
    ab = _select(mask, fg)
    fg = ab * 0.5
    fg[0] += ab[1]
    return fg


def sample_fg(n: int, trials: int, seed: int | None = None, exhaustive: bool = False) -> FGSample:
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
        frac = sum(1 for t in totals if float(t) / 2.0 >= 1.0) / len(totals)
        std = statistics.pstdev(float(t) for t in totals)
        return FGSample(n, len(totals), True, mean_total, std,
                        statistics.fmean(logs), statistics.median(logs), frac, None)
    if seed is None:
        raise InvalidInput("seed is required for Monte Carlo sampling")
    import numpy as np

    rng = _generator(seed)
    # I_0 = 1: the first vertex indicator is deterministic
    fg = _fg_step(~np.uint64(0), np.ones((2, trials)))
    logscale = np.zeros(trials)
    mask = np.empty(trials, dtype=np.int64)
    rows = max(1, DRAW_BLOCK // trials)  # a block of rows is the stream of one draw per row
    for lo in range(1, n, rows):
        for i, bits in enumerate(rng.integers(0, 2, size=(min(rows, n - lo), trials)), lo):
            fg = _fg_step(np.negative(bits, out=mask).view(np.uint64), fg)
            if (i + 1) % RESCALE_EVERY == 0:
                s = fg[0] + fg[1]
                logscale += np.log(s)
                fg /= s
    total = fg[0] + fg[1]
    lnx = logscale + np.log(total / 2.0)
    log_ratio = lnx / n
    frac = float(np.mean(lnx >= 0.0))
    if n <= 256:  # totals fit in float range only for short chains
        totals = np.exp(logscale + np.log(total))
        mean_total = float(np.mean(totals))
        std_total = float(np.std(totals))
    else:
        mean_total = std_total = None
    return FGSample(n, trials, False, mean_total, std_total,
                    float(np.mean(log_ratio)), float(np.median(log_ratio)), frac, seed)


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


def _settle(step, first, length: int):
    """Run consecutive segments of one chain side by side until each is exact.

    `first` holds one start column per segment along its last axis: column 0
    is the exact start of segment 0, the others are guesses at the starts of
    segments 1, 2, ...  step(k, state) takes the columns before step k of
    every segment to the columns after it, a C-contiguous float64 array, and
    leaves `state` as it was.  It must depend on nothing but k and state; it
    may write outputs for step k, which a later pass overwrites.  A pass runs
    every segment for `length` steps; the next pass restarts segment s from
    the end this pass gave segment s - 1.  Once a pass changes no start bit,
    every segment ran from its exact start, so the last pass took each step
    exactly as the sequential loop would.  A pass makes at least one more
    start exact, so S segments settle in at most S passes.

    Early stop: every CHECKPOINT steps, each pass after the first compares
    its state with the last pass's state at that step.  If every bit agrees,
    the rest of this pass would repeat the last one step for step, since a
    step sees only k and the state: it would write the same outputs and reach
    the same end, from which the next pass would restart every segment at
    this pass's starts.  So this pass's starts are exact, every output
    already holds the sequential loop's value, and the last pass's end is
    this one's.  Returns the end columns and the number of passes begun.
    """
    import numpy as np

    marks = {}  # step -> state words at that step of the last pass
    starts, passes = first, 0
    while True:
        state = starts
        passes += 1
        for k in range(length):
            if k and k % CHECKPOINT == 0:
                words = state.view(np.uint64)
                if k in marks and np.array_equal(words, marks[k]):
                    return end, passes
                marks[k] = words.copy()
            state = step(k, state)
        shifted = np.concatenate((starts[..., :1], state[..., :-1]), axis=-1)
        if np.array_equal(shifted.view(np.uint64), starts.view(np.uint64)):
            return state, passes
        end, starts = state.copy(), shifted


def _columns(values, fill):
    """values cut into SEGMENT-step segments, the last one padded with fill:
    row k holds step k of every segment."""
    import numpy as np

    full, rem = divmod(len(values), SEGMENT)
    cols = np.full((SEGMENT, full + (rem > 0)), fill, dtype=values.dtype)
    cols[:, :full] = values[:full * SEGMENT].reshape(full, SEGMENT).T
    cols[:rem, full:] = values[full * SEGMENT:, None]
    return cols


def _ratio_path(r: float, rng, n: int, beta: float):
    """r_i = 1 + d_i / r_(i-1) for n fresh draws d_i = +-beta, from r_(-1) = r,
    by the segment scan.

    The segments start from the guess 1.0 and the padding steps take d = beta.
    The guess lies in the invariant range of every |beta| <= 1/4 (for beta < 0
    the draws +-beta are those of |beta|), so no segment reaches r = 0; it
    only changes how many passes run, as _settle makes the path exact anyway.
    """
    import numpy as np

    cols = np.where(_columns(rng.integers(0, 2, size=n), 1), beta, -beta)
    path = np.empty_like(cols)
    rows = list(zip(cols, path))

    def step(k, r):
        d, out = rows[k]
        np.divide(d, r, out=out)
        return np.add(out, 1.0, out=out)

    first = np.ones(cols.shape[1])
    first[0] = r
    _settle(step, first, SEGMENT)
    return path.T.ravel()[:n]


def _block_logs(path):
    """The log of each block product along the rows of a 2-D path, one list
    per row: each row is cut into RESCALE_EVERY-step blocks from its start,
    the last one short, and each product is taken left to right from 1.0, as
    the scalar loop does."""
    import numpy as np

    prods = np.ones((path.shape[0], -(-path.shape[1] // RESCALE_EVERY)))
    for j in range(RESCALE_EVERY):
        col = path[:, j::RESCALE_EVERY]  # step j of every block that has one
        prods[:, :col.shape[1]] *= col
    return [list(map(math.log, row)) for row in prods.tolist()]


def ratio_chain(beta, steps: int, seed: int) -> RatioChainResult:
    """Simulate r_n = 1 +- beta / r_(n-1) from r_0 = 1 and report its range,
    r_0 included, by the segment scan, SCAN_CHUNK steps at a time."""
    if beta < -0.25:  # past |beta| = 1/4 the chain can reach r = 0
        raise InvalidInput("ratio chain needs beta >= -1/4")
    # checked on the exact value: the float conversion overflows past 1e308
    if 1 - 4 * beta < 0:
        raise DiscriminantNegative("ratio chain needs 1 - 4 beta >= 0")
    beta = float(beta)
    r_low, r_high = ratio_support(beta)
    rng = _generator(seed)
    r = min_r = max_r = 1.0
    log_sum = 0.0
    for done in range(0, steps, SCAN_CHUNK):
        path = _ratio_path(r, rng, min(SCAN_CHUNK, steps - done), beta)
        r = float(path[-1])
        min_r = min(min_r, float(path.min()))
        max_r = max(max_r, float(path.max()))
        (logs,) = _block_logs(path[None])
        log_sum = reduce(add, logs, log_sum)
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


def _recurrence_scan(rng, beta: float, batches: int, batch_len: int) -> list[float]:
    """The recurrence mode's batch means by the segment scan.

    A chunk holds max(1, SCAN_CHUNK // batch_len) whole batches and runs them
    in pieces of min(batch_len, SCAN_CHUNK) steps, a multiple of RESCALE_EVERY
    where it cuts a batch, so each block product comes whole from one path;
    the block logs are summed per batch, in order.
    """
    per, piece = max(1, SCAN_CHUNK // batch_len), min(batch_len, SCAN_CHUNK)
    means, t = [], 1.0
    for b in range(0, batches, per):
        runs = min(per, batches - b)
        sums = [0.0] * runs
        for lo in range(0, batch_len, piece):
            path = _ratio_path(t, rng, runs * min(piece, batch_len - lo), beta)
            t = float(path[-1])
            sums = [reduce(add, logs, acc)
                    for acc, logs in zip(sums, _block_logs(path.reshape(runs, -1)))]
        means.extend(acc / batch_len for acc in sums)
    return means


def _fg_walk(f: float, g: float, bal, stops):
    """_fg_chunk's contract by the scalar loop, which is faster on short
    chains: it runs up to each rescale and each step in `stops` in turn."""
    bits, ends = bal.tolist(), {j + 1 for j in stops}
    sums, at, i = [], {}, 0
    for j in sorted(ends.union(range(RESCALE_EVERY, len(bits), RESCALE_EVERY), [len(bits)])):
        for b in bits[i:j]:
            if b:
                f, g = 0.5 * f + g, 0.5 * g
            else:
                f, g = 0.5 * g + f, 0.5 * f
        i = j
        if j % RESCALE_EVERY == 0:
            s = f + g
            sums.append(s)
            f, g = f / s, g / s
        if j in ends:
            at[j - 1] = f, g
    return sums, at, (f, g)


def _fg_chunk(f: float, g: float, bal, stops):
    """The fg chain over one chunk of balance draws by the segment scan.

    The chunk starts at a multiple of RESCALE_EVERY steps, so the rescales
    fall at the same step of every segment.  The segments start from the
    guess (1/2, 1/2), a rescaled state, so no rescale sum is zero.  Returns
    the rescale sums in order, the states (f, g) after the local steps in
    `stops` and the end state of the last segment.
    """
    import numpy as np

    cols = _columns(bal, True)
    mask = np.empty(cols.shape[1], dtype=np.uint64)
    sums = np.empty((SEGMENT // RESCALE_EVERY, cols.shape[1]))
    keep = {j % SEGMENT for j in stops}
    rows = {}

    def step(k, fg):
        fg = _fg_step(np.negative(cols[k], out=mask, dtype=np.uint64), fg)
        if k % RESCALE_EVERY == RESCALE_EVERY - 1:
            s = sums[k // RESCALE_EVERY] = fg[0] + fg[1]
            fg /= s
        if k in keep:
            rows[k] = fg
        return fg

    first = np.full((2, cols.shape[1]), 0.5)
    first[:, 0] = f, g
    end, _ = _settle(step, first, SEGMENT)
    at = {j: tuple(rows[j % SEGMENT][:, j // SEGMENT].tolist()) for j in stops}
    return sums.T.ravel()[:len(bal) // RESCALE_EVERY].tolist(), at, tuple(end[:, -1].tolist())


def _fg_scan(rng, batches: int, batch_len: int) -> list[float]:
    """The fg mode's batch means, one chunk of draws at a time: by the segment
    scan (_fg_chunk) from SCAN_MIN_STEPS steps in all, by the scalar loop
    (_fg_walk) below.  The rescale logs and the batch ends are taken in the
    scalar loop's order."""
    import numpy as np

    total = batches * batch_len
    advance = _fg_chunk if total >= SCAN_MIN_STEPS else _fg_walk
    means, prev_ln, logscale, f, g = [], 0.0, 0.0, 1.0, 1.0
    for done in range(0, total, FG_SCAN_CHUNK):
        n = min(FG_SCAN_CHUNK, total - done)
        bal = np.empty(n, dtype=bool)
        for lo in range(0, n, SCAN_CHUNK):  # in pieces, which leave the stream unchanged
            bal[lo:lo + SCAN_CHUNK] = rng.integers(0, 2, size=min(SCAN_CHUNK, n - lo))
        if done == 0:
            bal[0] = True  # the first vertex indicator is deterministic
        # the batch ends in this chunk, as the local steps they follow
        stops = range(done // batch_len * batch_len + batch_len - done - 1, n, batch_len)
        sums, at, (f, g) = advance(f, g, bal, stops)
        logs, m = list(map(math.log, sums)), 0
        for j in stops:
            # the rescales at local steps up to j, summed one at a time
            logscale = reduce(add, logs[m:(j + 1) // RESCALE_EVERY], logscale)
            m = (j + 1) // RESCALE_EVERY
            fj, gj = at[j]
            ln_now = logscale + math.log((fj + gj) / 2.0)
            means.append((ln_now - prev_ln) / batch_len)
            prev_ln = ln_now
        logscale = reduce(add, logs[m:], logscale)
    return means


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
    if not 1 <= batches <= steps:
        raise InvalidInput("need at least one batch and at least as many steps as batches")
    rng = _generator(seed)
    batch_len = steps // batches
    if mode == "recurrence":
        if beta is None:
            raise InvalidInput("recurrence mode needs beta")
        # checked before the float conversion, which overflows past 1e308
        if beta < 0 or 4 * beta > 1:
            raise DiscriminantNegative("recurrence mode needs 0 <= beta <= 1/4")
        beta = float(beta)
        batch_means = _recurrence_scan(rng, beta, batches, batch_len)
    elif mode == "fg":
        if beta is not None:
            raise InvalidInput("fg mode takes no beta")
        batch_means = _fg_scan(rng, batches, batch_len)
    else:
        raise InvalidInput("mode must be 'recurrence' or 'fg'")
    lam = statistics.fmean(batch_means)
    lo, hi = _batch_ci(batch_means, lam)
    return LyapunovEstimate(mode, beta, steps, seed, lam, lo, hi, tuple(batch_means))
