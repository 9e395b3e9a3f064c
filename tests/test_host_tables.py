"""The exhaustive host tables: built once per process, read-only, and
invisible in every report."""

from itertools import permutations, product

import numpy as np
import pytest

from test_cli import GOLDEN_FILES
from toursid import tournament, trees
from toursid.core import parse_digraph_text, path_digraph
from toursid.search import MODE_TAS, MODE_TS, refute
from toursid.tournament import (
    CLASS_INDICES,
    ENUMERATION_CAP,
    class_stack,
    half_loop_stack,
    tournament_stack,
)
from toursid.trees import _injective_maps, amgm_check, strong_tas_check

GOLDEN_DIGRAPHS = [parse_digraph_text(text) for text in GOLDEN_FILES.values()
                   if text.startswith("digraph")]
PATHS = [path_digraph("".join(dirs)) for e in range(1, 6) for dirs in product("<>", repeat=e)]


def _clear():
    tournament._stack.cache_clear()
    tournament._classes.cache_clear()
    tournament.half_loop_stack.cache_clear()
    trees._injective_maps.cache_clear()


def test_tables_are_shared_and_read_only():
    for table, again in ((tournament_stack(4), tournament_stack(4)),
                         (class_stack(4), class_stack(4)),
                         (half_loop_stack(4), half_loop_stack(4)),
                         (_injective_maps(5, 3), _injective_maps(5, 3))):
        assert table is again
        with pytest.raises(ValueError):
            table[0, 0] = 1
    # a view of a shared table cannot write through to it either
    with pytest.raises(ValueError):
        _injective_maps(5, 3).reshape(5, 12, 3)[0, 0, 0] = 1


def test_cached_stacks_stay_small():
    _clear()
    total = sum(tournament_stack(n).nbytes for n in range(1, ENUMERATION_CAP + 1))
    assert tournament._stack.cache_info().currsize == ENUMERATION_CAP
    assert total <= 1_300_000
    # one host per class: 1 + 4 + 2 * 9 + 4 * 16 + 12 * 25 + 56 * 36 bytes
    classes = sum(class_stack(n).nbytes for n in range(1, ENUMERATION_CAP + 1))
    assert classes == 2403
    assert sum(half_loop_stack(n).nbytes for n in range(1, ENUMERATION_CAP + 1)) == classes


def _reports(d):
    return (refute(d, MODE_TAS, n_max=5), refute(d, MODE_TS, n_max=5),
            strong_tas_check(d, (), n_max=5), strong_tas_check(d, (0,), n_max=5),
            amgm_check(d, 0, n_max=5))


@pytest.mark.parametrize("patterns", [GOLDEN_DIGRAPHS, PATHS], ids=["golden", "paths"])
def test_reports_do_not_depend_on_the_cache(patterns):
    for d in patterns:
        _clear()
        cold = _reports(d)
        built = tournament._classes.cache_info()
        assert _reports(d) == cold, d
        warm = tournament._classes.cache_info()
        assert warm.misses == built.misses and warm.hits > built.hits
        # the scans read the class rows only, never the labeled stack
        assert tournament._stack.cache_info().currsize == 0


def _least_indices(n):
    """The least index in tournament_stack(n) of each host's isomorphism
    class: the minimum over all n! relabellings, one relabelling of the
    whole stack at a time."""
    adj = tournament_stack(n)
    iu, ju = np.triu_indices(n, 1)
    weights = 1 << np.arange(len(iu) - 1, -1, -1, dtype=np.int64)  # the stack's bit rule
    least = np.arange(len(adj), dtype=np.int64)
    for sigma in permutations(range(n)):
        relabelled = adj[:, sigma][:, :, sigma]
        np.minimum(least, relabelled[:, iu, ju].astype(np.int64) @ weights, out=least)
    return least


def test_class_indices_are_the_least_index_of_every_class():
    # regenerates the table: on a mismatch, copy the printed tuples into
    # tournament.CLASS_INDICES
    least = {n: _least_indices(n) for n in range(1, ENUMERATION_CAP + 1)}
    recomputed = {n: tuple(int(x) for x in np.unique(least[n])) for n in least}
    assert recomputed == CLASS_INDICES, "\n".join(
        f"    {n}: {recomputed[n]}," for n in sorted(recomputed))
    # OEIS A000568; sorted and distinct; every labeled host in exactly one class
    assert [len(CLASS_INDICES[n]) for n in range(1, 7)] == [1, 1, 2, 4, 12, 56]
    for n, table in CLASS_INDICES.items():
        assert list(table) == sorted(set(table))
        assert np.isin(least[n], table).all()
        assert (least[n][list(table)] == table).all()
        assert np.array_equal(class_stack(n), tournament_stack(n)[list(table)])
