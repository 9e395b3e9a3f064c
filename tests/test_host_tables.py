"""The exhaustive host tables: built once per process, read-only, and
invisible in every report."""

from itertools import product

import pytest

from test_cli import GOLDEN_FILES
from toursid import tournament, trees
from toursid.core import parse_digraph_text, path_digraph
from toursid.search import MODE_TAS, MODE_TS, refute
from toursid.tournament import ENUMERATION_CAP, half_loop_stack, tournament_stack
from toursid.trees import _injective_maps, amgm_check, strong_tas_check

GOLDEN_DIGRAPHS = [parse_digraph_text(text) for text in GOLDEN_FILES.values()
                   if text.startswith("digraph")]
PATHS = [path_digraph("".join(dirs)) for e in range(1, 6) for dirs in product("<>", repeat=e)]


def _clear():
    tournament._stack.cache_clear()
    tournament.half_loop_stack.cache_clear()
    trees._injective_maps.cache_clear()


def test_tables_are_shared_and_read_only():
    for table, again in ((tournament_stack(4), tournament_stack(4)),
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
    assert sum(half_loop_stack(n).nbytes for n in range(1, ENUMERATION_CAP + 1)) == total


def _reports(d):
    return (refute(d, MODE_TAS, n_max=5), refute(d, MODE_TS, n_max=5),
            strong_tas_check(d, (), n_max=5), strong_tas_check(d, (0,), n_max=5),
            amgm_check(d, 0, n_max=5))


@pytest.mark.parametrize("patterns", [GOLDEN_DIGRAPHS, PATHS], ids=["golden", "paths"])
def test_reports_do_not_depend_on_the_cache(patterns):
    for d in patterns:
        _clear()
        cold = _reports(d)
        built = tournament._stack.cache_info()
        assert _reports(d) == cold, d
        warm = tournament._stack.cache_info()
        assert warm.misses == built.misses and warm.hits > built.hits
