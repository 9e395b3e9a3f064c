from itertools import product

import pytest

from toursid.classify import Verdict, classify_cycle, classify_path
from toursid.core import Orientation, alternating_cycle
from toursid.errors import PreconditionViolated

D1 = ">>>>><><>"
D2 = ">><>><>"


def test_d1_neither():
    res = classify_path(D1)
    assert res.verdict is Verdict.NEITHER
    assert res.rule == "P5-2P3:case(iii)"


def test_wedge_ts():
    res = classify_path("><")
    assert res.verdict is Verdict.LTS
    assert res.rule == "wedges:C(P3)<0"


def test_wedge_ltas():
    res = classify_path(">>>>>")
    assert res.verdict is Verdict.LTAS
    assert res.rule == "wedges:C(P3)>0"


def test_single_edge_impartial():
    assert classify_path(">").verdict is Verdict.IMPARTIAL


def test_d2_precondition():
    with pytest.raises(PreconditionViolated):
        classify_path(D2)


def test_d2_best_effort_uses_wedge():
    # the computed counts are (-2, -2, 2): the wedge rule fires
    res = classify_path(D2, best_effort=True)
    assert res.verdict is Verdict.LTS
    assert res.rule == "wedges:C(P3)<0"
    assert not res.preconditions_met


def test_best_effort_degenerate_unknown():
    # (0, 0, 0) triple: nothing fires
    res = classify_path(">><>><<", best_effort=True)
    assert res.verdict is Verdict.UNKNOWN
    assert res.rule == "unknown:all-zero"


def test_best_effort_2p3_branch():
    # (0, 0, -6), no admissible higher window: the 2P3 rule decides
    res = classify_path(">>>><><", best_effort=True)
    assert res.verdict is Verdict.LTAS
    assert res.rule == "2P3:case(ii)"


def test_corollary_neither_family():
    for k in (5, 7):
        text = ">" * k + "<>" * ((k - 1) // 2)
        o = Orientation(tuple(1 if c == ">" else -1 for c in text))
        assert o.e == 2 * k - 1
        res = classify_path(o)
        assert res.verdict is Verdict.NEITHER, text


def test_json_contract():
    d = classify_path(D1).to_json_dict()
    assert d["verdict"] == "Neither"
    assert d["counts"]["c_2p3"] == -11
    assert d["v"] == 10 and d["e"] == 9
    assert "flips" not in d


def test_reversal_symmetry_exhaustive():
    for e in range(2, 11):
        for dirs in product((1, -1), repeat=e):
            o = Orientation(dirs)
            try:
                a = classify_path(o)
            except PreconditionViolated:
                with pytest.raises(PreconditionViolated):
                    classify_path(o.flipped())
                continue
            assert classify_path(o.flipped()).verdict is a.verdict
            assert classify_path(o.reversed_path()).verdict is a.verdict


def test_internal_assertion_never_fires_small():
    # v = 2 mod 4: the cascade must always resolve
    for v in (6, 10, 14):
        e = v - 1
        if e > 11:
            continue
        for dirs in product((1, -1), repeat=e):
            res = classify_path(Orientation(dirs))
            assert res.verdict in (Verdict.LTS, Verdict.LTAS, Verdict.NEITHER)


def test_localwalk_split_exhaustive():
    # odd window count: exactly half LTS, half LTAS
    for e in (2, 4, 6, 8, 10, 12):
        lts = ltas = 0
        for dirs in product((1, -1), repeat=e):
            res = classify_path(Orientation(dirs))
            lts += res.verdict is Verdict.LTS
            ltas += res.verdict is Verdict.LTAS
        assert lts == ltas == 2 ** (e - 1)


def test_cycle_c5_ltas():
    res = classify_cycle(">>>>>")
    assert res.verdict is Verdict.LTAS
    assert res.rule == "wedges-cycle:case(ii)"
    assert res.counts.c_p3 == 5


def test_cycle_c7_ltas():
    assert classify_cycle(">>>>>>>").verdict is Verdict.LTAS


def test_cycle_subdivided_alternating_neither():
    c = alternating_cycle(6).subdivided(3)
    assert (c.length, c.flips) == (18, 9)
    res = classify_cycle(c)
    assert res.verdict is Verdict.NEITHER
    assert res.rule == "wedges-cycle:cycle-parity"


def test_cycle_alternating_c6_not_ltas():
    res = classify_cycle(alternating_cycle(6))
    assert res.verdict is not Verdict.LTAS
    assert res.verdict is Verdict.LTS  # c_p3 = -6 < 0, length 2 mod 4, 3 flips odd


def test_cycle_precondition():
    with pytest.raises(PreconditionViolated):
        classify_cycle("><><")
    res = classify_cycle("><><", best_effort=True)
    assert res.verdict is Verdict.LTS  # c_p3 = -4 < 0, length 0 mod 4, 2 flips even


def test_cycle_flips_in_json():
    d = classify_cycle(">>>>>").to_json_dict()
    assert d["flips"] == 0


def test_cycle_reversal_symmetry():
    # flipping all arcs preserves every even window sign, and for even length
    # the flip-count parity as well, so the verdict is unchanged
    for ell in (5, 6, 7):
        for dirs in product((1, -1), repeat=ell):
            o = Orientation(dirs)
            assert classify_cycle(o).verdict is classify_cycle(o.flipped()).verdict


def test_subdivided_alternating_not_ltas_family():
    # every k >= 2 subdivision of an alternating cycle fails the LTAS gate
    for two_ell in (4, 6):
        for k in (2, 3, 4):
            c = alternating_cycle(two_ell).subdivided(k)
            res = classify_cycle(c, best_effort=True)
            assert res.verdict is not Verdict.LTAS, (two_ell, k)


def test_rules_reached_and_2p3_case_i_is_absent():
    # every path with 1..12 edges and every cycle of length 3..12 up to
    # rotation (796 cycles): the rules reached, with the 2P3 case(i) rules
    # pinned as absent, since C(P3) = C(P5) = 0 forces C(2P3) <= 0 (see
    # classify._tail_direction)
    import toursid.classify as classify

    paths, cycles = set(), set()
    seen = 0
    for ell in range(1, 13):
        for dirs in product((1, -1), repeat=ell):
            res = classify_path(Orientation(dirs), best_effort=True)
            paths.add(res.rule)
            c = res.counts
            assert not (c.c_p3 == 0 and c.c_p5 == 0 and c.c_2p3 > 0)
            if ell < 3 or dirs != min(dirs[i:] + dirs[:i] for i in range(ell)):
                continue
            seen += 1
            res = classify_cycle(Orientation(dirs), best_effort=True)
            cycles.add(res.rule)
            c = res.counts
            assert not (c.c_p3 == 0 and c.c_p5 == 0 and c.c_2p3 > 0)
    assert seen == 796
    assert paths == {
        "impartial:single-edge", "wedges:C(P3)>0", "wedges:C(P3)<0", "P5-2P3:case(i)",
        "P5-2P3:case(ii)", "P5-2P3:case(iii)", "2P3:case(ii)", "2P3:case(iii)",
        "unknown:P5=-2P3", "unknown:all-zero",
    }
    assert cycles == {
        "wedges-cycle:case(i)", "wedges-cycle:case(ii)", "wedges-cycle:cycle-parity",
        "P5-2P3-cycle:case(i)", "P5-2P3-cycle:case(ii)", "P5-2P3-cycle:case(iii)",
        "P5-2P3-cycle:cycle-parity", "2P3-cycle:case(ii)", "2P3-cycle:case(iii)",
        "2P3-cycle:cycle-parity", "unknown:all-zero",
    }
    # the vocabulary lists the 2P3 rules without case(i)
    assert "2P3:case(ii|iii)," in classify.__doc__
    assert "2P3-cycle:case(ii|iii)," in classify.__doc__


@pytest.mark.parametrize("fn,text,message", [
    (classify_path, ">>>", "v = 4 is divisible by 4; rerun with best_effort for an "
                           "Unknown-capable pass"),
    (classify_cycle, "><><", "cycle length 4 is divisible by 4; rerun with best_effort"),
])
def test_precondition_messages(fn, text, message):
    with pytest.raises(PreconditionViolated) as exc:
        fn(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind,text,counts,message", [
    ("path", ">>>>>", (0, 1, -1),
     "C(P5) = -C(2P3) with v = 2 (mod 4); contradicts the parity lemma"),
    ("cycle", ">>>>>>", (0, 1, -1),
     "C(P5) = -C(2P3) with length = 2 (mod 4); contradicts the parity lemma"),
    ("cycle", ">>>>>", (0, 1, 0), "C(P3) = 0 on an odd cycle; contradicts the parity lemma"),
])
def test_parity_lemma_asserts(kind, text, counts, message, monkeypatch):
    # no orientation reaches these asserts, so feed the cascade impossible counts
    from toursid import classify
    from toursid.errors import InternalAssertionFailed
    from toursid.signed import SignedCounts

    monkeypatch.setattr(classify, f"{kind}_counts", lambda _: SignedCounts(*counts))
    with pytest.raises(InternalAssertionFailed) as exc:
        getattr(classify, f"classify_{kind}")(text)
    assert str(exc.value) == message
