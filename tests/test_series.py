"""Tests for the series module: lower central, derived, upper central, Fitting."""

import pytest

from coprime_lab.groups import center, group_from_generators
from coprime_lab.instances import build_setup, preset_entries
from coprime_lab.perms import Perm
from coprime_lab.series import (
    derived_series,
    derived_term,
    fitting_subgroup,
    is_nilpotent,
    lcs_term,
    lower_central_series,
    nilpotency_class,
    upper_central_series,
)

from bruteforce import (
    brute_derived_series,
    brute_fitting_subgroup,
    brute_lower_central_series,
    brute_nilpotency_class,
    brute_upper_central_series,
)


def heisenberg27():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(9, (0, 1, 2), (3, 5, 4))
    return group_from_generators(9, [t, v])


def wreath81():
    t = Perm.from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    u0 = Perm.from_cycles(9, (0, 1, 2))
    return group_from_generators(9, [t, u0])


def frobenius21():
    r = Perm.from_cycles(7, tuple(range(7)))
    s = Perm([(2 * i) % 7 for i in range(7)])
    return group_from_generators(7, [r, s])


def abelian_c3c3():
    return group_from_generators(6, [Perm.from_cycles(6, (0, 1, 2)), Perm.from_cycles(6, (3, 4, 5))])


def test_lcs_abelian():
    res = lower_central_series(abelian_c3c3())
    assert res.class_or_length == 1
    assert res.terms[-1].is_trivial


def test_lcs_heisenberg_class_two():
    G = heisenberg27()
    res = lower_central_series(G)
    assert res.class_or_length == 2
    assert [t.order for t in res.terms] == [27, 3, 1]
    brute = brute_lower_central_series(G.elements())
    assert [len(t) for t in brute] == [27, 3, 1]


def test_lcs_wreath_class_three():
    # Sylow 3-subgroup of S9: C3 wr C3, order 81, class 3
    G = wreath81()
    res = lower_central_series(G)
    assert res.class_or_length == 3
    assert [t.order for t in res.terms] == [81, 9, 3, 1]
    assert [len(t) for t in brute_lower_central_series(G.elements())] == [81, 9, 3, 1]


def test_derived_series_values():
    assert derived_series(abelian_c3c3()).class_or_length == 1
    G = heisenberg27()
    res = derived_series(G)
    assert res.class_or_length == 2
    assert [t.order for t in res.terms] == [27, 3, 1]
    W = wreath81()
    resw = derived_series(W)
    assert resw.class_or_length == 2
    assert [len(t) for t in brute_derived_series(W.elements())] == [t.order for t in resw.terms]


def test_gamma2_equals_first_derived():
    for G in (heisenberg27(), wreath81(), frobenius21()):
        assert lcs_term(G, 2).same_subgroup(derived_term(G, 1))


def test_upper_central_series():
    G = heisenberg27()
    res = upper_central_series(G)
    assert [t.order for t in res.terms] == [1, 3, 27]
    assert res.class_or_length == 2

    F = frobenius21()
    resf = upper_central_series(F)
    assert resf.class_or_length is None
    assert resf.terms[-1].is_trivial  # centerless


def test_nilpotency_class_agreement():
    for G in (abelian_c3c3(), heisenberg27(), wreath81()):
        c = nilpotency_class(G)
        assert c == upper_central_series(G).class_or_length
        assert c == brute_nilpotency_class(G.elements())
    assert nilpotency_class(frobenius21()) is None
    assert not is_nilpotent(frobenius21())


def test_series_terms_normal_and_monotone():
    G = wreath81()
    res = lower_central_series(G)
    for a, b in zip(res.terms, res.terms[1:]):
        assert b.is_subgroup_of(a)
        assert b.order < a.order
        assert b.is_normal_in(G)


def test_fitting_subgroup():
    F = frobenius21()
    fit = fitting_subgroup(F)
    assert fit.order == 7  # the normal Sylow 7-subgroup
    G = heisenberg27()
    assert fitting_subgroup(G).same_subgroup(G)
    # direct product of Heisenberg-27 and C5 is nilpotent
    t = Perm.from_cycles(14, (0, 3, 6), (1, 4, 7), (2, 5, 8))
    v = Perm.from_cycles(14, (0, 1, 2), (3, 5, 4))
    c5 = Perm.from_cycles(14, (9, 10, 11, 12, 13))
    P = group_from_generators(14, [t, v, c5])
    assert P.order == 135
    assert fitting_subgroup(P).same_subgroup(P)


ORACLE_INSTANCES = (
    ("smoke", "smoke-01-gl-q3n3"),
    ("smoke", "smoke-02-heis-diag-c5"),
    ("smoke", "smoke-03-c3-c5-c7"),
    ("p2k3", "p2k3-06-c3swap-heis-c5"),
    ("p2k4", "p2k4-07-frob21-c5-c11"),
    ("p3k3", "p3k3-07-c7-c7-c13"),
    ("p3k3", "p3k3-08-c7-mixed"),
)


@pytest.mark.parametrize("preset,instance_id", ORACLE_INSTANCES)
def test_upper_central_series_center_and_fitting_match_brute(preset, instance_id):
    G = build_setup(dict(preset_entries(preset))[instance_id]).G
    elements = G.elements()
    expected = brute_upper_central_series(elements)
    terms = upper_central_series(G).terms
    assert [t.elements() for t in terms] == expected
    assert center(G).elements() == (expected[1] if len(expected) > 1 else expected[0])
    assert fitting_subgroup(G).elements() == brute_fitting_subgroup(elements)
