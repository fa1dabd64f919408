"""Staircase combinatorics: bijections, Hilbert functions, lex segments."""

import dataclasses
import random

import pytest

from hbcells import staircase
from hbcells.errors import DomainError
from hbcells.groebner import LEAD_MEMO_LIMIT, MonomialIdeal
from hbcells.staircase import (HSeries, Staircase, enumerate_staircases,
                               lex_segment_from_hseries,
                               staircase_from_monomial_ideal)


def hilbert_function(E):
    """h_j = number of standard monomials of degree j."""
    if E.colength == 0:
        return ()
    counts = {}
    for a in range(E.t):
        for b in range(E.m[E.t - a]):
            counts[a + b] = counts.get(a + b, 0) + 1
    return tuple(counts.get(j, 0) for j in range(max(counts) + 1))


def test_invariants_enforced():
    with pytest.raises(DomainError):
        Staircase((1, 2))
    with pytest.raises(DomainError):
        Staircase((0, 0))
    with pytest.raises(DomainError):
        Staircase((0, 2, 1))
    with pytest.raises(DomainError):
        Staircase((0,))


def test_d_is_stored_and_equality_reads_m_alone():
    E, F = Staircase.from_d((1, 2)), Staircase((0, 1, 3))
    assert E == F and hash(E) == hash(F) and E.d == F.d == (1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        E.d = (1, 2)
    object.__setattr__(E, "d", ())
    assert E == F and hash(E) == hash(F)


def test_non_integer_entries_rejected():
    for m in ([0, 1.5], [0, "1"], [0.0, 1], [0, 2.0]):
        with pytest.raises(TypeError):
            Staircase(m)
    with pytest.raises(TypeError):
        Staircase.from_d([1.5])


def test_from_monomial_ideal_worked_example():
    E = staircase_from_monomial_ideal(MonomialIdeal(2, [(3, 0), (1, 3), (0, 5)]))
    assert E.m == (0, 3, 3, 5) and E.d == (3, 0, 2)


def test_from_monomial_ideal_small():
    assert staircase_from_monomial_ideal(MonomialIdeal(2, [(1, 0), (0, 1)])).m == (0, 1)
    E = staircase_from_monomial_ideal(MonomialIdeal(2, [(2, 0), (0, 1)]))
    assert E.m == (0, 1, 1) and E.d == (1, 0)


def test_from_monomial_ideal_errors():
    for gens in ([(2, 0)], [(0, 3)], [(1, 1)], [(2, 0), (1, 1)]):
        with pytest.raises(DomainError, match="infinite colength"):
            staircase_from_monomial_ideal(MonomialIdeal(2, gens))
    for gens in ([(0, 0)], [(0, 0), (1, 0)]):
        with pytest.raises(DomainError, match="unit ideal"):
            staircase_from_monomial_ideal(MonomialIdeal(2, gens))
    with pytest.raises(ValueError):
        staircase_from_monomial_ideal(MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_staircase_of_a_lead_list_is_memoized():
    leads = [(3, 0), (2, 3), (1, 3), (0, 5), (4, 0), (1, 4)]  # not minimal
    E = staircase._staircase_from_leads(leads)
    assert E == Staircase((0, 3, 3, 5))
    assert staircase._staircase_from_leads(tuple(leads)) is E


def test_a_pure_power_over_the_budget_is_refused_before_the_staircase_is_built(monkeypatch):
    built = []
    inner = staircase._staircase_of_leads
    monkeypatch.setattr(staircase, "_staircase_of_leads",
                        lambda gens: built.append(gens) or inner(gens))
    monkeypatch.setattr(staircase, "STAIRCASE_T_LIMIT", 5)
    assert staircase._staircase_from_leads([(5, 0), (0, 1)]) == Staircase((0,) + (1,) * 5)
    with pytest.raises(DomainError, match="x\\^6: a staircase of 6 steps is over the budget of 5"):
        staircase._staircase_from_leads([(7, 0), (6, 0), (0, 1)])
    assert built == [((5, 0), (0, 1))]


def test_generators_full_and_minimal():
    E = Staircase((0, 3, 3, 5))
    assert E.generators() == [(3, 0), (2, 3), (1, 3), (0, 5)]
    assert E.generators(minimal=True) == [(3, 0), (1, 3), (0, 5)]
    assert Staircase((0, 1)).generators() == [(1, 0), (0, 1)]
    E = Staircase((0, 1, 3, 4, 4, 5, 7))
    assert E.generators(minimal=True) == [(6, 0), (5, 1), (4, 3), (2, 4), (1, 5), (0, 7)]


def test_round_trip_all_small_staircases():
    for d in range(1, 13):
        for E in enumerate_staircases(d):
            assert staircase_from_monomial_ideal(E.monomial_ideal()) == E
            # from every x^(t-i) y^(m_i) plus multiples of each
            gens = E.generators()
            gens += [(a + 1, b) for a, b in gens] + [(a, b + 2) for a, b in gens]
            assert staircase_from_monomial_ideal(MonomialIdeal(2, gens)) == E


def test_round_trip_random_up_to_colength_30():
    rng = random.Random(2)
    for _ in range(80):
        d = rng.randint(11, 30)
        E = rng.choice(enumerate_staircases(d))
        assert staircase_from_monomial_ideal(E.monomial_ideal()) == E


def test_hilbert_function_examples():
    assert hilbert_function(staircase_from_monomial_ideal(MonomialIdeal(2, [(2, 0), (0, 1)]))) == (1, 1)
    assert hilbert_function(Staircase((0, 1, 2))) == (1, 2)
    assert sum(hilbert_function(Staircase((0, 3, 3, 5)))) == 11


def test_hilbert_function_totals_colength():
    for d in range(1, 13):
        for E in enumerate_staircases(d):
            assert sum(hilbert_function(E)) == d == E.colength


def test_hseries_admissibility():
    HSeries((1,))
    HSeries((1, 2, 2, 1))
    with pytest.raises(DomainError, match="h_0"):
        HSeries((2, 1))
    with pytest.raises(DomainError, match="h_s > 0"):
        HSeries((1, 2, 0))
    with pytest.raises(DomainError, match="c >= h_c"):
        HSeries((1, 4))
    with pytest.raises(DomainError, match="violated"):
        HSeries((1, 2, 1, 2))


def test_hseries_rejects_non_integer_entries():
    # as Staircase does: a float or a string is refused, never truncated
    for h in ((1, 2.5, 1), (1, 2.0, 1), ("1", "2", "1"), (1.0,)):
        with pytest.raises(TypeError):
            HSeries(h)
        with pytest.raises(TypeError):
            lex_segment_from_hseries(h)
    assert HSeries([1, 2, 1]).h == (1, 2, 1)
    assert lex_segment_from_hseries((1, 2, 1)).m == (0, 1, 3)


def test_hseries_derived_data():
    h = HSeries((1, 2, 1))
    assert h.c == 2 and h.s == 2
    assert h.first_difference == (1, 1, -1, -1)
    h = HSeries((1, 2, 3, 2, 1))
    assert h.c == 3
    assert h.first_difference == (1, 1, 1, -1, -1, -1)


def test_lex_segment_examples():
    assert lex_segment_from_hseries(HSeries((1, 2, 1))).m == (0, 1, 3)
    assert lex_segment_from_hseries(HSeries((1, 1))).m == (0, 2)
    assert lex_segment_from_hseries(HSeries((1, 2, 3, 2, 1))).m == (0, 1, 3, 5)


def test_lex_segment_round_trips_hilbert_function():
    # exhaustive over admissible h with small total
    def all_h(total_max):
        out = []
        for c in range(1, total_max + 1):
            prefix = tuple(range(1, c + 1))
            if sum(prefix) > total_max:
                break

            def tails(bound, budget):
                yield ()
                for v in range(min(bound, budget), 0, -1):
                    for rest in tails(v, budget - v):
                        yield (v,) + rest

            out.extend(prefix + tail for tail in tails(c, total_max - sum(prefix)))
        return out

    for h in all_h(12):
        L = lex_segment_from_hseries(HSeries(h))
        assert L.is_lex_segment
        assert hilbert_function(L) == h
        # each graded piece is spanned by the lex-largest monomials
        for j, hj in enumerate(h):
            in_l = [a for a in range(j, -1, -1) if L.contains((a, j - a))]
            assert in_l == list(range(j, hj - 1, -1))


def test_lex_segments_are_exactly_positive_d():
    for d in range(1, 10):
        for E in enumerate_staircases(d):
            assert E.is_lex_segment == all(v > 0 for v in E.d)
            if E.is_lex_segment:
                assert lex_segment_from_hseries(HSeries(hilbert_function(E))) == E


def test_enumerate_counts_are_partition_numbers():
    # independent partition counter by classic recurrence
    def partitions(n):
        table = [1] + [0] * n
        for part in range(1, n + 1):
            for total in range(part, n + 1):
                table[total] += table[total - part]
        return table[n]

    assert [E.m for E in enumerate_staircases(1)] == [(0, 1)]
    assert {E.m for E in enumerate_staircases(2)} == {(0, 2), (0, 1, 1)}
    assert len(enumerate_staircases(5)) == 7
    for d in range(1, 21):
        cells = enumerate_staircases(d)
        assert len(cells) == partitions(d)
        assert len(set(cells)) == len(cells)
        assert cells == sorted(cells)
        assert all(E.colength == d for E in cells)


def test_a_staircase_over_the_memo_limit_is_not_kept():
    # a staircase of t steps holds two tuples of t + 1 ints: a long one is built
    # afresh on each call instead of staying alive in the memo
    t = 100 * LEAD_MEMO_LIMIT
    before = staircase._staircase_of_leads.cache_info().currsize
    E = staircase._staircase_from_leads([(t, 0), (0, 1)])
    assert E == Staircase((0,) + (1,) * t)
    assert staircase._staircase_from_leads([(t, 0), (0, 1)]) is not E
    assert staircase._staircase_of_leads.cache_info().currsize == before
    short = [(LEAD_MEMO_LIMIT, 0), (0, 1)]
    assert staircase._staircase_from_leads(short) is staircase._staircase_from_leads(short)
