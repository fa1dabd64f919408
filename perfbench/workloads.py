"""The four hbcells benchmark workloads.

A workload turns a seed into one *pass*: a fixed list of items.  Running an
item calls the library the way a batch user would and checks every output
against an independent oracle; a failed check is returned, never raised, so
one bad item cannot abort a run.  Each workload loads a different layer:

- ``chart_roundtrip``: groebner and the hilbert_burch inverse map (QQ).
- ``generic_elim``: generic_cells and Polynomial.substitute.
- ``betti_strata``: betti, linalg and minors_ideal; no Buchberger at all.
- ``census_gf``: tiny is_groebner_basis calls over GF(2), GF(3), GF(4), GF(5).

The library is reached only through the ``lib`` namespace handed in by the
runner, so the runner can re-import it and wrap its calls in spans.

Every workload's inputs are fixed (the random matrices and parameter points
are drawn from ``INPUT_SEED``); the run's seed only shuffles the order of the
items.  So every seed has the same recorded output digest.  ``unit`` names
what ``items_per_s`` counts, and each item's ``weight`` is its share of that.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# The seed of the random inputs of chart_roundtrip and betti_strata.
INPUT_SEED = 0

# The public calls the driver makes, grouped by the module that owns them.
# Every name here becomes an attribute of ``lib`` and, in a traced run, a
# span named ``<module>.<function>``.
CALLS = {
    "staircase": ("enumerate_staircases", "staircase_from_monomial_ideal"),
    "hilbert_burch": ("random_cell_matrix", "cell_matrix_from_parameters",
                      "minors_ideal", "canonical_matrix", "cell_kinds_of_ideal",
                      "validate_cell_matrix", "slot_set", "cell_dimension"),
    "groebner": ("buchberger_reduced", "leading_term_ideal", "graded_beta0_profile"),
    "betti": ("betti_numbers", "resolution_degrees", "graded_matrix",
              "stratum_descriptor"),
    "generic_cells": ("generic_family", "buchberger_equations", "eliminate_linear",
                      "affine_space_check"),
    "census": ("brute_force_ideal_count", "cell_census"),
    "poly": ("monomials_of_degree",),
}


def shuffled(items, seed):
    """The items in the order the run's seed gives them."""
    random.Random(seed).shuffle(items)
    return items


class Item:
    """One unit of work: ``key`` names its input canonically for the digest.

    An item makes ``calls`` identical calls back to back; its time is taken
    per call, and ``weight`` counts one call's share of ``items_per_s``.
    """

    __slots__ = ("key", "kind", "payload", "weight", "calls")

    def __init__(self, key, kind, payload, weight=1, calls=1):
        self.key = key
        self.kind = kind
        self.payload = payload
        self.weight = weight
        self.calls = calls


def coeff_bits(c):
    """Bit size of an exact rational coefficient (0 for finite-field values)."""
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return 0


def _poly_bits(polys):
    return max((coeff_bits(c) for p in polys for _, c in p.terms), default=0)


# ---------------------------------------------------------------------------
# chart_roundtrip: criterion 02 (matrix -> ideal -> matrix over QQ)

class ChartRoundtrip:
    name = "chart_roundtrip"
    why = ("minors, Buchberger oracle and the canonical-matrix inverse map over QQ: "
           "groebner and hilbert_burch with Fraction growth")
    max_colength = 9
    draws = 3
    unit = "items"

    def setup(self, lib, seed):
        items = []
        counter = itertools.count(INPUT_SEED)
        for d in range(1, self.max_colength + 1):
            for E in lib.enumerate_staircases(d):
                for kind in lib.CellKind:
                    for r in range(self.draws):
                        N = lib.random_cell_matrix(E, kind, next(counter))
                        items.append(Item([list(E.m), kind.name, r], "chart", (E, N)))
        return shuffled(items, seed)

    def run_item(self, lib, item):
        E, N = item.payload
        failed = []
        fs = lib.minors_ideal(N)
        gb = lib.buchberger_reduced(fs)
        if lib.staircase_from_monomial_ideal(lib.leading_term_ideal(gb)) != E:
            failed.append("hilbert_burch")
        chart = lib.canonical_matrix(fs)
        if chart != (E, N):
            failed.append("hilbert_burch")
        kinds = lib.cell_kinds_of_ideal(fs)
        membership = {k for k in lib.CellKind if lib.validate_cell_matrix(N, k)[0]}
        if kinds != membership:
            failed.append("hilbert_burch")
        out = {"N": chart[1].to_json(),
               "kinds": sorted(k.name for k in kinds)}
        return out, failed


# ---------------------------------------------------------------------------
# generic_elim: criteria 09 and 10 (generic-cell equations, linear elimination)

class GenericElim:
    name = "generic_elim"
    why = ("generic-cell equations and linear elimination for 2-variable staircases "
           "and 3-variable degree-3 ideals: generic_cells and substitute")
    max_colength = 7
    max_gens_3var = 3
    unit = "items"

    def setup(self, lib, seed):
        items = []
        for d in range(1, self.max_colength + 1):
            for E in lib.enumerate_staircases(d):
                gens = E.generators(minimal=True)
                for graded in (True, False):
                    items.append(Item([2, gens, graded], "generic2", (gens, 2, graded, E)))
        monos = lib.monomials_of_degree(3, 3)
        for size in range(1, self.max_gens_3var + 1):
            for gens in itertools.combinations(monos, size):
                gens = list(gens)
                items.append(Item([3, gens, True], "generic3", (gens, 3, True, None)))
        return shuffled(items, seed)

    def run_item(self, lib, item):
        gens, nvars, graded, E = item.payload
        failed = []
        family = lib.generic_family(gens, nvars, graded)
        eqs = lib.buchberger_equations(family)
        report = lib.eliminate_linear(eqs, family.nparams, family.names)
        if not lib.affine_space_check(report):
            failed.append("generic_cells")
        if E is not None:
            kind = lib.CellKind.V3 if graded else lib.CellKind.V0
            if len(report.survivors) != lib.cell_dimension(E, kind):
                failed.append("generic_cells")
        return report.to_json(with_log=True), failed


# ---------------------------------------------------------------------------
# betti_strata: criterion 05 plus the determinantal strata of criterion 04

class BettiStrata:
    name = "betti_strata"
    why = ("rank formula for graded Betti numbers against the linear-algebra oracle, "
           "and strata membership: betti, linalg and minors_ideal, no Buchberger")
    max_colength = 11
    draws = 12
    unit = "items"

    def setup(self, lib, seed):
        rng = random.Random(INPUT_SEED)
        items = []
        for d in range(1, self.max_colength + 1):
            for E in lib.enumerate_staircases(d):
                slots = lib.slot_set(E)
                for r in range(self.draws):
                    p = {s: rng.randint(-3, 3) for s in slots}
                    N = lib.cell_matrix_from_parameters(E, p)
                    if r == 0:
                        first = (p, N)
                    items.append(Item([list(E.m), "betti", r], "betti", (E, p, N)))
                items.append(Item([list(E.m), "strata", 0], "strata", (E,) + first))
        return shuffled(items, seed)

    def run_item(self, lib, item):
        if item.kind == "strata":
            return self._strata(lib, *item.payload)
        E, p, N = item.payload
        fs = lib.minors_ideal(N)
        table = lib.betti_numbers(E, p)
        formula = {j: b0 for j, (b0, _) in table.items() if b0}
        failed = [] if lib.graded_beta0_profile(fs) == formula else ["betti"]
        return table.to_json(), failed

    def _strata(self, lib, E, p, N):
        """Every stratum descriptor of E, checked at the point p.

        The conditions of (j, u) vanish at p exactly when the ideal of p has
        at least u minimal generators of degree j, which the generator-count
        oracle measures without any Betti formula.
        """
        profile = lib.graded_beta0_profile(lib.minors_ideal(N))
        values = [p[s] for s in lib.slot_set(E)]
        failed = []
        out = []
        for j in lib.resolution_degrees(E).degrees():
            top = len(lib.graded_matrix(E, j).star_rows)
            for u in range(top + 2):
                sd = lib.stratum_descriptor(E, j, u)
                inside = all(c.evaluate(values) == 0 for c in sd.conditions)
                if inside != (profile.get(j, 0) >= u):
                    failed.append("betti")
                out.append(sd.to_json())
        return out, failed[:1]


# ---------------------------------------------------------------------------
# census_gf: criterion 03 (exhaustive ideal counts over small finite fields)

class CensusGF:
    name = "census_gf"
    why = ("exhaustive colength-d ideal counts over GF(2), GF(3), GF(4), GF(5) against "
           "the cell census: many tiny is_groebner_basis calls on finite-field scalars")
    # (d, q, calls per item).  The cases of the census tests plus GF(5).
    # The largest, d = 3 over GF(3) (0.6 s) and GF(4) (9 s), are left out: a
    # run would hold only a few dozen of such calls, too few for a median
    # that repeats from run to run on a host whose speed drifts within a
    # second.  Seven call types put the median inside one type rather than
    # between two.  A call of under 10 ms is repeated within its item, so
    # that its per-call time is a mean over at least 10 ms of work.
    cases = ((1, 2, 64), (1, 3, 32), (2, 2, 16), (2, 3, 4), (2, 4, 2), (2, 5, 1),
             (3, 2, 1))
    unit = "points"

    def setup(self, lib, seed):
        items = []
        censuses = {d: lib.cell_census(d) for d in sorted({d for d, _, _ in self.cases})}
        for d, q, calls in self.cases:
            sizes = [lib.generic_family(E.generators(minimal=True), 2, False).nparams
                     for E in lib.enumerate_staircases(d)]
            points = sum(q ** n for n in sizes)
            items.append(Item([d, q], "census", (d, q, censuses[d].evaluate(q)), points,
                              calls))
        return shuffled(items, seed)

    def run_item(self, lib, item):
        d, q, expected = item.payload
        counts = [lib.brute_force_ideal_count(d, q) for _ in range(item.calls)]
        failed = [] if counts == [expected] * item.calls else ["census"]
        return {"d": d, "q": q, "count": counts[0]}, failed


# Counts taken from a call's arguments and result in a traced run, keyed by
# span name: (count names, function).  Names ending in ``_max`` aggregate by
# maximum, the rest by sum.
MEASURES = {
    "hilbert_burch.minors_ideal": (
        ("terms_out",),
        lambda args, fs, item: {"terms_out": sum(len(f.terms) for f in fs)}),
    "hilbert_burch.canonical_matrix": (
        ("coeff_bits_max",),
        lambda args, chart, item: {"coeff_bits_max": max(
            (coeff_bits(c) for row in chart[1].entries for e in row for c in e.coeffs),
            default=0)}),
    "groebner.buchberger_reduced": (
        ("terms_out",),
        lambda args, gb, item: {"terms_out": sum(len(g.terms) for g in gb)}),
    "generic_cells.buchberger_equations": (
        ("equations_out",),
        lambda args, eqs, item: {"equations_out": len(eqs)}),
    "generic_cells.eliminate_linear": (
        ("params_in", "eliminated", "residual", "coeff_bits_max"),
        lambda args, rep, item: {
            "params_in": args[1],
            "eliminated": len(rep.eliminated),
            "residual": len(rep.residual),
            "coeff_bits_max": max(_poly_bits(e for _, e in rep.eliminated),
                                  _poly_bits(rep.residual))}),
    "census.brute_force_ideal_count": (
        ("points", "accepted"),
        lambda args, count, item: {"points": item.weight, "accepted": count}),
}


WORKLOADS = {w.name: w for w in (ChartRoundtrip(), GenericElim(), BettiStrata(), CensusGF())}
