"""Point-count validation of the cell dimension formulas.

Summing q^dim over the cells of a fixed colength must give the number of
all colength-d ideals of F_q[x,y].  The independent count enumerates, for
every staircase, all parameter points of the generic (ungraded) family
over F_q and keeps those passing Buchberger's criterion verbatim: each
ideal has a unique reduced Groebner basis, so each is counted exactly
once and no dimension formula enters the oracle side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainError
from .field import GF
from .groebner import is_groebner_basis
from .generic_cells import generic_family, instantiate
from .hilbert_burch import CellKind, cell_dimension
from .staircase import enumerate_staircases


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CellCensus:
    """Per-staircase cell dimensions and the q-polynomial total."""

    d: int
    records: tuple
    total: dict

    def evaluate(self, q):
        """The predicted number of colength-d ideals over F_q."""
        return sum(c * q**e for e, c in self.total.items())

    def total_string(self):
        parts = []
        for e in sorted(self.total, reverse=True):
            c = self.total[e]
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}q^{e}" if e != 1 else f"{head}q")
        return " + ".join(parts)

    def to_json(self):
        return {
            "d": self.d,
            "cells": [{"m": list(E.m),
                       "dims": {str(k): v for k, v in sorted(dims.items(), key=lambda kv: kv[0].value)}}
                      for E, dims in self.records],
            "total": self.total_string(),
        }


def cell_census(d):
    """The dimensions of the four cells of every staircase of colength d."""
    records = []
    total = {}
    for E in enumerate_staircases(d):
        dims = {kind: cell_dimension(E, kind) for kind in CellKind}
        records.append((E, dims))
        e = dims[CellKind.V0]
        total[e] = total.get(e, 0) + 1
    return CellCensus(d, tuple(records), total)


def brute_force_ideal_count(d, q):
    """Count every ideal of colength d in F_q[x,y] by exhaustive Buchberger.

    Kept to d <= 3: the parameter spaces grow as q^N with N up to 8 already
    at colength 3.
    """
    if d < 1:
        raise ValueError("colength must be at least 1")
    if d > 3:
        raise DomainError(
            f"brute-force counting is limited to colength <= 3 (got {d}): "
            "the enumeration grows like q^N with N the full parameter count")
    field = GF(q)
    elems = field.elements()
    count = 0
    for E in enumerate_staircases(d):
        family = generic_family(E.generators(minimal=True), 2, graded=False)
        for values in itertools.product(elems, repeat=family.nparams):
            if is_groebner_basis(instantiate(family, values, field)):
                count += 1
    return count
