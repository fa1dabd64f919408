"""Exact dense linear algebra over the coefficient fields.

Everything here is rank-oriented Gaussian elimination.  Row vectors are
kept as dicts keyed by int column labels.  Against an int pivot entry,
elimination cross-multiplies instead of dividing, so integer input stays
integer; against any other exact field element it divides.
"""

from __future__ import annotations

import math


def echelon_insert(echelon, row, lead=None):
    """Reduce ``row`` against an echelon dict (lead -> (row, shift)) and insert it.

    Returns the new pivot label, or None when the row reduces to zero.
    ``echelon`` maps each pivot label to a pair (row, shift): the pivot is
    that row dict with every label raised by ``shift``, and its largest
    label is the pivot label.  So one stored row can serve as many pivots,
    each under its own shift, without a copy.  Rows are dicts int label ->
    coefficient, and ``lead``, when given, is ``max(row)``.  ``row`` is
    reduced in place, ``row := b*row - a*pivot`` where the pivot's lead
    entry b is an int and ``row := row - (a/b)*pivot`` where it is not, and
    becomes the new pivot as it is, with shift 0, so pass a dict nobody else
    holds.  A reduced row of ints is divided by its content, so integer rows
    stay primitive when they are multiplied into further rows; a row holding
    a Fraction is not.
    """
    if lead is None:
        if not row:
            return None
        lead = max(row)
    reduced = False
    while (pivot := echelon.get(lead)) is not None:
        prow, shift = pivot
        a, b = row[lead], prow[lead - shift]
        if type(b) is not int:
            a = a / b
        elif b != 1:
            for k, v in row.items():
                row[k] = b * v
        for k, v in prow.items():
            k += shift
            w = row.get(k)
            w = -(a * v) if w is None else w - a * v
            if w:
                row[k] = w
            else:
                row.pop(k, None)
        if not row:
            return None
        lead, reduced = max(row), True
    if reduced and type(row[lead]) is int and all([type(v) is int for v in row.values()]):
        g = math.gcd(*row.values())
        if g != 1:
            for k, v in row.items():
                row[k] = v // g
    echelon[lead] = (row, 0)
    return lead
