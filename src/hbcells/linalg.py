"""Exact dense linear algebra over the coefficient fields.

Everything here is rank-oriented Gaussian elimination.  Row vectors are
kept as dicts keyed by column labels (any totally ordered hashable), and
elimination uses cross-multiplication instead of division, so integer
input stays integer and any exact field works unchanged.
"""

from __future__ import annotations


def echelon_insert(echelon, row):
    """Reduce ``row`` against an echelon dict (lead -> row) and insert it.

    Returns the new pivot label, or None when the row reduces to zero.
    ``echelon`` maps each pivot label to a row whose largest label is the
    pivot.  Rows are dicts label -> coefficient.  ``row`` is consumed: it
    may become the new pivot row as it is, so pass a dict nobody else holds.
    """
    while row:
        lead = max(row)
        pivot = echelon.get(lead)
        if pivot is None:
            echelon[lead] = row
            return lead
        a = row[lead]
        b = pivot[lead]
        # row := b*row - a*pivot  (kills `lead`, no division)
        new = {}
        for k, v in row.items():
            new[k] = b * v
        for k, v in pivot.items():
            w = new.get(k)
            w = -(a * v) if w is None else w - a * v
            if w:
                new[k] = w
            else:
                new.pop(k, None)
        row = new
    return None

