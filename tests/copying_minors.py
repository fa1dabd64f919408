"""The signed minors by a Hessenberg recurrence: the reference of the solved ones.

``hbcells.hilbert_burch.minors_ideal`` solves the column relations of
M0(E) + N for f_(k-1), k = t..1, and carries an empty column as a shift of
a shared dict.  This is a different algorithm: it expands the minor that
deletes row i+1 as P_i D[i], the diagonal entries above it times a
Hessenberg determinant below it, and builds a new dict for every column;
the tests compare the two term for term and type for type.
"""

from hbcells.poly import Polynomial, _add_into, _convolve, _integral


def minors_ideal(N):
    """Signed maximal minors f_0..f_t of M0(E) + N, every D[i] a dict of its own.

    f_i = (-1)^(t-i) P_i D[i]; each D[i] is built from D[i+1] and the D[r]
    below it, an empty column included, where it is -x D[i+1] copied power
    by power, and each f_i re-reads its dense lists.
    """
    E, field = N.E, N.field
    t = E.t
    d = E.d
    zero, one = field.zero, field.one
    unit = [one]

    # h[c] = y^(d_c) + n_cc as a list, or None for the monomial y^(d_c);
    # below[c]: the (row, coefficients) of the nonzeros under n_cc, rows rising
    h = [None] * (t + 1)
    below = {}
    for (r, c), n in N.nonzeros:
        if r == c:
            h[c] = list(n.coeffs) + [zero] * (d[c - 1] - len(n.coeffs)) + [one]
        else:
            below.setdefault(c, []).append((r, n.coeffs))

    # D[i] = det of rows i+2..t+1, cols i+1..t
    D = [None] * (t + 1)
    D[t] = {0: unit}
    for i in range(t - 1, -1, -1):
        col = below.get(i + 1, ())
        nxt = D[i + 1]
        # a = 1: the entry n_(i+2,i+1) - x times D[i+1]
        sub = col[0][1] if col and col[0][0] == i + 2 else None
        acc = {k: _convolve(p, sub, zero) for k, p in nxt.items()} if sub else {}
        for k, p in nxt.items():
            _add_into(acc.setdefault(k + 1, []), p, True, zero)
        # a >= 2: n_(i+1+a,i+1) h_(i+2)...h_(i+a) D[i+a], alternating in sign;
        # y^s core = h_(i+2)...h_c
        s, core, c = 0, unit, i + 1
        for row, n in col[1:] if sub else col:
            r = row - 1
            while c < r:
                c += 1
                if h[c] is None:
                    s += d[c - 1]
                else:
                    core = _convolve(core, h[c], zero)
            e = [zero] * s + (list(n) if core is unit else _convolve(n, core, zero))
            for k, p in D[r].items():
                _add_into(acc.setdefault(k, []), _convolve(p, e, zero), (r - i) % 2 == 0, zero)
        D[i] = acc

    fs = []
    s, core = 0, unit  # y^s core = P_i
    for i in range(t + 1):
        if i >= 1:
            if h[i] is None:
                s += d[i - 1]
            else:
                core = _convolve(core, h[i], zero)
        neg = (t - i) % 2 == 1
        Di = D[i]
        terms = []
        for k in sorted(Di, reverse=True):
            p = Di[k] if core is unit else _convolve(Di[k], core, zero)
            # ints where integral, as in Polynomial arithmetic
            terms.extend(((k, j + s), _integral(-p[j] if neg else p[j]))
                         for j in range(len(p) - 1, -1, -1) if p[j])
        fs.append(Polynomial._raw(field, 2, tuple(terms)))
    return fs
