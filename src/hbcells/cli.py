"""Batch command line front end: `hb-cells <subcommand> ...`.

Every invocation is deterministic given its arguments.  Exit codes:
0 success, 1 domain error (infinite colength, inadmissible Hilbert
function, ...), 2 usage error (bad flags, malformed input), 141 the
reader closed stdout before the output was written (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import betti as betti_mod
from . import census as census_mod
from . import generic_cells
from . import hilbert_burch as hb
from .errors import DomainError
from .field import GF, QQ, scalar_from_json
from .poly import default_names, parse_ideal
from .staircase import HSeries, Staircase


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _field_arg(text):
    if text == "q":
        return QQ
    if text.startswith("p:"):
        try:
            return GF(int(text[2:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    raise argparse.ArgumentTypeError(f"--field takes 'q' or 'p:<order>', got {text!r}")


def _prime_power(text):
    """A prime power 2 <= q < 2**31; the bound keeps the trial division under 46,341 steps."""
    try:
        q = int(text)
    except ValueError:
        q = 0
    if 2 <= q < 2**31:
        p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)  # least prime factor
        n = q
        while n % p == 0:
            n //= p
        if n == 1:
            return q
    raise argparse.ArgumentTypeError(f"expected a prime power 2 <= q < 2**31, got {text!r}")


def _staircase(args):
    if getattr(args, "m", None) is not None:
        return Staircase(args.m)
    if getattr(args, "d", None) is not None:
        return Staircase.from_d(args.d)
    raise UsageExit("one of --m or --d is required")


class UsageExit(Exception):
    pass


# A printed (t+1) x t matrix has (t+1) t entries, however few are nonzero; more
# are refused before any is formatted.  At t = 1,000 ``canonicalize`` takes at
# most 0.5 s and 94 MB in any format and ``frame`` 1.0 s and 141 MB; at t = 2,000
# ``frame`` takes 3.6 s and 527 MB (2 CPUs, Python 3.11.7).
DENSE_OUTPUT_LIMIT = 1_001_000


def _dense_output_budget(E):
    if (cells := (E.t + 1) * E.t) > DENSE_OUTPUT_LIMIT:
        raise DomainError(f"a {E.t + 1} x {E.t} matrix has {cells} entries to print, over the "
                          f"budget of {DENSE_OUTPUT_LIMIT} (cli.DENSE_OUTPUT_LIMIT)")


def _emit(args, text_fn, json_fn, latex_fn=None):
    """Print the form of ``--format``, built only for it; only a subcommand with a
    ``latex_fn`` offers ``--format latex``."""
    if args.format == "json":
        print(json.dumps(json_fn(), sort_keys=True))
    elif args.format == "latex":
        print(latex_fn())
    else:
        print(text_fn())


def _matrix_lines(rows):
    cells = [list(map(str, row)) for row in rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    return "\n".join("[ " + "  ".join(map(str.rjust, row, widths)) + " ]" for row in cells)


def cmd_frame(args):
    E = _staircase(args)
    _dense_output_budget(E)

    def frame():
        # M0 is 0 off its diagonal and subdiagonal, so only those 2t entries are formatted
        fr = hb.canonical_frame(E)
        M0 = [["0"] * E.t for _ in range(E.t + 1)]
        for j in range(E.t):
            M0[j][j], M0[j + 1][j] = str(fr.M0[j][j]), str(fr.M0[j + 1][j])
        return {"m": list(E.m), "M0": M0, "U": fr.U, "S": fr.S}  # json writes tuples as lists

    def text():
        f = frame()
        return "\n".join([str(E), "M0:", _matrix_lines(f["M0"]), "U:", _matrix_lines(f["U"]),
                          "S: " + (" ".join(f"({i},{j})" for i, j in f["S"]) or "(empty)")])

    _emit(args, text, frame, latex_fn=hb.CellMatrix.zero(E).to_latex)
    return 0


def cmd_dims(args):
    E = _staircase(args)
    dims = {kind: hb.cell_dimension(E, kind) for kind in hb.CellKind}
    _emit(args, lambda: " ".join(f"{k}={dims[k]}" for k in hb.CellKind),
          lambda: {"m": list(E.m), "dims": {str(k): v for k, v in dims.items()}})
    return 0


def _cell_matrix(args, E):
    if args.cell is not None:
        try:
            N = hb.CellMatrix.from_json(json.loads(args.cell), args.field)
        except (KeyError, TypeError) as exc:
            raise UsageExit(f"--cell is not a cell matrix object with 'm' and 'N' ({exc!r})")
        if N.E != E:
            raise UsageExit("--cell staircase disagrees with --m/--d")
        return N
    kind = hb.CellKind(args.kind)
    return hb.random_cell_matrix(E, kind, args.seed, args.field)


def cmd_minors(args):
    E = _staircase(args)
    if args.format != "text":  # the text form prints the generators only
        _dense_output_budget(E)
    N = _cell_matrix(args, E)
    fs = hb.minors_ideal(N)
    _emit(args, lambda: "\n".join(f.to_str() for f in fs),
          lambda: {"m": list(E.m), "N": N.to_json()["N"], "generators": [f.to_str() for f in fs]},
          latex_fn=N.to_latex)
    return 0


def cmd_canonicalize(args):
    gens = parse_ideal(args.ideal, ("x", "y"), args.field)
    E, N = hb.canonical_matrix(gens)
    _dense_output_budget(E)

    def text():
        # "0" is what to_str prints for an entry off N's store of nonzeros
        cells = [["0"] * E.t for _ in range(E.t + 1)]
        for (i, j), n in N.nonzeros:
            cells[i - 1][j - 1] = n.to_str()
        rows = ",".join("[" + ",".join(row) + "]" for row in cells)
        return f"{E}; N=[{rows}]"

    _emit(args, text, N.to_json, latex_fn=N.to_latex)
    return 0


def cmd_kinds(args):
    gens = parse_ideal(args.ideal, ("x", "y"), args.field)
    kinds = sorted(hb.cell_kinds_of_ideal(gens), key=lambda k: k.value)
    _emit(args, lambda: " ".join(str(k) for k in kinds),
          lambda: {"kinds": [str(k) for k in kinds]})
    return 0


def _parse_assignment(text, E):
    slots = hb.slot_set(E)
    if text == "zero":
        return {s: 0 for s in slots}
    if text == "generic":
        return {s: 1 for s in slots}
    values = {}
    for piece in text.split(","):
        name, _, val = piece.partition("=")
        name = name.strip()
        if not name.startswith("p") or not name[1:].isdigit() or not val:
            raise UsageExit(f"bad parameter assignment {piece!r} (want pK=value)")
        k = int(name[1:])
        if not 1 <= k <= len(slots):
            raise UsageExit(f"parameter {name} out of range (S(E) has {len(slots)} slots)")
        values[slots[k - 1]] = scalar_from_json(QQ, val)
    missing = [k + 1 for k, s in enumerate(slots) if s not in values]
    if missing:
        raise UsageExit(f"incomplete assignment: missing p{', p'.join(map(str, missing))}")
    return values


def cmd_betti(args):
    E = _staircase(args)
    table = betti_mod.betti_numbers(E, _parse_assignment(args.p, E))
    _emit(args, lambda: "\n".join(f"j={j}: beta0={b0} beta1={b1}" for j, (b0, b1) in table.items()),
          lambda: {"m": list(E.m), "table": table.to_json()})
    return 0


def cmd_stratum(args):
    E = _staircase(args)
    desc = betti_mod.stratum_descriptor(E, args.j, args.u)

    def text():
        gm = desc.matrix
        star = [list(map(betti_mod._tag_text, row)) for row in gm.star_entries]
        lines = [f"j={desc.j} u={desc.u} rank_bound={desc.rank_bound}",
                 f"star rows {list(gm.star_rows)} cols {list(gm.star_cols)}"]
        if star:
            lines.append(_matrix_lines(star))
        conds = desc.condition_strings()
        lines.append("conditions: " + ("; ".join(f"{c} = 0" for c in conds) if conds else "none"))
        return "\n".join(lines)

    _emit(args, text, desc.to_json, latex_fn=desc.matrix.to_latex)
    return 0


def cmd_gdim(args):
    h = HSeries(args.hseries)
    bella = betti_mod.g_dim(h, "bella")
    brutta = betti_mod.g_dim(h, "brutta")
    _emit(args, lambda: f"bella={bella} brutta={brutta} agree={'true' if bella == brutta else 'false'}",
          lambda: {"h": list(h.h), "bella": bella, "brutta": brutta, "agree": bella == brutta})
    return 0


def cmd_generic(args):
    names = default_names(args.n)
    gens = []
    for p in parse_ideal(args.gens, names):
        if len(p.terms) != 1:
            raise UsageExit(f"generators must be monomials, got {p.to_str(names)!r}")
        gens.append(p.lt)
    family, report = generic_cells.cell_report(gens, args.n, args.graded)
    affine = generic_cells.affine_space_check(report)

    def text():
        lines = [f"initial={report.initial_count} eliminated={len(report.steps)} "
                 f"surviving={len(report.survivors)} residual={len(report.residual)}",
                 "survivors: " + (" ".join(report.survivor_names) or "(none)")]
        for eq in report.residual_strings():
            lines.append(f"residual: {eq} = 0")
        lines.append(f"affine_space={'true' if affine else 'false'}")
        return "\n".join(lines)

    _emit(args, text, lambda: report.to_json(with_log=args.log) | {"graded": args.graded,
                                                                   "affine_space": affine})
    return 0


def cmd_census(args):
    if args.brute_force and args.q is None:
        raise UsageExit("--brute-force needs --q, the order of the field GF(q)")
    census = census_mod.cell_census(args.d)
    at_q = None
    if args.q is not None:
        at_q = {"q": args.q, "total": census.evaluate(args.q)}
        if args.brute_force:
            at_q["brute_force"] = census_mod.brute_force_ideal_count(args.d, args.q)

    def text():
        lines = [f"{E}: " + " ".join(f"{k}={v}" for k, v in sorted(dims.items(), key=lambda kv: kv[0].value))
                 for E, dims in census.records]
        lines.append(f"total = {census.total_string()}")
        if args.q is not None:
            lines.append(f"total({args.q}) = {at_q['total']}")
            if args.brute_force:
                lines.append(f"brute_force({args.q}) = {at_q['brute_force']}")
        return "\n".join(lines)

    _emit(args, text, lambda: census.to_json() | ({"at_q": at_q} if at_q else {}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="hb-cells",
                                     description="Canonical Hilbert-Burch matrices and Groebner cells of k[x,y].")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, staircase=False, field=False, latex=False):
        formats = ("text", "json", "latex") if latex else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        if staircase:
            p.add_argument("--m", type=_int_list, metavar="M0,M1,...",
                           help="staircase vector m")
            p.add_argument("--d", type=_int_list, metavar="D1,D2,...",
                           help="staircase differences d")
        if field:
            p.add_argument("--field", type=_field_arg, default=QQ,
                           help="coefficient field: q (rationals) or p:<order> for GF(order), "
                                "the order a prime below 2**31 or 4")

    p = sub.add_parser("frame", help="M0(E), degree matrix U(E) and slot set S(E)")
    common(p, staircase=True, latex=True)
    p.set_defaults(fn=cmd_frame)

    p = sub.add_parser("dims", help="dimensions of the four cells of E")
    common(p, staircase=True)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("minors", help="Groebner basis cut out by a cell matrix")
    common(p, staircase=True, field=True, latex=True)
    p.add_argument("--cell", help="cell matrix as JSON (schema of canonicalize --format json)")
    p.add_argument("--kind", choices=[k.value for k in hb.CellKind], default="V0",
                   help="random matrix kind when --cell is absent")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_minors)

    p = sub.add_parser("canonicalize", help="staircase and canonical cell matrix of an ideal")
    common(p, field=True, latex=True)
    p.add_argument("ideal", help="comma-separated polynomials in x, y")
    p.set_defaults(fn=cmd_canonicalize)

    p = sub.add_parser("kinds", help="which cells an ideal belongs to")
    common(p, field=True)
    p.add_argument("ideal", help="comma-separated polynomials in x, y")
    p.set_defaults(fn=cmd_kinds)

    p = sub.add_parser("betti", help="graded Betti numbers at a parameter point")
    common(p, staircase=True)
    p.add_argument("--p", default="zero",
                   help="'zero', 'generic', or assignments p1=...,p2=... over S(E)")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("stratum", help="determinantal descriptor of a Betti stratum")
    common(p, staircase=True, latex=True)
    p.add_argument("--j", type=int, required=True, help="degree")
    p.add_argument("--u", type=int, required=True, help="at least u minimal generators")
    p.set_defaults(fn=cmd_stratum)

    p = sub.add_parser("gdim", help="dimension of the graded ideal space, both formulas")
    common(p)
    p.add_argument("--h", dest="hseries", type=_int_list, required=True, metavar="H0,H1,...")
    p.set_defaults(fn=cmd_gdim)

    p = sub.add_parser("generic", help="generic cell equations and linear elimination",
                       description="Generic cell equations and linear elimination. A family "
                       "whose scan (every monomial of each generator degree, or the exponent "
                       "box when ungraded) or parameter count is over generic_cells.FAMILY_LIMIT "
                       "exits 1.")
    common(p)
    p.add_argument("--gens", required=True, help="comma-separated monomial generators")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--graded", dest="graded", action="store_true", default=True,
                     help="a member's tail has the standard monomials below its lead "
                          "of the same degree (default)")
    grp.add_argument("--ungraded", dest="graded", action="store_false",
                     help="a member's tail has every standard monomial below its lead; "
                          "needs finite colength")
    p.add_argument("--log", action="store_true",
                   help="include the substitution log, param = expression, in JSON")
    p.set_defaults(fn=cmd_generic)

    p = sub.add_parser("census", help="cell dimensions and point counts at a colength")
    common(p)
    p.add_argument("--d", type=int, required=True, help="colength")
    p.add_argument("--q", type=_prime_power,
                   help="evaluate the census total at the prime power q")
    p.add_argument("--brute-force", action="store_true",
                   help="also run the exhaustive ideal count over F_q")
    p.set_defaults(fn=cmd_census)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (UsageExit, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # 141 = 128 + SIGPIPE; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
