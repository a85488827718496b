"""Command-line surface: input validation, fixture generation, and reports.

Exit codes: 0 on success, 1 on any failed verification, 2 on malformed
input (with a JSON error object naming the violated rule).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import CONVENTIONS, InputFormatError, TrophodgeError, __version__
from .chow import fan_ring, is_balanced, minkowski_weights
from .cohomology import cochain_complex, hodge_diamond
from .fixtures import FIXTURES, named_fixture, write_fixture_files
from .linalg import fmt_rat, rat
from .polyhedral import FaceComplex, compactify, load_complex
from .steenbrink import (
    build_steenbrink,
    steenbrink_cohomology,
    surviving_relative,
    verify_hl,
)
from .clemens_schmid import mapping_cone_check, tropical_clemens_schmid
from .hodge_cycles import (
    HodgeClass,
    hodge_locus_basis,
    hodge_to_cycle,
    numerical_vs_homological,
    verify_class,
)


def _report_header() -> dict:
    return {"tool": "trophodge", "version": __version__, "conventions": CONVENTIONS}


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        _print_table(data)


def _print_table(data: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(data, key=str):
        val = data[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_table(val, indent + 1)
        elif isinstance(val, list) and val and isinstance(val[0], list):
            print(f"{pad}{key}:")
            for row in val:
                print(f"{pad}  " + "  ".join(str(x) for x in row))
        else:
            print(f"{pad}{key}: {val}")


def _fail_input(message: str) -> int:
    print(json.dumps({"error": "malformed-input", "detail": message}, sort_keys=True))
    return 2


def _load(arg: str) -> FaceComplex:
    if arg in FIXTURES:
        return named_fixture(arg)
    if not os.path.exists(arg):
        raise InputFormatError(f"no such file or fixture: {arg}")
    return load_complex(arg)


def cmd_chow(args) -> int:
    y = _load(args.input)
    ring = fan_ring(y)
    try:
        degrees = range(ring.top + 1) if args.degrees == "all" else [int(args.degrees)]
    except ValueError:
        raise InputFormatError(f"--degrees must be 'all' or an integer, not {args.degrees!r}") from None
    table = {str(p): ring.dim(p) for p in degrees}
    _emit({**_report_header(), "chow_dims": table}, args.format)
    return 0


def cmd_mw(args) -> int:
    y = _load(args.input)
    basis = minkowski_weights(y, args.k)
    out = []
    for w in basis:
        out.append({str(face): fmt_rat(v) for face, v in w.weights})
    _emit({**_report_header(), "k": args.k, "rank": len(basis), "basis": {str(i): b for i, b in enumerate(out)}},
          args.format)
    return 0


def cmd_cohomology(args) -> int:
    y = _load(args.input)
    x = compactify(y)
    diamond = hodge_diamond(x)
    table = {f"h^{p},{q}": diamond[p][q] for p in range(len(diamond)) for q in range(len(diamond[p]))}
    _emit({**_report_header(), "dim": x.dim, "hodge_numbers": table}, args.format)
    return 0


def cmd_steenbrink(args) -> int:
    y = _load(args.input)
    st = build_steenbrink(compactify(y))
    d = st.dim
    blocks = {}
    for b in range(0, 2 * d + 1, 2):
        for a in range(-d, d + 1):
            for s in range(0, d + 1):
                n = st.block_dim(a, b, s)
                if n:
                    blocks[f"({a},{b},{s})"] = n
    rows = {}
    for b in range(0, 2 * d + 1, 2):
        coh = steenbrink_cohomology(st, b)
        for a, v in coh.items():
            if v:
                rows[f"H^{a}(b={b})"] = v
    hl = verify_hl(st)
    hs = {}
    hrel = {}
    for p in range(0, d + 1):
        for q in range(0, d + 1):
            s_dim, r_dim = surviving_relative(st, p, q)
            if s_dim:
                hs[f"({p},{q})"] = s_dim
            if r_dim:
                hrel[f"({p},{q})"] = r_dim
    report = {
        **_report_header(),
        "blocks": blocks,
        "row_cohomology": rows,
        "hard_lefschetz": hl["all"],
        "surviving": hs,
        "relative": hrel,
    }
    _emit(report, args.format)
    return 0 if hl["all"] else 1


def cmd_cs_check(args) -> int:
    y = _load(args.input)
    st = build_steenbrink(compactify(y))
    result = tropical_clemens_schmid(st)
    junctions = {}
    for p, rep in result["per_p"].items():
        junctions[f"p={p}"] = {
            j.node: {"incoming_rank": j.incoming_rank, "kernel_dim": j.kernel_dim,
                     "exact": j.exact and j.composition_zero}
            for j in rep.junctions
        }
    _emit({**_report_header(), "all_exact": result["all"], "junctions": junctions},
          args.format)
    return 0 if result["all"] else 1


def _parse_class(st, path: str, p: int) -> HodgeClass:
    """A Hodge class of degree p: one star Chow class per finite vertex."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        if type(data["p"]) is not int or data["p"] != p:
            raise InputFormatError(f"class file has p = {data['p']}, but --p is {p}")
        classes = {}
        for vid_s, monos in data.get("vertices", {}).items():
            vid = int(vid_s)
            if vid not in st.finite_by_dim.get(0, []):
                raise InputFormatError(f"class file names face {vid_s}, which is not a finite vertex")
            ring = st.rings_for(vid)
            combo = {}
            for label_s, coeff in monos.items():
                if type(coeff) not in (int, str):
                    raise InputFormatError('every coefficient must be an integer or a "p/q" string')
                labels = tuple(int(t) for t in label_s.split(",")) if label_s else ()
                rays = frozenset(ring.star.ray_position(l) for l in labels)
                if len(rays) != len(labels):
                    raise InputFormatError(f"cone monomial {label_s!r} names a ray twice")
                combo[rays] = combo.get(rays, 0) + rat(coeff)
            classes[vid] = ring.reduce_class(p, combo)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"malformed class JSON: {exc!r}") from exc
    return HodgeClass(p, classes)


def _mono_label(ring, mono) -> str:
    return ",".join(str(ring.star.ray_labels[i]) for i in sorted(mono))


def cmd_hodge_cycle(args) -> int:
    y = _load(args.input)
    st = build_steenbrink(compactify(y))
    p = args.p
    if args.klass:
        classes = [_parse_class(st, args.klass, p)]
    else:
        classes = hodge_locus_basis(st, p)
    out = {}
    all_ok = True
    for i, alpha in enumerate(classes):
        cyc = hodge_to_cycle(st, alpha)
        balanced = is_balanced(st.x, cyc.weight)
        ok = verify_class(st, alpha, cyc)
        all_ok = all_ok and balanced and ok
        out[str(i)] = {
            "class": {str(v): {_mono_label(st.rings_for(v), m): fmt_rat(c)
                               for m, c in zip(st.rings_for(v).basis(p), cls.coeffs) if c}
                      for v, cls in alpha.classes.items()},
            "cycle": {"p": p, "weights": {str(f): fmt_rat(v) for f, v in cyc.weight.weights}},
            "verification": {"balanced": balanced, "class_matches": ok},
        }
    _emit({**_report_header(), "p": p, "count": len(classes), "cycles": out}, args.format)
    return 0 if all_ok else 1


def cmd_fixtures(args) -> int:
    paths = write_fixture_files(args.out)
    _emit({**_report_header(), "written": {str(i): p for i, p in enumerate(paths)}}, args.format)
    return 0


def _psi_identities(st) -> bool:
    """psi_{a,b}^T = (-1)^d psi_{-a,2d-b}, N^T psi + psi N = 0 and
    d^T psi + psi d = 0, as identities of matrices on every pair of terms,
    so on every pair of elements."""
    d = st.dim
    for b in range(0, 2 * d + 1, 2):
        dual = 2 * d - b
        for a in st.a_range(b):
            psi, psi_n, psi_d = st.psi_matrix(a, b), st.psi_matrix(a + 2, b - 2), st.psi_matrix(a + 1, b)
            if not (_sum_is_zero(psi.transpose(), st.psi_matrix(-a, dual), -(-1) ** d)
                    and _sum_is_zero(st.n_matrix(a, b).transpose().matmul(psi_n),
                                     psi.matmul(st.n_matrix(-a - 2, dual + 2)))
                    and _sum_is_zero(st.row_complex(b).differential(a).transpose().matmul(psi_d),
                                     psi.matmul(st.row_complex(dual).differential(-a - 1)))):
                return False
    return True


def _sum_is_zero(m, n, c: int = 1) -> bool:
    """m + c n == 0, for two matrices of one shape with normalised entries."""
    return (m.rows, m.cols) == (n.rows, n.cols) and m.entries == {k: -c * v for k, v in n.entries.items()}


def cmd_check_all(args) -> int:
    """The full invariant suite.  Every check is exact and draws nothing at
    random; --seed is only echoed in the report."""
    y = _load(args.input)
    checks: dict[str, bool] = {}

    x = compactify(y)
    diamond = hodge_diamond(x)
    checks["cellular-complexes-square-zero"] = all(cochain_complex(x, p).check() for p in range(x.dim + 1))
    st = build_steenbrink(x)
    d = st.dim
    for b in range(0, 2 * d + 1, 2):
        gc = st.row_complex(b)
        checks[f"steenbrink-d2-zero-b{b}"] = gc.check()
        coh = steenbrink_cohomology(st, b)
        p = b // 2
        agree = all(coh.get(q - p, 0) == (diamond[p][q] if p < len(diamond) and q < len(diamond[p]) else 0)
                    for q in range(0, d + 1))
        checks[f"steenbrink-vs-cellular-b{b}"] = agree
    checks["hard-lefschetz"] = verify_hl(st)["all"]
    checks["psi-identities"] = _psi_identities(st)
    checks["clemens-schmid"] = tropical_clemens_schmid(st)["all"]
    for b in range(0, 2 * d + 1, 2):
        checks[f"mapping-cone-p{b}"] = mapping_cone_check(st, b)["all"]
    for p in range(0, d + 1):
        try:
            rep = numerical_vs_homological(st, p)
            checks[f"kernel-pairing-p{p}"] = rep["nondegenerate"] and rep["splitting"] and rep["orthogonal"]
        except TrophodgeError:
            checks[f"kernel-pairing-p{p}"] = False
    for p in range(0, d + 1):
        basis = hodge_locus_basis(st, p)
        ok = True
        for alpha in basis:
            cyc = hodge_to_cycle(st, alpha)
            ok = ok and verify_class(st, alpha, cyc)
        checks[f"hodge-roundtrip-p{p}"] = ok
    passed = all(checks.values())
    report = {**_report_header(), "seed": args.seed,
              "checks": {k: ("pass" if v else "FAIL") for k, v in sorted(checks.items())},
              "all": passed}
    _emit(report, args.format)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trophodge",
        description="Exact tropical Hodge theory: Chow rings, tropical cohomology, "
                    "Steenbrink pages, Clemens-Schmid checks, and Hodge-class cycles.")
    parser.add_argument("--version", action="version", version=f"trophodge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("chow", help="Chow ring dimensions of a unimodular fan")
    p.add_argument("input")
    p.add_argument("--degrees", default="all")
    common(p)
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("mw", help="Minkowski weight basis of a complex")
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_mw)

    p = sub.add_parser("cohomology", help="tropical Hodge numbers of the compactification")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("steenbrink", help="Steenbrink page tables and Hard Lefschetz report")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_steenbrink)

    p = sub.add_parser("cs-check", help="tropical Clemens-Schmid exactness report")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_cs_check)

    p = sub.add_parser("hodge-cycle", help="tropical cycles for Hodge classes")
    p.add_argument("input")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--class", dest="klass")
    common(p)
    p.set_defaults(func=cmd_hodge_cycle)

    p = sub.add_parser("check-all", help="run the full invariant suite on a fixture or file")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_check_all)

    p = sub.add_parser("fixtures", help="write the built-in fixtures as JSON files")
    p.add_argument("--out", default=".")
    common(p)
    p.set_defaults(func=cmd_fixtures)
    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()  # it does not depend on argv; parse_args returns a fresh namespace
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        return _fail_input(str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail_input(str(exc))
    except TrophodgeError as exc:
        print(json.dumps({"error": "verification-failed", "detail": str(exc)}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
