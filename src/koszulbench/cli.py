"""Command line front end.

Subcommands:
  dyck depth SHAPE           dyck enumerate --box KxM
  kl --n N --x PERM --w PERM kl invert-check --k K --n N
  mult gr --k K --n N        mult flag --n N      [--tag delta_ic|cartan]
  weights --space gr:K,N|flag:N
  primes --l L --wt LIST [--bound B]
  phidec --matrix FILE --q Q --l L
  koszul --algebra FILE|--builtin NAME --field Q|F:L [--imax I]
  koszul integral --algebra FILE|--builtin NAME --l L [--imax I]

Every subcommand accepts --json. Exit codes: 0 success, 1 invalid
input, 2 failed mathematical verdict (invert-check, koszul, phidec).
Output is deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hecke
from . import koszul as koszul_mod
from . import mult
from . import weights as weights_mod
from .shapes import Partition, SkewShape, dyck_depth, scan_box

_USAGE = """usage: koszulbench SUBCOMMAND [options]

subcommands:
  dyck depth SHAPE             Dyck verdict and depth of a skew shape
  dyck enumerate --box KxM     scan all skew shapes in a box
  kl --n N --x PERM --w PERM   Kazhdan-Lusztig polynomial
  kl invert-check --k K --n N  Dyck matrix vs inverse KL matrix
  mult gr --k K --n N          multiplicity matrices on gr(k,n)
  mult flag --n N              multiplicity matrices on flag(n)
  weights --space SPACE        weight support wt and range wr
  primes --l L --wt LIST       search for a separating prime
  phidec --matrix FILE --q Q --l L   weight-lattice splitting mod l
  koszul --builtin NAME|--algebra FILE --field Q|F:L
  koszul integral --builtin NAME|--algebra FILE --l L

every subcommand accepts --json"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):

    def parse_args(self, args=None, namespace=None):
        # every subcommand takes --json; added last, it ends the -h text
        self.add_argument("--json", action="store_true")
        return super().parse_args(args, namespace)

    def error(self, message):
        raise _UsageError("%s: error: %s" % (self.prog, message))


def _emit(text, doc, as_json: bool):
    """Print doc() as JSON or text(); only the printed form is built."""
    if as_json:
        print(json.dumps(doc(), sort_keys=True))
    else:
        print(text())


def _parse_partition(text: str) -> Partition:
    t = text.strip()
    if t in ("", "0"):
        return Partition(())
    try:
        parts = tuple(int(p) for p in t.split(","))
    except ValueError:
        raise ValueError("cannot parse partition %r" % text)
    return Partition(parts)


def _parse_shape(text: str) -> SkewShape:
    if "/" in text:
        outer_text, inner_text = text.split("/", 1)
    else:
        outer_text, inner_text = text, ""
    return SkewShape(_parse_partition(outer_text), _parse_partition(inner_text))


def _render_shape(shape: SkewShape) -> str:
    outer = ",".join(str(p) for p in shape.outer.parts) or "0"
    if not shape.inner.parts:
        return outer
    return outer + "/" + ",".join(str(p) for p in shape.inner.parts)


def _cmd_dyck_depth(args) -> int:
    parser = _Parser(prog="koszulbench dyck depth")
    parser.add_argument("shape")
    ns = parser.parse_args(args)
    shape = _parse_shape(ns.shape)
    verdict = dyck_depth(shape)
    if verdict.is_dyck:
        text = "dyck: true, depth: %d" % verdict.depth
        doc = {"shape": _render_shape(shape), "is_dyck": True,
               "depth": verdict.depth}
    else:
        text = "dyck: false"
        doc = {"shape": _render_shape(shape), "is_dyck": False}
    _emit(lambda: text, lambda: doc, ns.json)
    return 0


def _cmd_dyck_enumerate(args) -> int:
    parser = _Parser(prog="koszulbench dyck enumerate")
    parser.add_argument("--box", required=True)
    ns = parser.parse_args(args)
    try:
        rows_text, cols_text = ns.box.lower().split("x", 1)
        rows, cols = int(rows_text), int(cols_text)
    except ValueError:
        raise ValueError("cannot parse box %r; expected KxM" % ns.box)
    scan = scan_box(rows, cols)
    text = ("box: %dx%d\nshapes: %d\ndyck: %d\nmax_depth: %d\n"
            "bound_violations: %d"
            % (rows, cols, scan.shapes, scan.dyck, scan.max_depth,
               scan.bound_violations))
    doc = {"box": "%dx%d" % (rows, cols), "shapes": scan.shapes,
           "dyck": scan.dyck, "max_depth": scan.max_depth,
           "depth_counts": {str(d): c for d, c in
                            sorted(scan.depth_counts.items())},
           "bound_violations": scan.bound_violations}
    _emit(lambda: text, lambda: doc, ns.json)
    return 0


def _cmd_kl(args) -> int:
    parser = _Parser(prog="koszulbench kl")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--x", required=True)
    parser.add_argument("--w", required=True)
    ns = parser.parse_args(args)
    x = hecke.parse_permutation(ns.x, ns.n)
    w = hecke.parse_permutation(ns.w, ns.n)
    table = hecke.KLTable(ns.n)
    poly = table.kl_polynomial(x, w)
    text = "P = %s" % poly.render(var="q")
    doc = {"n": ns.n, "x": hecke.render_permutation(x),
           "w": hecke.render_permutation(w), "P": poly.to_json_dict()}
    _emit(lambda: text, lambda: doc, ns.json)
    return 0


def _cmd_kl_invert_check(args) -> int:
    parser = _Parser(prog="koszulbench kl invert-check")
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    ns = parser.parse_args(args)
    report = mult.kl_inversion_check(ns.k, ns.n)
    _emit(report.render_text, report.to_json_dict, ns.json)
    return 0 if report.ok else 2


def _cmd_mult(kind: str, args) -> int:
    parser = _Parser(prog="koszulbench mult %s" % kind)
    if kind == "gr":
        parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--tag", choices=["delta_ic", "cartan"],
                        default="delta_ic")
    ns = parser.parse_args(args)
    space = mult.Space.gr(ns.k, ns.n) if kind == "gr" else mult.Space.flag(ns.n)
    matrix = (mult.delta_ic_matrix(space) if ns.tag == "delta_ic"
              else mult.graded_cartan(space))
    _emit(matrix.render_text, matrix.to_json_dict, ns.json)
    return 0


def _cmd_weights(args) -> int:
    parser = _Parser(prog="koszulbench weights")
    parser.add_argument("--space", required=True)
    ns = parser.parse_args(args)
    space = mult.Space.parse(ns.space)
    wt = weights_mod.wt_space(space)
    text = "wt = %s, wr = %d" % (weights_mod.render_wt(wt), len(wt))
    doc = {"space": space.render(), "wt": list(wt), "wr": len(wt)}
    _emit(lambda: text, lambda: doc, ns.json)
    return 0


def _cmd_primes(args) -> int:
    parser = _Parser(prog="koszulbench primes")
    parser.add_argument("--l", type=int, required=True)
    parser.add_argument("--wt", required=True)
    parser.add_argument("--bound", type=int, default=100)
    ns = parser.parse_args(args)
    try:
        wt = [int(p) for p in ns.wt.split(",") if p.strip()]
    except ValueError:
        raise ValueError("cannot parse weight list %r" % ns.wt)
    if not wt:
        raise ValueError("weight list is empty")
    report = weights_mod.find_separating_prime(wt, ns.l, ns.bound)
    _emit(report.render_text, report.to_json_dict, ns.json)
    return 0


def _cmd_phidec(args) -> int:
    parser = _Parser(prog="koszulbench phidec")
    parser.add_argument("--matrix", required=True)
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--l", type=int, required=True)
    ns = parser.parse_args(args)
    with open(ns.matrix, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, dict):
        doc = doc.get("matrix")
    if (not isinstance(doc, list) or not doc
            or not all(isinstance(row, list) for row in doc)):
        raise ValueError("matrix file must hold a JSON array of rows")
    report = weights_mod.is_phi_decomposable(doc, ns.q, ns.l)
    _emit(report.render_text, report.to_json_dict, ns.json)
    return 0 if (report.applicable and report.decomposable) else 2


def _check_imax(imax):
    if imax is not None and not 1 <= imax <= koszul_mod.MAX_IMAX:
        raise ValueError("--imax must lie in 1..%d, got %d"
                         % (koszul_mod.MAX_IMAX, imax))


def _load_cli_algebra(ns) -> koszul_mod.GradedAlgebra:
    if ns.builtin and ns.algebra:
        raise ValueError("give either --algebra or --builtin, not both")
    if ns.builtin:
        return koszul_mod.builtin_algebra(ns.builtin)
    if ns.algebra:
        with open(ns.algebra, "r", encoding="utf-8") as handle:
            return koszul_mod.load_algebra(json.load(handle))
    raise ValueError("one of --algebra or --builtin is required")


def _cmd_koszul(args) -> int:
    parser = _Parser(prog="koszulbench koszul")
    parser.add_argument("--algebra")
    parser.add_argument("--builtin")
    parser.add_argument("--field", default="Q")
    parser.add_argument("--imax", type=int, default=None)
    ns = parser.parse_args(args)
    _check_imax(ns.imax)
    algebra = _load_cli_algebra(ns)
    report = koszul_mod.is_koszul(algebra, ns.field, ns.imax)
    _emit(report.render_text, report.to_json_dict, ns.json)
    return 0 if report.is_koszul else 2


def _cmd_koszul_integral(args) -> int:
    parser = _Parser(prog="koszulbench koszul integral")
    parser.add_argument("--algebra")
    parser.add_argument("--builtin")
    parser.add_argument("--l", type=int, required=True)
    parser.add_argument("--imax", type=int, default=None)
    ns = parser.parse_args(args)
    _check_imax(ns.imax)
    algebra = _load_cli_algebra(ns)
    report = koszul_mod.integral_koszul_check(algebra, ns.l, ns.imax)
    _emit(report.render_text, report.to_json_dict, ns.json)
    return 0 if report.verdict == "koszul" else 2


def _dispatch(argv) -> int:
    if not argv:
        raise _UsageError(_USAGE)
    head, rest = argv[0], argv[1:]
    if head == "dyck":
        if rest[:1] == ["depth"]:
            return _cmd_dyck_depth(rest[1:])
        if rest[:1] == ["enumerate"]:
            return _cmd_dyck_enumerate(rest[1:])
        raise _UsageError("dyck needs a 'depth' or 'enumerate' subcommand")
    if head == "kl":
        if rest[:1] == ["invert-check"]:
            return _cmd_kl_invert_check(rest[1:])
        return _cmd_kl(rest)
    if head == "mult":
        if rest[:1] == ["gr"]:
            return _cmd_mult("gr", rest[1:])
        if rest[:1] == ["flag"]:
            return _cmd_mult("flag", rest[1:])
        raise _UsageError("mult needs a 'gr' or 'flag' subcommand")
    if head == "weights":
        return _cmd_weights(rest)
    if head == "primes":
        return _cmd_primes(rest)
    if head == "phidec":
        return _cmd_phidec(rest)
    if head == "koszul":
        if rest[:1] == ["integral"]:
            return _cmd_koszul_integral(rest[1:])
        return _cmd_koszul(rest)
    raise _UsageError(_USAGE)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _dispatch(list(argv))
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError, RecursionError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
