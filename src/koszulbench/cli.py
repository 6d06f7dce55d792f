"""Command line front end.

The subcommands are the COMMANDS table at the end of this module: each
entry's words, synopsis, summary and handler. The usage text is built
from it. Every subcommand accepts --json. Exit codes: 0 success, 1
invalid input, 2 failed mathematical verdict (invert-check, koszul,
phidec). Output is deterministic: identical inputs give identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import hecke
from . import koszul as koszul_mod
from . import mult
from . import weights as weights_mod
from .shapes import Partition, SkewShape, dyck_depth, scan_box


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):

    def parse_args(self, args=None, namespace=None):
        # every subcommand takes --json; added last, it ends the -h text
        self.add_argument("--json", action="store_true")
        ns = super().parse_args(args, namespace)
        self.as_json = ns.json
        return ns

    def error(self, message):
        raise _UsageError("%s: error: %s" % (self.prog, message))


def _parse_partition(text: str) -> Partition:
    t = text.strip()
    if t in ("", "0"):
        return Partition(())
    try:
        if "_" in t or not t.isascii():
            raise ValueError  # int() reads 1_0 and non-ASCII digits
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


# A handler takes its subcommand's _Parser and the arguments after the
# subcommand's words. It declares its arguments, parses, computes and
# returns (text, doc, code): text() is the text output, doc() the JSON
# document, so only the printed form is built, and code the exit code.

def _report(report, code=0):
    """A result object that renders itself, with its exit code."""
    return report.render_text, report.to_json_dict, code


def _cmd_dyck_depth(parser, args):
    parser.add_argument("shape")
    shape = _parse_shape(parser.parse_args(args).shape)
    verdict = dyck_depth(shape)
    doc = {"shape": _render_shape(shape), "is_dyck": verdict.is_dyck}
    if verdict.is_dyck:
        doc["depth"] = verdict.depth
        text = "dyck: true, depth: %d" % verdict.depth
    else:
        text = "dyck: false"
    return lambda: text, lambda: doc, 0


def _cmd_dyck_enumerate(parser, args):
    parser.add_argument("--box", required=True)
    box = parser.parse_args(args).box
    try:
        if "_" in box or not box.isascii():
            raise ValueError  # int() reads 1_0 and non-ASCII digits
        rows_text, cols_text = box.lower().split("x", 1)
        rows, cols = int(rows_text), int(cols_text)
    except ValueError:
        raise ValueError("cannot parse box %r; expected KxM" % box)
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
    return lambda: text, lambda: doc, 0


def _cmd_kl(parser, args):
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
    return lambda: text, lambda: doc, 0


def _cmd_kl_invert_check(parser, args):
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    ns = parser.parse_args(args)
    report = mult.kl_inversion_check(ns.k, ns.n)
    return _report(report, 0 if report.ok else 2)


def _cmd_mult(kind: str, parser, args):
    if kind == "gr":
        parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--tag", choices=["delta_ic", "cartan"],
                        default="delta_ic")
    ns = parser.parse_args(args)
    space = mult.Space.gr(ns.k, ns.n) if kind == "gr" else mult.Space.flag(ns.n)
    return _report(mult.delta_ic_matrix(space) if ns.tag == "delta_ic"
                   else mult.graded_cartan(space))


def _cmd_weights(parser, args):
    parser.add_argument("--space", required=True)
    space = mult.Space.parse(parser.parse_args(args).space)
    wt = weights_mod.wt_space(space)
    text = "wt = %s, wr = %d" % (weights_mod.render_wt(wt), len(wt))
    doc = {"space": space.render(), "wt": list(wt), "wr": len(wt)}
    return lambda: text, lambda: doc, 0


def _cmd_primes(parser, args):
    parser.add_argument("--l", type=int, required=True)
    parser.add_argument("--wt", required=True)
    parser.add_argument("--bound", type=int, default=100)
    ns = parser.parse_args(args)
    try:
        if "_" in ns.wt or not ns.wt.isascii():
            raise ValueError  # int() reads 1_0 and non-ASCII digits
        wt = [int(p) for p in ns.wt.split(",")]
    except ValueError:
        raise ValueError("cannot parse weight list %r" % ns.wt)
    return _report(weights_mod.find_separating_prime(wt, ns.l, ns.bound))


def _cmd_phidec(parser, args):
    parser.add_argument("--matrix", required=True)
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--l", type=int, required=True)
    ns = parser.parse_args(args)
    with open(ns.matrix, "r", encoding="utf-8") as handle:
        rows = json.load(handle)
    if isinstance(rows, dict):
        rows = rows.get("matrix")
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(row, list) for row in rows)):
        raise ValueError("matrix file must hold a JSON array of rows")
    report = weights_mod.is_phi_decomposable(rows, ns.q, ns.l)
    return _report(report, 0 if (report.applicable and report.decomposable)
                   else 2)


def _koszul_args(parser, args, *field, **field_options):
    """Parse --algebra, --builtin, the field option and --imax, in the
    order -h lists them, and load the algebra: (namespace, algebra)."""
    parser.add_argument("--algebra")
    parser.add_argument("--builtin")
    parser.add_argument(*field, **field_options)
    parser.add_argument("--imax", type=int, default=None)
    ns = parser.parse_args(args)
    if ns.imax is not None and not 1 <= ns.imax <= koszul_mod.MAX_IMAX:
        raise ValueError("--imax must lie in 1..%d, got %d"
                         % (koszul_mod.MAX_IMAX, ns.imax))
    if ns.builtin and ns.algebra:
        raise ValueError("give either --algebra or --builtin, not both")
    if ns.builtin:
        return ns, koszul_mod.builtin_algebra(ns.builtin)
    if ns.algebra:
        with open(ns.algebra, "r", encoding="utf-8") as handle:
            return ns, koszul_mod.load_algebra(json.load(handle))
    raise ValueError("one of --algebra or --builtin is required")


def _cmd_koszul(parser, args):
    ns, algebra = _koszul_args(parser, args, "--field", default="Q")
    report = koszul_mod.is_koszul(algebra, ns.field, ns.imax)
    return _report(report, 0 if report.is_koszul else 2)


def _cmd_koszul_integral(parser, args):
    ns, algebra = _koszul_args(parser, args, "--l", type=int, required=True)
    report = koszul_mod.integral_koszul_check(algebra, ns.l, ns.imax)
    return _report(report, 0 if report.verdict == "koszul" else 2)


COMMANDS = (
    ("dyck depth", "SHAPE", "Dyck verdict and depth of a skew shape",
     _cmd_dyck_depth),
    ("dyck enumerate", "--box KxM", "scan all skew shapes in a box",
     _cmd_dyck_enumerate),
    ("kl", "--n N --x PERM --w PERM", "Kazhdan-Lusztig polynomial", _cmd_kl),
    ("kl invert-check", "--k K --n N", "Dyck matrix vs inverse KL matrix",
     _cmd_kl_invert_check),
    ("mult gr", "--k K --n N", "multiplicity matrices on gr(k,n)",
     functools.partial(_cmd_mult, "gr")),
    ("mult flag", "--n N", "multiplicity matrices on flag(n)",
     functools.partial(_cmd_mult, "flag")),
    ("weights", "--space SPACE", "weight support wt and range wr",
     _cmd_weights),
    ("primes", "--l L --wt LIST", "search for a separating prime",
     _cmd_primes),
    ("phidec", "--matrix FILE --q Q --l L", "weight-lattice splitting mod l",
     _cmd_phidec),
    ("koszul", "--builtin NAME|--algebra FILE --field Q|F:L",
     "Koszul verdict from minimal resolutions", _cmd_koszul),
    ("koszul integral", "--builtin NAME|--algebra FILE --l L",
     "Ext dimensions over Q vs F_l", _cmd_koszul_integral),
)


def _usage() -> str:
    lines = ["usage: koszulbench SUBCOMMAND [options]", "", "subcommands:"]
    for words, synopsis, summary, _ in COMMANDS:
        head = words + " " + synopsis
        # a head wider than the column puts its summary on the next line
        lines.append("  %-28s %s" % (head, summary) if len(head) <= 28
                     else "  %s\n%31s%s" % (head, "", summary))
    return "\n".join(lines + ["", "every subcommand accepts --json"])


def _dispatch(argv) -> int:
    """Run the longest COMMANDS entry whose words start argv, print its
    text or, with --json, its JSON document, and return its exit code."""
    found = [c for c in COMMANDS if argv[:len(c[0].split())] == c[0].split()]
    if not found:
        raise _UsageError(_usage())
    words, _, _, handler = max(found, key=lambda c: len(c[0]))
    parser = _Parser(prog="koszulbench " + words)
    text, doc, code = handler(parser, argv[len(words.split()):])
    print(json.dumps(doc(), sort_keys=True) if parser.as_json else text())
    return code


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
