"""Graded quiver algebras, minimal resolutions, and Koszulity.

An algebra is given by vertices, a finite basis of homogeneous
elements in degrees <= 0 (degree 0 being exactly the vertex
idempotents), and integer structure constants. Products that are
composable but unlisted are zero; products with idempotents are
implicit. Composition is written left to right: x * y is the path x
followed by y and needs tgt(x) = src(y).

Right modules over such an algebra have finite-dimensional graded
pieces, so minimal projective resolutions can be computed block by
block, one (vertex, degree) at a time, over any coefficient field. A
free summand at (v, s) has one basis vector for each basis element b
leaving v (GradedAlgebra.leaving), in the block (tgt b, s + deg b). A
step (_advance) visits the blocks of the last kernel M from degree 0
down: the images of the generators found above a block span M*J
there, the vectors of M outside that span are its new generators, and
the kernel of the images is the next kernel. An image is one right
action (_act), which reads the products b * a off the algebra's
right-action table GradedAlgebra.right. The algebra is Koszul
when the i-th step of the resolution of every simple is generated in
degree exactly -i; is_koszul stops each resolution at its first
violating step, and at the step before the first violation found so
far, so a verdict costs only the steps it reads. When every
resolution terminates, their Euler matrix is the inverse of the
graded Cartan matrix, which cartan_inverse computes by one
_linalg.bareiss pass on ints, the matrix packed at v^-1 = 2^B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .laurent import unpack
from ._linalg import Echelon, FieldQ, FieldF, bareiss, kernel_basis

# Most basis vectors a resolution step's free module may have; see
# docs/cli.md.
MAX_FREE_RANK = 4096

# Largest resolution cutoff the CLI accepts, and the cap on
# default_imax. Each step can be far larger than the last (torsion_p1:3
# over F3 doubles, and its step 19 passes MAX_FREE_RANK), and the
# uncapped default grows with the deepest degree, which no limit
# bounds; the builtins' defaults are at most 8.
MAX_IMAX = 32

# Largest algebra document load_algebra accepts, counted in records and
# in result terms over all mult records, as listed. Loading checks
# associativity on every triple with x*y or y*z listed, so its cost
# grows with mult records times basis elements times the terms of each
# product; docs/cli.md gives measured costs.
MAX_VERTICES = 64
MAX_BASIS_RECORDS = 128
MAX_MULT_RECORDS = 512
MAX_MULT_TERMS = 2048


class GradedAlgebra:

    def __init__(self, vertices, basis, mult, name="algebra"):
        """vertices: list of str. basis: list of (name, src, tgt, deg)
        including one degree-0 loop per vertex. mult: dict
        (left, right) -> {name: int} for non-idempotent products. A
        vertex, name, src or tgt that is not a str, and a degree or
        coefficient that is not an int (a bool or a float), is refused;
        of two defective records, the first is reported.

        leaving maps each vertex v to the (name, tgt, deg) of every
        basis element with source v, in basis order: the layout of a
        free summand at v, which minimal resolutions read.

        right maps each basis element y to {x: ((z, k), ...)} for every
        x with x * y nonzero, the terms of x * y in result order: the
        listed products and the implicit ones with idempotents
        (e_src(y) * y = y, x * e_tgt(x) = x). The resolutions' right
        action and the associativity check read it."""
        self.name = name
        if not vertices:
            raise ValueError("algebra needs at least one vertex")
        self.vertices = list(vertices)
        self._vindex = {}
        for v in self.vertices:
            if type(v) is not str:
                raise ValueError("vertex %r is not a string" % (v,))
            if v in self._vindex:
                raise ValueError("duplicate vertex names")
            self._vindex[v] = len(self._vindex)
        self.basis = {}
        self.leaving = {v: [] for v in self.vertices}
        self.idempotent = {}
        self.neg_names = []
        for bname, src, tgt, deg in basis:
            if not (type(bname) is type(src) is type(tgt) is str):
                raise ValueError("basis element %r has a name/src/tgt that "
                                 "is not a string" % (bname,))
            if bname in self.basis:
                raise ValueError("duplicate basis element %r" % bname)
            if src not in self._vindex or tgt not in self._vindex:
                raise ValueError("basis element %r uses an unknown vertex"
                                 % bname)
            if type(deg) is not int:  # bool and float refused
                raise ValueError("basis element %r has a degree that is not "
                                 "an integer" % bname)
            if deg > 0:
                raise ValueError("basis element %r has positive degree %d"
                                 % (bname, deg))
            if deg < 0:
                self.neg_names.append(bname)
            elif src != tgt:
                raise ValueError("degree-0 element %r is not a loop" % bname)
            elif src in self.idempotent:
                raise ValueError("vertex %r has two degree-0 elements" % src)
            else:
                self.idempotent[src] = bname
            self.basis[bname] = (src, tgt, deg)
            self.leaving[src].append((bname, tgt, deg))
        for v in self.vertices:
            if v not in self.idempotent:
                raise ValueError("vertex %r has no degree-0 idempotent" % v)
        self.basis_order = list(self.basis)
        self.right = {y: {self.idempotent[src]: ((y, 1),)}
                      for y, (src, _, _) in self.basis.items()}
        for x, (_, tgt, _) in self.basis.items():
            self.right[self.idempotent[tgt]][x] = ((x, 1),)
        idem_names = set(self.idempotent.values())
        self.mult = {}
        for (left, right), result in mult.items():
            if left not in self.basis or right not in self.basis:
                raise ValueError("product %r * %r uses an unknown element"
                                 % (left, right))
            if left in idem_names or right in idem_names:
                raise ValueError("products with idempotents are implicit; "
                                 "remove %r * %r" % (left, right))
            lsrc, ltgt, ldeg = self.basis[left]
            rsrc, rtgt, rdeg = self.basis[right]
            if ltgt != rsrc:
                raise ValueError("product %r * %r is not composable"
                                 % (left, right))
            clean = {}
            for rname, coeff in result.items():
                if type(coeff) is not int:  # bool and float refused
                    raise ValueError("product %r * %r has a coefficient that "
                                     "is not an integer" % (left, right))
                if rname not in self.basis:
                    raise ValueError("product %r * %r mentions unknown %r"
                                     % (left, right, rname))
                csrc, ctgt, cdeg = self.basis[rname]
                if csrc != lsrc or ctgt != rtgt:
                    raise ValueError("product %r * %r has result %r with "
                                     "mismatched endpoints" % (left, right, rname))
                if cdeg != ldeg + rdeg:
                    raise ValueError("product %r * %r has result %r violating "
                                     "degree additivity" % (left, right, rname))
                if coeff:
                    clean[rname] = coeff
            if clean:
                self.mult[(left, right)] = clean
                self.right[right][left] = tuple(clean.items())
        self._check_associativity()

    def _check_associativity(self):
        """Checks (xy)z = x(yz) on the triples with x*y or y*z listed
        in mult and reports the first failing one in basis order. No
        other triple can fail: one holding an idempotent associates
        because the endpoints of every listed product were checked
        above, and if x*y = y*z = 0 both sides vanish."""
        right, mult, basis = self.right, self.mult, self.basis
        by_src, by_tgt = {}, {}
        for b in self.neg_names:
            by_src.setdefault(basis[b][0], []).append(b)
            by_tgt.setdefault(basis[b][1], []).append(b)
        # each triple once: x*y listed, or else y*z listed
        triples = itertools.chain(
            ((x, y, z) for x, y in mult for z in by_src.get(basis[y][1], ())),
            ((x, y, z) for y, z in mult for x in by_tgt.get(basis[y][0], ())
             if (x, y) not in mult))
        failing = []
        for x, y, z in triples:
            diff = {}
            by_z = right[z]
            for mid, c in right[y].get(x, ()):
                for r, k in by_z.get(mid, ()):
                    diff[r] = diff.get(r, 0) + c * k
            for mid, c in by_z.get(y, ()):
                for r, k in right[mid].get(x, ()):
                    diff[r] = diff.get(r, 0) - c * k
            if any(diff.values()):
                failing.append((x, y, z))
        if failing:
            index = {b: i for i, b in enumerate(self.basis_order)}
            first = min(failing, key=lambda t: [index[b] for b in t])
            raise ValueError("associativity fails at (%r, %r, %r)" % first)


def load_algebra(doc: dict) -> GradedAlgebra:
    """Build an algebra from its JSON document form:
    {"vertices": [...], "basis": [{"name","src","tgt","deg"}, ...],
     "mult": [{"left","right","result": {name: coeff}}, ...]}.
    Vertex idempotents may be listed (one degree-0 loop per vertex)
    or omitted, in which case e_<vertex> is supplied. A document with
    more than MAX_VERTICES vertices, MAX_BASIS_RECORDS basis records,
    MAX_MULT_RECORDS mult records or MAX_MULT_TERMS result terms in all
    is refused before any record is read."""
    if not isinstance(doc, dict):
        raise ValueError("algebra document must be a JSON object")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str)
                                                 for v in vertices):
        raise ValueError("'vertices' must be a list of strings")
    basis_recs = doc.get("basis", [])
    mult_recs = doc.get("mult", [])
    for key, recs, limit in (("vertices", vertices, MAX_VERTICES),
                             ("basis", basis_recs, MAX_BASIS_RECORDS),
                             ("mult", mult_recs, MAX_MULT_RECORDS)):
        if not isinstance(recs, list):
            raise ValueError("'%s' must be a list" % key)
        if len(recs) > limit:
            raise ValueError("'%s' has %d entries, more than the limit of %d"
                             % (key, len(recs), limit))
    terms = sum(len(rec["result"]) for rec in mult_recs
                if isinstance(rec, dict)
                and isinstance(rec.get("result"), dict))
    if terms > MAX_MULT_TERMS:
        raise ValueError("'mult' has %d result terms, more than the limit "
                         "of %d" % (terms, MAX_MULT_TERMS))
    basis = []
    names = set()
    for rec in basis_recs:
        try:
            entry = (rec["name"], rec["src"], rec["tgt"], rec["deg"])
        except (KeyError, TypeError):
            raise ValueError("basis record %r needs name/src/tgt/deg" % (rec,))
        if not (type(entry[0]) is type(entry[1]) is type(entry[2]) is str):
            raise ValueError("basis record %r has a name/src/tgt that is "
                             "not a string" % (rec,))
        if type(entry[3]) is not int:  # bool and float refused
            raise ValueError("basis record %r has a degree that is not an "
                             "integer" % (rec,))
        basis.append(entry)
        names.add(entry[0])
    have_idem = {b[1] for b in basis if b[3] == 0}
    for v in vertices:
        if v not in have_idem:
            auto = "e_" + v
            if auto in names:
                raise ValueError("cannot synthesize idempotent %r: "
                                 "name already in use" % auto)
            basis.append((auto, v, v, 0))
    mult = {}
    for rec in mult_recs:
        try:
            key = (rec["left"], rec["right"])
            result = {str(k): c for k, c in rec["result"].items()}
        except (KeyError, TypeError, AttributeError):
            raise ValueError("mult record %r needs left/right/result" % (rec,))
        if not (type(key[0]) is type(key[1]) is str):
            raise ValueError("mult record %r has a left/right that is not a "
                             "string" % (rec,))
        if not all(type(c) is int for c in result.values()):
            raise ValueError("mult record %r has a coefficient that is not "
                             "an integer" % (rec,))
        if key in mult:
            raise ValueError("product %r * %r listed twice" % key)
        mult[key] = result
    return GradedAlgebra(vertices, basis, mult,
                         name=str(doc.get("name", "algebra")))


def builtin_algebra(name: str) -> GradedAlgebra:
    """Named example algebras. 'torsion_p1:L' takes the torsion
    constant L, a string of decimal digits below 2^31, after the colon
    (2 when there is no colon); no other name takes one."""
    point = [("e", "pt", "pt", 0), ("x", "pt", "pt", -1)]
    loops = [("e_a", "a", "a", 0), ("e_b", "b", "b", 0)]
    # the quiver a <-> b of p1 and torsion_p1, with its loops
    quiver = loops + [("u", "a", "b", -1), ("v", "b", "a", -1)]
    specs = {
        "dual_numbers": (["pt"], point, {}),
        "p1": (["a", "b"], quiver + [("vu", "b", "b", -2)],
               {("v", "u"): {"vu": 1}}),
        "x3_truncation": (["pt"], point + [("x2", "pt", "pt", -2)],
                          {("x", "x"): {"x2": 1}}),
        "semisimple": (["a", "b"], loops, {}),
    }
    spec = specs.get(name)
    base, colon, param = name.partition(":")
    if base == "torsion_p1":
        if colon and not (param.isascii() and param.isdigit()):
            raise ValueError("builtin algebra %r needs a torsion constant "
                             "of decimal digits after the colon" % name)
        # counting digits first keeps int() off a string of any length
        digits = (param if colon else "2").lstrip("0") or "0"
        l = int(digits) if len(digits) <= 10 else 2 ** 31
        if l >= 2 ** 31:
            raise ValueError("builtin algebra 'torsion_p1' needs a torsion "
                             "constant below 2^31")
        name = "torsion_p1:%d" % l
        spec = (["a", "b"],
                quiver + [("w", "a", "a", -2), ("z", "b", "b", -2)],
                {("u", "v"): {"w": l}, ("v", "u"): {"z": 1}})
    if spec is None:
        raise ValueError("unknown builtin algebra %r" % name)
    return GradedAlgebra(*spec, name=name)


def as_field(field):
    """Accepts 'Q', 'F:5', 'F5', or a field object."""
    if isinstance(field, (FieldQ, FieldF)):
        return field
    if isinstance(field, str):
        t = field.strip().upper()
        if t == "Q":
            return FieldQ()
        digits = t[2:] if t.startswith("F:") else t[1:]
        if t.startswith("F") and digits.isascii() and digits.isdigit():
            # counting digits first keeps int() off a string of any length
            size = len(digits.lstrip("0"))
            if size > 10:
                raise ValueError("field characteristic of %d digits is too "
                                 "large; primes must be below 2^31" % size)
            return FieldF(int(digits))
    raise ValueError("cannot interpret field %r; use Q or F:l" % (field,))


def default_imax(algebra: GradedAlgebra) -> int:
    """2 * (#vertices + deepest |degree|), at most MAX_IMAX."""
    deepest = max(-deg for (_, _, deg) in algebra.basis.values())
    return min(2 * (len(algebra.vertices) + deepest), MAX_IMAX)


def _checked_imax(algebra: GradedAlgebra, i_max) -> int:
    if i_max is None:
        return default_imax(algebra)
    if type(i_max) is not int or not 1 <= i_max <= MAX_IMAX:  # bool refused
        raise ValueError("i_max must be an integer in 1..%d, got %r"
                         % (MAX_IMAX, i_max))
    return i_max


def _block_order(algebra, keys):
    return sorted(keys, key=lambda k: (-k[1], algebra._vindex[k[0]]))


def _act(algebra, p, fbasis, pos, key, vec, aname):
    """Right action of a basis element aname leaving the vertex of key
    on a sparse block vector of ints (residues when p > 0); returns
    (newkey, newvec) or None when the image is zero. The terms of
    b * aname come from algebra.right."""
    _, atgt, adeg = algebra.basis[aname]
    newkey = (atgt, key[1] + adeg)
    npos = pos.get(newkey)
    if not npos:
        return None
    src = fbasis[key]
    times = algebra.right[aname].get
    out = {}
    for idx, c in vec.items():
        t, bname = src[idx]
        for cname, k in times(bname, ()):
            j = npos[(t, cname)]
            out[j] = out.get(j, 0) + c * k
    if p:
        out = {j: r for j, x in out.items() if (r := x % p)}
    else:
        out = {j: x for j, x in out.items() if x}
    if not out:
        return None
    return newkey, out


def _advance(algebra, field, fbasis, blocks, step, last=False):
    """Step `step` of the minimal resolution. fbasis lays out the
    current free module: at each (vertex, degree) key, its basis vectors
    (t, b) there, b leaving the vertex of summand t. blocks holds a
    submodule M of it: at each key, a basis of M there as sparse vectors
    over fbasis[key]. Returns the summands (vertex, shift) of M's
    minimal cover P -> M, one per generator, the layout of P, and the
    kernel of P -> M as blocks over P.

    One pass visits the keys in _block_order, degree 0 first. A
    generator t found at (v, d) lays out (t, b) at (tgt b, d + deg b)
    for each (b, tgt b, deg b) in algebra.leaving[v]; the idempotent
    lands at (v, d) itself and every other b at a later key. At each key
    the images of the (t, b) laid out there so far, one _act each, span
    M*J (the generators above the key generate M, by graded Nakayama).
    Their kernel is the kernel of P -> M there: the new generators,
    which their idempotents map to themselves, are independent of the
    images and add no kernel vector. The first vectors of M outside the
    images' span are the new generators, so no vector of M is ever
    acted on.

    With last, only whether the kernel is zero is wanted: no kernel
    vector is computed, and the returned blocks map each key where the
    images are dependent to None.

    Raises ValueError as soon as P passes MAX_FREE_RANK basis vectors,
    and RuntimeError when the vectors at a key are not a basis of a
    module holding the images there."""
    p = field.p
    leaving = algebra.leaving
    pos = {key: {tb: i for i, tb in enumerate(lst)}
           for key, lst in fbasis.items()}
    keys = set(blocks)
    keys.update((tgt, d + deg) for v, d in blocks
                for _, tgt, deg in leaving[v])
    generators, fbasis2, new_blocks = [], {}, {}
    rank = 0
    for key in _block_order(algebra, keys):
        columns = []
        for t, bname in fbasis2.get(key, ()):
            res = _act(algebra, p, fbasis, pos, *generators[t], bname)
            columns.append({} if res is None else res[1])
        if last:
            span = Echelon(p)
            independent = sum(map(span.add, columns))
            if independent < len(columns):
                new_blocks[key] = None
        else:
            kern = (kernel_basis(columns, len(fbasis.get(key, ())), field)
                    if columns else [])
            if kern:
                new_blocks[key] = kern
            independent = len(columns) - len(kern)
        vecs = blocks.get(key, ())
        missing = len(vecs) - independent
        if not missing:
            continue
        if not last:
            span = Echelon(p)
            for col in columns:
                span.add(col)
        vtx, d = key
        for vec in vecs:
            if not missing:
                break
            if span.add(vec):
                missing -= 1
                t = len(generators)
                generators.append((key, vec))
                for bname, tgt, deg in leaving[vtx]:
                    fbasis2.setdefault((tgt, d + deg), []).append((t, bname))
                rank += len(leaving[vtx])
                if rank > MAX_FREE_RANK:
                    raise ValueError("step %d of the resolution needs a free "
                                     "module with at least %d basis vectors; "
                                     "the limit is %d"
                                     % (step, rank, MAX_FREE_RANK))
        if missing:
            raise RuntimeError("cover is not minimal")
    summands = [key for key, _ in generators]
    return summands, fbasis2, new_blocks


@dataclass
class Resolution:
    """Minimal graded resolution data for one simple module: steps[i]
    lists (vertex, shift) summands of the i-th projective; finished
    means the kernel vanished before i_max was reached."""
    vertex: str
    steps: list
    finished: bool
    i_max: int


def _resolve(algebra, lam, field, i_max):
    """Steps 1, 2, ... of the minimal resolution of the simple at lam,
    at most i_max of them: yields each step's summands (vertex, shift)
    and whether its kernel vanished. A simple with zero radical yields
    nothing; a caller may stop early."""
    # P_lam lays out (0, b) for each b leaving lam; M is its radical,
    # spanned by every (0, b) but the idempotent's, the one b of degree 0
    fbasis, blocks = {}, {}
    for bname, tgt, deg in algebra.leaving[lam]:
        row = fbasis.setdefault((tgt, deg), [])
        if deg:
            blocks.setdefault((tgt, deg), []).append({len(row): 1})
        row.append((0, bname))
    for step in range(1, i_max + 1):
        if not blocks:
            break
        # the kernel of the last step is only tested for zero
        summands, fbasis, blocks = _advance(
            algebra, field, fbasis, blocks, step, step == i_max)
        yield summands, not blocks


def minimal_resolution(algebra: GradedAlgebra, lam: str, field,
                       i_max: int | None = None) -> Resolution:
    field = as_field(field)
    if lam not in algebra.idempotent:
        raise ValueError("unknown vertex %r" % lam)
    i_max = _checked_imax(algebra, i_max)
    # a simple with zero radical is its own resolution
    steps, finished = [[(lam, 0)]], True
    for summands, finished in _resolve(algebra, lam, field, i_max):
        steps.append(summands)
    return Resolution(lam, steps, finished, i_max)


@dataclass
class ExtTable:
    """Graded Ext dimensions read off the minimal resolutions:
    dim Ext^i(L_lam, L_mu)_s = multiplicity of (mu, s) in step i of
    the resolution of L_lam."""
    algebra_name: str
    field_name: str
    i_max: int
    resolutions: dict

    def dims(self) -> dict:
        out = {}
        for lam, res in self.resolutions.items():
            for i, step in enumerate(res.steps):
                for (mu, s) in step:
                    key = (i, lam, mu, s)
                    out[key] = out.get(key, 0) + 1
        return out


def ext_table(algebra: GradedAlgebra, field, i_max: int | None = None) -> ExtTable:
    field = as_field(field)
    i_max = _checked_imax(algebra, i_max)
    resolutions = {}
    for lam in algebra.vertices:
        resolutions[lam] = minimal_resolution(algebra, lam, field, i_max)
    return ExtTable(algebra.name, field.name, i_max, resolutions)


@dataclass
class KoszulReport:
    algebra_name: str
    field_name: str
    is_koszul: bool
    i_max: int
    first_violation: tuple | None

    def render_text(self) -> str:
        if self.is_koszul:
            return ("koszul: true (algebra %s over %s, checked up to i = %d)"
                    % (self.algebra_name, self.field_name, self.i_max))
        i, lam, mu, s = self.first_violation
        return ("koszul: false (algebra %s over %s, first violation at "
                "i = %d resolving %s: summand (%s, %d))"
                % (self.algebra_name, self.field_name, i, lam, mu, s))

    def to_json_dict(self):
        out = {"algebra": self.algebra_name, "field": self.field_name,
               "koszul": self.is_koszul, "i_max": self.i_max}
        if self.first_violation is not None:
            i, lam, mu, s = self.first_violation
            out["first_violation"] = {"i": i, "simple": lam,
                                      "vertex": mu, "shift": s}
        return out


def is_koszul(algebra: GradedAlgebra, field,
              i_max: int | None = None) -> KoszulReport:
    """Whether step i of the resolution of every simple is generated in
    degree -i for i <= i_max, with the first violation (i, lam, mu, s)
    in the order step i, then vertex lam, then summand.

    The simples are resolved in vertex order, each only until its first
    violating step. Once a violation at step i is found, a later simple
    can only come first at a step below i, so it is resolved to step
    i - 1 at most. A non-Koszul verdict thus costs only the steps up to
    its first violation, and an algebra whose full resolutions would
    pass MAX_FREE_RANK after that step gets its verdict instead of the
    ValueError ext_table raises."""
    field = as_field(field)
    i_max = _checked_imax(algebra, i_max)
    first = None
    for lam in algebra.vertices:
        limit = i_max if first is None else first[0] - 1
        for i, (summands, _) in enumerate(
                _resolve(algebra, lam, field, limit), 1):
            bad = [(i, lam, mu, s) for mu, s in summands if s != -i]
            if bad:
                first = bad[0]
                break
    return KoszulReport(algebra.name, field.name, first is None, i_max,
                        first)


@dataclass
class IntegralReport:
    algebra_name: str
    l: int
    koszul_over_q: bool
    koszul_over_f: bool
    dims_match: bool
    verdict: str

    def render_text(self) -> str:
        if not self.dims_match:
            return ("ext dimensions differ between Q and F%d: Ext is not "
                    "free over the integral form, verdict inapplicable"
                    % self.l)
        word = "true" if self.verdict == "koszul" else "false"
        return ("ext dimensions match over Q and F%d; koszul: %s"
                % (self.l, word))

    def to_json_dict(self):
        return {"algebra": self.algebra_name, "l": self.l,
                "koszul_over_Q": self.koszul_over_q,
                "koszul_over_F": self.koszul_over_f,
                "ext_dims_match": self.dims_match,
                "verdict": self.verdict}


def integral_koszul_check(algebra: GradedAlgebra, l: int,
                          i_max: int | None = None) -> IntegralReport:
    """Compare graded Ext over Q and over F_l. Each verdict is read off
    the dimensions compared, Koszul when every Ext^i sits in degree -i,
    so matching dimensions give matching verdicts; differing dimensions
    mean Ext has l-torsion and the rational verdict does not transfer
    to characteristic l. A bad l is refused before any resolution."""
    field = FieldF(l)
    dims_q = ext_table(algebra, "Q", i_max).dims()
    dims_f = ext_table(algebra, field, i_max).dims()
    kq, kf = (all(s == -i for i, _, _, s in dims)
              for dims in (dims_q, dims_f))
    match = dims_q == dims_f
    verdict = ("inapplicable" if not match
               else "koszul" if kq else "not_koszul")
    return IntegralReport(algebra.name, l, kq, kf, match, verdict)


# The packed Cartan matrix. C[a][b] counts the basis elements a -> b
# by degree, so at u = v^-1 it is a polynomial in u with nonnegative
# coefficients, and row a sums to r_a = len(leaving[a]) >= 1 at u = 1.
#   - Every minor of [C | I] is +- a minor of C (expand along the
#     identity columns). The determinant, every adjugate entry and
#     every value _linalg.bareiss stores after a division are such
#     minors.
#   - Expanding a minor on rows R over permutations, the coefficients
#     of each product of entries sum to its value at u = 1, and these
#     values sum to at most the product of the rows' sums (the
#     permanent bound). So every coefficient is at most
#     prod_(a in R) r_a <= prod_a r_a in absolute value.
#   - With B = (prod_a r_a).bit_length() + 1, each such coefficient
#     lies in [-2^(B-1), 2^(B-1)), so balanced digits at 2^B read every
#     stored value back exactly, and a nonzero minor packs to a nonzero
#     int: the pivot search takes the same rows as over Z[u].
#   - The products formed before each exact division may carry across
#     digits. That is harmless: evaluation at 2^B is a ring map and each
#     division is exact in Z[u], so the int division is exact too and
#     its quotient is the packed quotient.
#   - A minor on rows R has u-degree at most sum_(a in R) D_a, with D_a
#     the deepest |degree| of a basis element leaving a, so a packed
#     value needs at most (sum_a D_a + 1) B bits.
# Largest (sum_a D_a + 1) B that cartan_inverse accepts. The cost grows
# with the vertex count and this width: at MAX_VERTICES vertices,
# seeded quivers with cycles just inside it took up to 1.0 s on a 2-core
# VM, and 3.6 s at 6,695 bits (two unit-degree arrows at every vertex).
MAX_CARTAN_BITS = 5500


def cartan_inverse(algebra: GradedAlgebra):
    """Inverse of the graded dimension table C, rows and columns in
    vertex order, as rows of LaurentPoly. Raises ValueError when det C
    is not +-v^k.

    C is packed at u = v^-1 = 2^B, with B = (prod_a r_a).bit_length()
    + 1 and r_a = len(leaving[a]), and one _linalg.bareiss pass on ints
    eliminates [C | I]; balanced digits at 2^B read the determinant and
    the adjugate back exactly (the proof is the comment above). A
    packed value takes up to (sum_a D_a + 1) B bits, with D_a the
    deepest |degree| of a basis element leaving a. Past MAX_CARTAN_BITS
    the algebra is refused with ValueError before any elimination, even
    when C is invertible: the path algebra of a 48-vertex chain of
    degree -1 arrows cut at paths of length 2 needs 7,050 bits, and a
    chain of 8 vertices with arrows of degree -2000 needs 126,009. At
    MAX_VERTICES vertices a call near the budget takes about a
    second."""
    index = algebra._vindex
    n = len(index)
    scale, depth = 1, 0
    for leaving in algebra.leaving.values():
        scale *= len(leaving)
        depth -= min(deg for _, _, deg in leaving)
    bits = scale.bit_length() + 1
    if (depth + 1) * bits > MAX_CARTAN_BITS:
        raise ValueError("the Cartan matrix of %s packs into %d bits per "
                         "entry; the limit is %d"
                         % (algebra.name, (depth + 1) * bits,
                            MAX_CARTAN_BITS))
    rows = [[0] * n + [int(c == r) for c in range(n)] for r in range(n)]
    for a, leaving in algebra.leaving.items():
        row = rows[index[a]]
        for _, tgt, deg in leaving:
            row[index[tgt]] += 1 << bits * -deg
    det, adj = bareiss(rows)
    # det = +-u^k packs to +-2^(bits k), whose bit length is bits k + 1
    k = abs(det).bit_length() // bits
    if det not in (1 << bits * k, -1 << bits * k):
        raise ValueError("determinant %s is not a unit Laurent monomial"
                         % unpack(det, bits).render())
    sign = 1 if det > 0 else -1
    return [[unpack(sign * x, bits, k) for x in row] for row in adj]
