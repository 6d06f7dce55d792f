"""koszul: koszulbench.koszul and koszulbench._linalg over Q and F_l.

Every job parses an algebra from a JSON document made at set-up time,
builds it with load_algebra (which runs the associativity check) and
then resolves it:
  * quadratic monomial algebras on seeded acyclic quivers, ext_table
    over Q for even job numbers and over a seeded F_l for odd ones;
  * exterior algebras of k^3 and k^4 through integral_koszul_check,
    and again through ext_table over every F_l and over Q;
  * truncations k[x]/(x^n), n = 3..12, through is_koszul;
  * torsion_p1:l through integral_koszul_check at the same l;
  * cartan_inverse on the four largest quivers.

Checks: for a monomial algebra the summands at step i are the chains
of i arrows in which every neighbouring pair is a relation; Ext^i of
the exterior algebra of k^d has C(d+i-1, i) summands, all at shift -i;
k[x]/(x^n) first fails at (2, pt, pt, -n); the Euler matrix read off
the resolutions equals cartan_inverse.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb

from koszulbench import koszul

from .common import Job, laurent_plain

# (vertices, arrows, relations, basis size) of the quiver jobs, cycled.
# Most are mid-sized, so the median job falls inside one cluster of
# similar jobs rather than between two.
SMALL, MEDIUM, LARGE = (4, 6, 2, 10), (6, 9, 4, 16), (8, 11, 5, 20)
QUIVER_SIZES = ((SMALL,) * 4 + ((5, 7, 3, 12),) * 4 + (MEDIUM,) * 8
                + ((7, 10, 4, 18),) * 2 + (LARGE,) * 2)
QUIVERS = 100
CARTAN_JOBS = 4
FIELDS_L = (2, 3, 5, 7)
# (d, i_max) for integral_koszul_check, for ext_table over each F_l,
# and for ext_table over Q. These fixed-size jobs are the slowest tenth
# of the job list, so job_s.p90 does not depend on the seed.
EXTERIOR_INTEGRAL = ((3, 6), (4, 5))
EXTERIOR_F = ((3, 8), (3, 9), (4, 4))
EXTERIOR_Q = ((3, 5), (4, 3))
TRUNCATIONS = range(3, 13)


# -- algebra documents -----------------------------------------------------


def monomial_doc(rng, vertices, arrows, relations, size):
    """A quadratic monomial algebra: a random acyclic quiver (every
    arrow goes from a lower to a higher vertex), `relations` of its
    composable pairs of arrows set to zero, and as basis every path
    that contains no relation. Quivers are drawn again until the basis
    has exactly `size` paths, so the job size does not depend on the
    seed."""
    while True:
        arrow_list = []
        for t in range(arrows):
            i = rng.randrange(vertices - 1)
            arrow_list.append(("a%d" % t, i, rng.randrange(i + 1, vertices)))
        pairs = [(a[0], b[0]) for a in arrow_list for b in arrow_list
                 if a[2] == b[1]]
        if len(pairs) < relations:
            continue
        rels = sorted(rng.sample(pairs, relations))
        relset = set(rels)
        paths = [[a] for a in arrow_list]
        frontier = paths
        while frontier and len(paths) <= size:
            frontier = [p + [b] for p in frontier for b in arrow_list
                        if p[-1][2] == b[1] and (p[-1][0], b[0]) not in relset]
            paths += frontier
        if len(paths) == size:
            break
    name = {id(p): ".".join(a[0] for a in p) for p in paths}
    basis = [{"name": name[id(p)], "src": "v%d" % p[0][1],
              "tgt": "v%d" % p[-1][2], "deg": -len(p)} for p in paths]
    mult = []
    for p in paths:
        for q in paths:
            if p[-1][2] == q[0][1] and (p[-1][0], q[0][0]) not in relset:
                mult.append({"left": name[id(p)], "right": name[id(q)],
                             "result": {name[id(p)] + "." + name[id(q)]: 1}})
    doc = {"vertices": ["v%d" % i for i in range(vertices)],
           "basis": basis, "mult": mult}
    return doc, [(a, "v%d" % i, "v%d" % j) for a, i, j in arrow_list], rels


def exterior_doc(d):
    """The exterior algebra of k^d on one vertex, x_S in degree -|S|."""
    subsets = [s for r in range(1, d + 1)
               for s in itertools.combinations(range(d), r)]

    def name(s):
        return "x" + "".join(map(str, s))

    mult = []
    for s in subsets:
        for t in subsets:
            if set(s) & set(t):
                continue
            seq = s + t
            sign = (-1) ** sum(1 for a in range(len(seq))
                               for b in range(a + 1, len(seq))
                               if seq[a] > seq[b])
            mult.append({"left": name(s), "right": name(t),
                         "result": {name(tuple(sorted(seq))): sign}})
    return {"name": "exterior_%d" % d, "vertices": ["pt"],
            "basis": [{"name": name(s), "src": "pt", "tgt": "pt",
                       "deg": -len(s)} for s in subsets],
            "mult": mult}


def truncation_doc(n):
    """k[x]/(x^n)."""
    return {"name": "truncation_%d" % n, "vertices": ["pt"],
            "basis": [{"name": "x%d" % a, "src": "pt", "tgt": "pt",
                       "deg": -a} for a in range(1, n)],
            "mult": [{"left": "x%d" % a, "right": "x%d" % b,
                      "result": {"x%d" % (a + b): 1}}
                     for a in range(1, n) for b in range(1, n - a)]}


def torsion_doc(l):
    """The builtin torsion_p1:l written out as a document."""
    edges = (("u", "a", "b", -1), ("v", "b", "a", -1),
             ("w", "a", "a", -2), ("z", "b", "b", -2))
    return {"name": "torsion_p1:%d" % l, "vertices": ["a", "b"],
            "basis": [{"name": n, "src": s, "tgt": t, "deg": d}
                      for n, s, t, d in edges],
            "mult": [{"left": "u", "right": "v", "result": {"w": l}},
                     {"left": "v", "right": "u", "result": {"z": 1}}]}


# -- job bodies ----------------------------------------------------------


def _load(text):
    return koszul.load_algebra(json.loads(text))


def _steps(table):
    return [[res.finished, [sorted([mu, s] for mu, s in step)
                            for step in res.steps]]
            for res in table.resolutions.values()]


def _resolve(text, field, i_max=None):
    return _steps(koszul.ext_table(_load(text), field, i_max))


def _integral(text, l, i_max=None):
    report = koszul.integral_koszul_check(_load(text), l, i_max)
    return [report.verdict, report.dims_match, report.koszul_over_q,
            report.koszul_over_f]


def _truncations(texts, field):
    out = []
    for text in texts:
        report = koszul.is_koszul(_load(text), field)
        out.append([report.is_koszul, list(report.first_violation or [])])
    return out


def _cartan(text):
    return [[laurent_plain(p) for p in row]
            for row in koszul.cartan_inverse(_load(text))]


def make_jobs(seed: int):
    rng = random.Random(seed)
    jobs = []
    largest = []
    for j in range(QUIVERS):
        size = QUIVER_SIZES[j % len(QUIVER_SIZES)]
        doc, arrows, rels = monomial_doc(rng, *size)
        field = "Q" if j % 2 == 0 else "F:%d" % rng.choice(FIELDS_L)
        jobs.append(Job("monomial", "monomial quiver %d over %s" % (j, field),
                        _resolve, (json.dumps(doc), field),
                        {"arrows": arrows, "rels": rels,
                         "vertices": doc["vertices"]}))
        if size == LARGE:
            largest.append(len(jobs) - 1)
    texts = {d: json.dumps(exterior_doc(d)) for d in (3, 4)}
    for d, i_max in EXTERIOR_INTEGRAL:
        l = rng.choice(FIELDS_L)
        jobs.append(Job("integral", "exterior k^%d integral, l = %d" % (d, l),
                        _integral, (texts[d], l, i_max), {"want": "koszul"}))
    fields = [("F:%d" % l, d, i_max) for d, i_max in EXTERIOR_F
              for l in FIELDS_L] + [("Q", d, i_max) for d, i_max in EXTERIOR_Q]
    for field, d, i_max in fields:
        jobs.append(Job("exterior", "exterior k^%d over %s" % (d, field),
                        _resolve, (texts[d], field, i_max), {"d": d}))
    texts = [json.dumps(truncation_doc(n)) for n in TRUNCATIONS]
    for field in ("Q", "F:%d" % rng.choice(FIELDS_L)):
        jobs.append(Job("truncation", "k[x]/(x^n) over %s" % field,
                        _truncations, (texts, field)))
    for l in FIELDS_L:
        jobs.append(Job("integral", "torsion_p1:%d integral" % l, _integral,
                        (json.dumps(torsion_doc(l)), l),
                        {"want": "inapplicable"}))
    for partner in largest[-CARTAN_JOBS:]:
        jobs.append(Job("cartan", "cartan_inverse, quiver job %d" % partner,
                        _cartan, (jobs[partner].args[0],),
                        {"partner": partner}))
    return jobs


# -- checks --------------------------------------------------------------


def chain_summands(arrows, rels, vertex, i):
    """Summands (target, -i) of step i of the minimal resolution of the
    simple at `vertex` over a quadratic monomial algebra: one per chain
    a1 ... ai leaving the vertex in which every a_t a_{t+1} is a
    relation."""
    relset = set(rels)
    ends = [[(a, t) for a, s, t in arrows if s == vertex]]
    for _ in range(i - 1):
        ends.append([(b, t) for a, _ in ends[-1] for b, s, t in arrows
                     if (a, b) in relset])
    return sorted([t, -i] for _, t in ends[-1])


def _euler(steps, vertices):
    """(lam, mu) -> sum_i (-1)^i v^s, as laurent_plain, from resolution
    steps in vertex order."""
    out = []
    for _, res in steps:
        row = {mu: {} for mu in vertices}
        for i, step in enumerate(res):
            for mu, s in step:
                acc = row[mu]
                acc[s] = acc.get(s, 0) + (-1) ** i
        out.append([[[e, c] for e, c in sorted(row[mu].items()) if c]
                    for mu in vertices])
    return out


def make_checker(jobs, results):

    def check(i, result):
        job = jobs[i]
        meta = job.meta
        if job.kind == "monomial":
            vertices = meta["vertices"]
            if len(result) != len(vertices):
                return False
            for vertex, (finished, steps) in zip(vertices, result):
                if not finished or steps[0] != [[vertex, 0]]:
                    return False
                for n, step in enumerate(steps[1:], start=1):
                    if step != chain_summands(meta["arrows"], meta["rels"],
                                              vertex, n):
                        return False
                if chain_summands(meta["arrows"], meta["rels"], vertex,
                                  len(steps)):
                    return False
            return True
        if job.kind == "exterior":
            d, i_max = meta["d"], job.args[2]
            _, steps = result[0]
            # the resolution is infinite, so it must stop at i_max
            return (len(result) == 1 and not result[0][0]
                    and len(steps) == i_max + 1) and all(
                step == [["pt", -n]] * comb(d + n - 1, n)
                for n, step in enumerate(steps))
        if job.kind == "integral":
            want = meta["want"]
            if want == "koszul":
                return result == ["koszul", True, True, True]
            # torsion_p1:l is kQ/J^3 on the 2-cycle over Q, and over F_l
            # it also has the relation uv = 0; neither is Koszul (the
            # cube relations are not quadratic), and Ext has l-torsion
            return result == [want, False, False, False]
        if job.kind == "truncation":
            return result == [[False, [2, "pt", "pt", -n]]
                              for n in TRUNCATIONS]
        partner = results[meta["partner"]]
        return (partner is not None and result == _euler(
            partner, jobs[meta["partner"]].meta["vertices"]))

    return check
