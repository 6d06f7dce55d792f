"""multiplicity: the paper's pipeline, KL -> multiplicity matrices ->
Cartan -> wt -> separating prime -> phidec, plus the CLI.

Jobs (worker.py spreads each kind evenly over the pass):
  * kl_inversion_check over every gr(k,n) with n <= 7 plus (2,8), the
    sweep of acceptance criterion 03; each call builds a cold KLTable.
    The n <= 6 spaces are one batch.
  * Kazhdan-Lusztig queries in S_7 answered from one shared KLTable:
    one cold job per two fixed permutations w and their w0-conjugates,
    with seeded x below each, then warm batches of seeded queries over
    the same columns.
  * wt_space and find_separating_prime on gr and flag spaces.
  * batches of seeded is_phi_decomposable matrices built as in
    criterion 08.
  * CLI commands through koszulbench.cli.main in-process: every
    docs/golden transcript (one batch), large renders, and seeded
    `kl` queries paired with their w0-conjugates.

The permutations w are fixed (picked once by a fixed-seed generator),
so the set of KL columns computed, and with it the cost of each job,
does not depend on the workload seed; only the x below each w does.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import shlex
from math import comb

from koszulbench import cli, hecke, mult, weights
from koszulbench.mult import Space

from .common import Job, laurent_plain, run_cli

N = 7
KL_COLUMNS = 40          # fixed w, each also taken with its w0-conjugate
KL_COLD_QUERIES = 4      # per column, first touch of it
KL_WARM_BATCHES = 30
KL_WARM_QUERIES = 200
PHI_BATCHES = 60
PHI_PER_BATCH = 20
CLI_KL_PAIRS = 5
PRIMES = (3, 5, 7, 11, 13)
PHI_PRIMES = (5, 7, 11, 13)   # p - 1 >= 4, so any size up to 4 separates
WT_SPACES = ("gr:2,4", "gr:2,5", "gr:3,6", "gr:2,6", "gr:2,7", "gr:3,7",
             "gr:2,8", "gr:3,8", "gr:4,8", "gr:4,9", "flag:3", "flag:4")
RENDERS = (
    ["mult", "gr", "--k", "5", "--n", "10", "--tag", "cartan"],
    ["mult", "flag", "--n", "5"],
    ["mult", "gr", "--k", "4", "--n", "8", "--json"],
    ["weights", "--space", "flag:4"],
    ["kl", "invert-check", "--k", "3", "--n", "6"],
)


# -- permutations, built here without the library ------------------------


def _length(w):
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w))
               if w[a] > w[b])


def _singular(w):
    """Contains 3412 or 4231, so its KL column is not all ones."""
    return any(c < d < a < b or d < b < c < a
               for a, b, c, d in itertools.combinations(w, 4))


def _conjugate(w):
    """w0 w w0."""
    n = len(w)
    return tuple(n + 1 - w[n - 1 - i] for i in range(n))


def _below(rng, w, steps):
    """A permutation below w in Bruhat order: `steps` times, swap a
    random inverted pair, which always goes down."""
    x = list(w)
    for _ in range(steps):
        inv = [(a, b) for a in range(len(x)) for b in range(a + 1, len(x))
               if x[a] > x[b]]
        if not inv:
            break
        a, b = rng.choice(inv)
        x[a], x[b] = x[b], x[a]
    return tuple(x)


def fixed_columns():
    """KL_COLUMNS singular w in S_7 of length 10..16, none conjugate to
    another or to itself, from a generator with a fixed seed."""
    pick = random.Random(2013)
    cand = [w for w in itertools.permutations(range(1, N + 1))
            if 10 <= _length(w) <= 16 and _singular(w) and _conjugate(w) != w]
    chosen = []
    while len(chosen) < KL_COLUMNS:
        w = pick.choice(cand)
        if w not in chosen and _conjugate(w) not in chosen:
            chosen.append(w)
    return chosen


# -- job bodies ----------------------------------------------------------


def _inversion(spaces):
    return [mult.kl_inversion_check(k, n).ok for k, n in spaces]


def _kl_queries(table, pairs):
    return [laurent_plain(table.kl_polynomial(x, w)) for x, w in pairs]


def _wt_prime(space, l):
    wt = weights.wt_space(space)
    search = weights.find_separating_prime(wt, l)
    return [list(wt), search.status, search.prime,
            list(search.residues) if search.residues else None]


def _phidec(batch):
    out = []
    for matrix, q, l in batch:
        report = weights.is_phi_decomposable(matrix, q, l)
        out.append([report.decomposable, report.applicable])
    return out


def _cli_batch(commands):
    return [run_cli(cli.main, argv) for argv, _, _ in commands]


def _cli(argv):
    return run_cli(cli.main, argv)


# -- inputs ----------------------------------------------------------------


def _phi_matrix(rng, n, l):
    """An n x n upper-triangular integer matrix whose diagonal holds
    powers of q with pairwise distinct residues mod l: separated, so it
    must come out decomposable (criterion 08)."""
    while True:
        q = rng.randint(2, 9)
        if q % l == 0:
            continue
        exponents = list(range(8))
        rng.shuffle(exponents)
        chosen, residues = [], set()
        for e in exponents:
            r = pow(q, e, l)
            if r not in residues:
                residues.add(r)
                chosen.append(e)
            if len(chosen) == n:
                break
        if len(chosen) < n:
            continue
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = q ** chosen[i]
            for j in range(i + 1, n):
                matrix[i][j] = rng.randint(-4, 4)
        return matrix, q, l


def _golden(root):
    commands = []
    for path in sorted((root / "docs" / "golden").glob("*.txt")):
        lines = path.read_text().splitlines(keepends=True)
        argv = shlex.split(lines[0][len("$ koszulbench "):])
        commands.append((argv, int(lines[1].split()[2]), "".join(lines[2:])))
    return commands


def make_jobs(seed: int):
    rng = random.Random(seed)
    jobs = []

    small = [(k, n) for n in range(2, 7) for k in range(1, n)]
    jobs.append(Job("inversion", "kl invert-check n <= 6", _inversion,
                    (small,)))
    for k, n in [(k, 7) for k in range(1, 7)] + [(2, 8)]:
        jobs.append(Job("inversion", "kl invert-check gr(%d,%d)" % (k, n),
                        _inversion, ([(k, n)],)))

    table = hecke.KLTable(N)
    fixed = fixed_columns()
    columns = []
    for b in range(0, KL_COLUMNS, 2):
        group = [v for w in fixed[b:b + 2] for v in (w, _conjugate(w))]
        pairs = [(_below(rng, v, 3 + t), v) for v in group
                 for t in range(KL_COLD_QUERIES)]
        jobs.append(Job("kl", "kl cold columns %s" % " ".join(
            "".join(map(str, v)) for v in group), _kl_queries,
            (table, pairs)))
        columns += group
    for b in range(KL_WARM_BATCHES):
        pairs = []
        for _ in range(KL_WARM_QUERIES):
            w = rng.choice(columns)
            pairs.append((_below(rng, w, rng.randint(1, 8)), w))
        jobs.append(Job("kl", "kl warm batch %d" % b, _kl_queries,
                        (table, pairs)))

    for text in WT_SPACES:
        l = rng.choice(PRIMES)
        jobs.append(Job("wt", "wt and prime %s, l = %d" % (text, l),
                        _wt_prime, (Space.parse(text), l), {"space": text,
                                                            "l": l}))

    for b in range(PHI_BATCHES):
        # sizes and primes follow a fixed pattern, so every batch costs
        # about the same; q, the exponents and the entries are seeded
        batch = [_phi_matrix(rng, 2 + t % 3, PHI_PRIMES[t % len(PHI_PRIMES)])
                 for t in range(PHI_PER_BATCH)]
        want = [True] * PHI_PER_BATCH
        # one known non-split matrix per batch: weights 1, q with
        # q = 1 mod l, lattice index l
        l = PRIMES[b % 3]
        batch.append(([[1, 1], [0, l + 1]], l + 1, l))
        want.append(False)
        jobs.append(Job("phidec", "phidec batch %d" % b, _phidec, (batch,),
                        {"want": want}))

    root = pathlib.Path.cwd()
    jobs.append(Job("golden", "golden transcripts", _cli_batch,
                    (_golden(root),)))
    for argv in RENDERS:
        jobs.append(Job("render", "cli " + " ".join(argv), _cli, (argv,)))
    for t in range(CLI_KL_PAIRS):
        w = tuple(rng.sample(range(1, 7), 6))
        while not _singular(w) or _conjugate(w) == w:
            w = tuple(rng.sample(range(1, 7), 6))
        x = _below(rng, w, rng.randint(3, 6))
        first = len(jobs)
        for side, (a, b) in enumerate(((x, w), (_conjugate(x),
                                                _conjugate(w)))):
            argv = ["kl", "--n", "6", "--x", "".join(map(str, a)),
                    "--w", "".join(map(str, b))]
            jobs.append(Job("cli-kl", "cli " + " ".join(argv), _cli, (argv,),
                            {"partner": first + 1 - side}))
    return jobs


# -- checks --------------------------------------------------------------


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _wt_ok(meta, result):
    wt, status, prime, residues = result
    kind, _, nums = meta["space"].partition(":")
    l = meta["l"]
    if kind == "gr":
        k, n = map(int, nums.split(","))
        if wt != list(range(min(k, n - k) + 1)):
            return False
    elif nums == "3":
        if wt != [0, 1, 2, 3]:
            return False
    elif len(wt) != 7 or wt[0] != 0:
        return False
    if status == "found":
        return (_is_prime(prime) and prime != l
                and residues == [pow(prime, e, l) for e in wt]
                and len(set(residues)) == len(residues))
    if status == "none_exists":
        classes = [e % (l - 1) for e in wt]
        return (prime is None and residues is None
                and len(set(classes)) < len(classes))
    return False


def _grid(text, size):
    """Cells of a MultiplicityMatrix.render_text grid: every field is
    right-justified to one width and fields are two spaces apart."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) != size + 1:
        return None
    width = (len(lines[1]) - 2 * size) // (size + 1)
    rows = []
    for line in lines[1:]:
        rows.append([line[t * (width + 2):t * (width + 2) + width].strip()
                     for t in range(1, size + 1)])
    return rows


def _library_matrix(argv):
    """The matrix a `mult` command renders, taken from the library
    directly (its caches are warm by now, so this is cheap)."""
    if argv[1] == "gr":
        space = Space.gr(int(argv[argv.index("--k") + 1]),
                         int(argv[argv.index("--n") + 1]))
    else:
        space = Space.flag(int(argv[argv.index("--n") + 1]))
    if "cartan" in argv:
        return mult.graded_cartan(space)
    return mult.delta_ic_matrix(space)


def _render_ok(argv, result):
    code, out, err = result
    if code != 0 or err:
        return False
    # The structure is checked on the printed matrix itself: delta_ic
    # matrices are unitriangular in the label order (labels are sorted
    # by dimension); Cartan matrices are symmetric with constant term 1
    # on the diagonal. The rest of each printed entry is checked byte
    # for byte against the library's own matrix.
    if argv[:2] == ["mult", "gr"] and "--json" in argv:
        doc = json.loads(out)
        entries = doc["entries"]
        size = comb(8, 4)
        return len(entries) == size and all(
            entries[i][j] == ({"0": 1} if i == j else {})
            for i in range(size) for j in range(i, size)) and doc == (
                json.loads(json.dumps(_library_matrix(argv).to_json_dict())))
    if argv[:2] == ["mult", "gr"]:
        cells = _grid(out, comb(10, 5))
        return cells is not None and all(
            cells[i][j] == cells[j][i] if i != j
            else cells[i][i] == "1" or cells[i][i].startswith("1 + ")
            for i in range(len(cells)) for j in range(i, len(cells))) and (
                out == _library_matrix(argv).render_text() + "\n")
    if argv[:2] == ["mult", "flag"]:
        cells = _grid(out, 120)
        return cells is not None and all(
            cells[i][j] == ("1" if i == j else "0")
            for i in range(120) for j in range(i, 120)) and (
                out == _library_matrix(argv).render_text() + "\n")
    if argv[0] == "weights":
        # flag(4): wt is every exponent 0..l(w0) = 6
        terms = ["1", "q"] + ["q^%d" % e for e in range(2, 7)]
        return out == "wt = {%s}, wr = 7\n" % ",".join(terms)
    return out == "pass\n"


def make_checker(jobs, results):

    def check(i, result):
        job = jobs[i]
        if job.kind == "inversion":
            return result == [True] * len(job.args[0])
        if job.kind == "kl":
            table, pairs = job.args
            # P_{x,w} = P_{w0 x w0, w0 w w0}; the conjugate column is a
            # different key in the table, so this is a real cross-check
            return len(result) == len(pairs) and all(
                got == laurent_plain(table.kl_polynomial(_conjugate(x),
                                                         _conjugate(w)))
                and got[0] == [0, 1]
                for (x, w), got in zip(pairs, result))
        if job.kind == "wt":
            return _wt_ok(job.meta, result)
        if job.kind == "phidec":
            return [r[0] for r in result] == job.meta["want"] and all(
                r[1] for r in result)
        if job.kind == "golden":
            return [[code, out, err] for code, out, err in result] == [
                [code, out, ""] for _, code, out in job.args[0]]
        if job.kind == "render":
            return _render_ok(job.args[0], result)
        partner = results[job.meta["partner"]]
        return (result[0] == 0 and result[1].startswith("P = ")
                and result[2] == "" and partner is not None
                and result[1] == partner[1])

    return check
