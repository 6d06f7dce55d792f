"""Reference constructions and helpers shared by the test modules.

The library no longer needs the constructions: kl_inversion_check
reads the parabolic KL table and the sparse Dyck rows instead. The
tests keep them as independent routes to the same numbers.
"""

from koszulbench import mult
from koszulbench.shapes import enumerate_partitions_in_box, jump_sequence


def grassmannian_permutations(k: int, n: int):
    """Ordered (partition, permutation) pairs for the k x (n-k) box.

    The permutation is the minimal coset representative: w(i) is the
    jump sequence for i <= k and the complement in increasing order
    after that. Its length is the size of the partition.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    out = []
    for lam in enumerate_partitions_in_box(k, n - k):
        t = jump_sequence(lam, k)
        chosen = set(t)
        rest = tuple(j for j in range(1, n + 1) if j not in chosen)
        out.append((lam, t + rest))
    return out


def delta_ic(space, a, b):
    """[Delta_a : IC_b] through the per-pair functions of mult."""
    if space.kind == "gr":
        return mult.delta_ic_gr(space.k, space.n, a, b)
    return mult.delta_ic_flag(space.n, a, b)


def proj_delta_vector(space, lam):
    """[P_lam : Delta_nu] for all nu, via BGG reciprocity equal to
    [Delta_nu : IC_lam]; only nonzero entries are returned."""
    out = {}
    for nu in space.labels():
        p = delta_ic(space, nu, lam)
        if p:
            out[nu] = p
    return out


def sparse(row):
    """The sparse vector {index: entry} of a dense row: nonzero
    entries only, as _linalg.Echelon and kernel_basis take them."""
    return {i: x for i, x in enumerate(row) if x}
