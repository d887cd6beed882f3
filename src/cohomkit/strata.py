"""Finite shadows of the stratification theorems: the thick tensor ideal
lattice of kC_p by brute force on Jordan types, and F-isomorphism
certificates for ring-map slices (the spectra-bijection criterion).

All stable-category operations are realized concretely on Jordan blocks:
syzygy is reflection a -> p-a, tensor decompositions come from rank
sequences of the nilpotent part, and short exact sequences among blocks are
enumerated by explicit matrix search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from . import kernels
from .abelian import require_prime
from .cohomology import CohomologyClass, CohomologyGroup, cohomology_system
from .config import size_cap
from .cup import GradedRingSlice, basis_block, product_blocks, ring_slice
from .errors import SizeCapExceeded, SliceTooShallow
from .exact.modp import nullspace_modp, rank_modp, solve_modp
from .groups import FiniteGroup


@dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes of a nilpotent operator mod p."""

    prime: int
    blocks: tuple

    def __post_init__(self):
        if any(not 1 <= b <= self.prime for b in self.blocks):
            raise ValueError("block sizes must lie in 1..p")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks)))

    @property
    def dimension(self) -> int:
        return sum(self.blocks)

    def __str__(self):
        return " + ".join(f"J_{b}" for b in self.blocks) or "0"


def _jordan_block(a: int, p: int) -> np.ndarray:
    """Unipotent a x a block: the generator of C_p acting on J_a."""
    M = np.eye(a, dtype=np.int64)
    for i in range(a - 1):
        M[i, i + 1] = 1
    return M % p


def jordan_type_of_nilpotent(N: np.ndarray, p: int) -> JordanType:
    """Block sizes from the rank sequence of powers."""
    dim = N.shape[0]
    ranks = [dim]
    M = np.eye(dim, dtype=np.int64)
    while True:
        M = (M @ N) % p
        r = rank_modp(M, p)
        ranks.append(r)
        if r == 0:
            break
    blocks = []
    for k in range(1, len(ranks)):
        count_ge_k = ranks[k - 1] - ranks[k]
        count_ge_k1 = ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0
        blocks.extend([k] * (count_ge_k - count_ge_k1))
    return JordanType(p, tuple(blocks))


@lru_cache(maxsize=1024)
def jordan_tensor_type(a: int, b: int, p: int) -> JordanType:
    """Jordan type of J_a tensor J_b under the diagonal action of C_p."""
    require_prime(p)
    if not (1 <= a <= p and 1 <= b <= p):
        raise ValueError("block sizes must lie in 1..p")
    g = np.kron(_jordan_block(a, p), _jordan_block(b, p)) % p
    N = (g - np.eye(a * b, dtype=np.int64)) % p
    return jordan_type_of_nilpotent(N, p)


@lru_cache(maxsize=16)
def enumerate_block_ses(p: int):
    """All (a, c, b) with a short exact sequence 0->J_a->J_c->J_b->0 of
    kC_p-modules, found by explicit matrix search over Hom(J_a, J_c) for an
    injective map whose cokernel is one block (of size b = c - a, by
    dimension); the search stops at the first such map."""
    require_prime(p)
    out = []
    for a in range(1, p + 1):
        for c in range(a + 1, p + 1):  # c == a would leave a zero cokernel
            # Hom(J_a, J_c): f determined by f(e_0) in ker(t^a) = t^{c-a} J_c
            tmat = (_jordan_block(c, p) - np.eye(c, dtype=np.int64)) % p
            powers = [np.eye(c, dtype=np.int64)]
            for _ in range(c):
                powers.append((powers[-1] @ tmat) % p)
            # basis of ker(t^a): e_{c-1}, t e_{c-1}... use column space of t^{c-a}
            base = powers[c - a]
            # columns of base spanning: take the first a independent cols
            cols = []
            for j in range(c):
                cand = cols + [base[:, j]]
                if rank_modp(np.stack(cand, axis=1).reshape(c, -1), p) == len(cand):
                    cols.append(base[:, j])
                if len(cols) == a:
                    break
            for coeffs in iproduct(range(p), repeat=len(cols)):
                # v and its nonzero multiples give the same image, so one v
                # per line: the first nonzero coefficient is 1
                if next((x for x in coeffs if x), 0) != 1:
                    continue
                v = np.zeros(c, dtype=np.int64)
                for cf, col in zip(coeffs, cols):
                    v = (v + cf * col) % p
                orbit = [v]
                for _ in range(a - 1):
                    orbit.append((tmat @ orbit[-1]) % p)
                Phi = np.stack(orbit, axis=1) % p
                # J_a -> J_c is injective iff rank Phi = a; then t acts on
                # the cokernel J_c / im(Phi) with image (t J_c + im Phi) /
                # im Phi, so the cokernel has c - rank [t | Phi] Jordan
                # blocks: one block, of size c - a, iff that rank is c - 1
                if (rank_modp(Phi, p) == a and
                        rank_modp(np.hstack([tmat, Phi]), p) == c - 1):
                    out.append((a, c, c - a))
                    break
    return out


def thick_closure(seed, p: int):
    """Least subset of {1..p-1} containing the seed and closed under
    syzygy, stable tensor summands, and two-out-of-three over the
    enumerated short exact sequences of Jordan blocks."""
    require_prime(p)
    seed = set(int(x) for x in seed)
    if any(not 1 <= x <= p - 1 for x in seed):
        raise ValueError("seed blocks must be non-projective: 1..p-1")
    ses = enumerate_block_ses(p)
    S = set(seed)

    def stable(blocks):
        return {b for b in blocks if b != p}

    changed = True
    while changed:
        changed = False
        cur = sorted(S)
        for a in cur:
            om = p - a
            if om != 0 and om not in S and 1 <= om <= p - 1:
                S.add(om)
                changed = True
            for b in range(1, p):
                tensor = jordan_tensor_type(min(a, b), max(a, b), p)
                for c in stable(tensor.blocks):
                    if c not in S:
                        S.add(c)
                        changed = True
        # two-out-of-three over block SESs; J_p and 0 count as members
        full = S | {p}
        for (a, c, b) in ses:
            known = (a in full, c in full, b in full)
            if sum(known) == 2:
                for val, inside in ((a, known[0]), (c, known[1]),
                                    (b, known[2])):
                    if not inside and val != p and val not in S:
                        S.add(val)
                        changed = True
    return S


@dataclass
class ThickReport:
    prime: int
    seed: tuple
    closure: tuple
    ideal_count: int
    full: bool

    def to_dict(self) -> dict:
        return {
            "check": "thick-closure",
            "p": self.prime,
            "seed": list(self.seed),
            "closure": list(self.closure),
            "thick_tensor_ideals": self.ideal_count,
        }


def thick_lattice_report(p: int, seed) -> ThickReport:
    # the count below closes all 2^(p-1) - 1 seeds; 2^(p-1) > cap exactly
    # when p - 1 reaches the cap's bit length
    if p - 1 >= size_cap().bit_length():
        raise SizeCapExceeded(
            f"the thick ideal count for p = {p} closes 2^{p - 1} - 1 seeds, "
            f"above the cap {size_cap()} (set COHOMKIT_SIZE_CAP to raise it)")
    closure = thick_closure(seed, p)
    everything = set(range(1, p))
    # brute force over all seeds to count distinct nonzero closures
    closures = set()
    for mask in range(1, 1 << (p - 1)):
        s = {i + 1 for i in range(p - 1) if mask >> i & 1}
        closures.add(tuple(sorted(thick_closure(s, p))))
    count = len(closures) + 1  # plus the zero ideal
    return ThickReport(p, tuple(sorted(seed)), tuple(sorted(closure)),
                       count, closure == everything)


# ---------------------------------------------------------------------------
# ring map slices and the spectra certificate
# ---------------------------------------------------------------------------

class RingMapSlice:
    """A degreewise map between graded ring slices, as matrices on bases."""

    def __init__(self, source: GradedRingSlice, target: GradedRingSlice,
                 matrices: dict, label: str = "kappa"):
        if source.modulus != target.modulus:
            raise ValueError("source and target slices over different rings")
        self.source = source
        self.target = target
        # degree -> (target dim, source dim) array
        self.matrices = {d: kernels.int_array(M).reshape(
            target.dimension(d), source.dimension(d))
            for d, M in matrices.items()}
        self.label = label

    @property
    def max_degree(self) -> int:
        return min(self.source.max_degree, self.target.max_degree)

    def apply(self, d: int, coords):
        """The image of one coordinate vector, as a tuple, or of each column
        of a block, as an array; reduced mod the slices' modulus."""
        M = self.matrices.get(d)
        if M is None:
            raise SliceTooShallow(f"no matrix stored for degree {d}")
        out = kernels.matmul(M, coords, self.source.modulus)
        return tuple(out.tolist()) if out.ndim == 1 else out

    def check_multiplicative(self) -> bool:
        N = self.max_degree
        for d1 in range(N + 1):
            for d2 in range(N + 1 - d1):
                for i in range(self.source.dimension(d1)):
                    for j in range(self.source.dimension(d2)):
                        sc = self.source.table[(d1, i, d2, j)]
                        lhs = self.apply(d1 + d2, sc)
                        a = self.apply(d1, self.source.basis_coords(d1, i))
                        b = self.apply(d2, self.source.basis_coords(d2, j))
                        rhs = self.target.multiply(d1, a, d2, b)
                        m = self.source.modulus
                        if any((x - y) % m if m else x - y
                               for x, y in zip(lhs, rhs)):
                            return False
        return True


@dataclass
class KappaReport:
    label: str
    prime: int
    exponent: int
    max_degree: int
    kernel_nilpotent: list
    onto_witnesses: list
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "check": "kappa-certificate",
            "map": self.label,
            "p": self.prime,
            "s": self.exponent,
            "max_degree": self.max_degree,
            "kernel_nilpotent": self.kernel_nilpotent,
            "onto_witnesses": self.onto_witnesses,
            "verdict": "pass" if self.verdict else "fail",
        }


def kappa_certificate(f: RingMapSlice, p: int, s: int, N: int) -> KappaReport:
    """Certificate that f induces a bijection on homogeneous prime spectra:
    every homogeneous kernel element z with s|z| <= N satisfies z^s = 0 in
    the source, and every target basis element x with p^s |x| <= N has
    x^{p^s} in the image (membership via linear solves on structure
    constants)."""
    require_prime(p)
    if N > f.max_degree:
        raise SliceTooShallow(
            f"slices only reach degree {f.max_degree}, requested {N}")
    kernel_entries = []
    ok = True
    for d in range(1, N + 1):
        if s * d > N:
            break
        dim = f.source.dimension(d)
        if dim == 0:
            kernel_entries.append({"degree": d, "kernel_dim": 0,
                                   "nilpotent": True})
            continue
        kern = nullspace_modp(f.matrices[d], p)
        entry = {"degree": d, "kernel_dim": len(kern), "nilpotent": True,
                 "witnesses": []}
        for kv in kern:
            coords = tuple(int(v) % p for v in kv)
            power = f.source.power_coords(d, coords, s)
            vanishes = f.source.element_is_zero(s * d, power)
            entry["witnesses"].append({"kernel_vector": list(coords),
                                       "power_coords": list(power),
                                       "vanishes": vanishes})
            if not vanishes:
                entry["nilpotent"] = False
                ok = False
        kernel_entries.append(entry)
    onto = []
    for d in range(1, N + 1):
        if d * p**s > N:
            break
        D = d * p**s
        # the images of the source basis, as columns
        src_dim = f.source.dimension(D)
        A = f.apply(D, np.eye(src_dim, dtype=np.int64)) % p
        for j in range(f.target.dimension(d)):
            x = f.target.basis_coords(d, j)
            power = f.target.power_coords(d, x, p**s)
            if not src_dim:
                solvable = f.target.element_is_zero(D, power)
                sol = [] if solvable else None
            else:
                sol = solve_modp(A, list(power), p)
                solvable = sol is not None
            onto.append({"degree": d, "basis_index": j,
                         "power_degree": D,
                         "preimage_coords": None if sol is None
                         else [int(v) for v in sol],
                         "found": solvable})
            if not solvable:
                ok = False
    return KappaReport(f.label, p, s, N, kernel_entries, onto, ok)


def integral_mod_p_source_slice(G: FiniteGroup, p: int, N: int) -> GradedRingSlice:
    """(p-primary part of H^*(G, Z)) tensor F_p as a graded ring slice."""
    sys = cohomology_system(G)
    groups = [CohomologyGroup(G, 0, p, (p,), (sys.unit_class(0),))]
    for d in range(1, N + 1):
        reps = [w for fct, w in sys.integral_basis(d) if fct % p == 0]
        cls = tuple(CohomologyClass(G, d, 0, tuple(w)) for w in reps)
        groups.append(CohomologyGroup(G, d, p, (p,) * len(reps), cls))
    bases = [basis_block(g) for g in groups]
    table = {(0, 0, 0, 0): (1,)}
    for D in range(1, N + 1):
        # the integral coordinates of the classes whose order p divides
        keep = [fct % p == 0 for fct, _w in sys.integral_basis(D)]
        for keys, prods in product_blocks(G, bases, D):
            for key, coords in zip(keys, sys.integral_coords(D, prods)):
                table[key] = tuple(c % p for c, k in zip(coords, keep) if k)
    return GradedRingSlice(G, p, N, groups, table,
                           label=f"(H*({G.label};Z)_({p}) mod {p})")


def kappa_map_for_group(G: FiniteGroup, p: int, N: int) -> RingMapSlice:
    """The comparison map (p-primary integral mod p) -> H^*(G, F_p) with
    matrices computed from reductions in canonical coordinates."""
    source = integral_mod_p_source_slice(G, p, N)
    target = ring_slice(G, p, N)
    sys = cohomology_system(G)
    matrices = {}
    for d in range(N + 1):
        # the reductions mod p of the source basis, a block at a time
        red = basis_block(source.groups[d]) % p
        width = sys.block_width(d)
        cols = [c for s in range(0, red.shape[1], width)
                for c in sys.canonical_coords(d, p, red[:, s:s + width])]
        matrices[d] = kernels.int_array(cols).T
    return RingMapSlice(source, target, matrices,
                        label=f"kappa_{p}({G.label})")
