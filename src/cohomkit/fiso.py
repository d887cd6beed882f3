"""Machine checks for the mod-p versus integral cohomology comparison:
the Bockstein derivation identity, p-th power lifting through coefficient
towers, integral lifting of p^s-th powers, and the F-isomorphism
certificate assembled from those witnesses.

Image membership is always decided by solving linear systems on cocycle
coordinates modulo coboundaries; no symbolic ring reasoning anywhere.  A
witness is checked by ``CohomologySystem.is_zero``, which reads a mod-m
class off the factorization of its own degree only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .abelian import factorize, prime_power, require_prime
from .cohomology import (CohomologyClass, bockstein_delta, coefficient_map,
                         cohomology_group, cohomology_system, p_primary_part)
from .cup import cup1_vec, cup_product, cup_vec
from .errors import InternalCheckFailed, ModulusMismatch, NoPreimageFound
from .exact.modp import nullspace_modp, solve_modp
from .groups import FiniteGroup


def s_exponent(G: FiniteGroup, p: int) -> int:
    """Largest s with p^s dividing |G|."""
    require_prime(p)
    return factorize(G.order).get(p, 0)


def _add_classes(x: CohomologyClass, y: CohomologyClass, sign: int = 1):
    m = x.modulus
    vec = tuple((a + sign * b) % m if m else a + sign * b
                for a, b in zip(x.vector, y.vector))
    return CohomologyClass(x.group, x.degree, m, vec)


@dataclass
class DerivationCheck:
    group_label: str
    level: int
    degrees: tuple
    passed: bool
    lhs: CohomologyClass
    rhs: CohomologyClass


def verify_derivation(i: int, x: CohomologyClass,
                      y: CohomologyClass) -> DerivationCheck:
    """delta_i(x u y) = delta_i(x) u eps_i(y) + (-1)^|x| eps_i(x) u delta_i(y),
    compared as mod-p cohomology classes."""
    if x.modulus != y.modulus or x.group is not y.group:
        raise ModulusMismatch("operands must share group and modulus p^i")
    p, level = prime_power(x.modulus)
    if level != i:
        raise ModulusMismatch(f"classes have modulus {x.modulus}, not p^{i}")
    lhs = bockstein_delta(i, cup_product(x, y))
    dx = bockstein_delta(i, x)
    dy = bockstein_delta(i, y)
    ex = coefficient_map("epsilon_i", x)
    ey = coefficient_map("epsilon_i", y)
    rhs = _add_classes(cup_product(dx, ey), cup_product(ex, dy),
                       sign=(-1) ** x.degree)
    diff = _add_classes(lhs, rhs, sign=-1)
    passed = cohomology_system(x.group).is_zero(diff)
    return DerivationCheck(x.group.label, i, (x.degree, y.degree), passed,
                           lhs, rhs)


@dataclass
class PthPowerLift:
    """Witness that x^p lies in the image of pi_{i+1}."""

    source: CohomologyClass
    level: int
    degree: int          # degree of x^p
    modulus: int         # p^{i+1}
    vector: tuple | None  # preimage cocycle; None encodes the zero class
    witness: dict = field(default_factory=dict)


def pth_power_preimage(i: int, x: CohomologyClass) -> PthPowerLift:
    """A class z mod p^{i+1} with pi_{i+1}(z) = x^p.

    Existence is a theorem for i >= 2, so NoPreimageFound there signals a
    bug; the construction also succeeds at i = 1, which is reported
    empirically rather than assumed.
    """
    if x.degree < 1:
        raise ValueError("positive-degree classes only")
    p, level = prime_power(x.modulus)
    if level != i:
        raise ModulusMismatch(f"class modulus {x.modulus} is not p^{i}")
    G = x.group
    sys = cohomology_system(G)
    q = p**i
    n = x.degree
    lift = [int(v) % q for v in x.vector]

    if p == 2:
        # explicit Hirsch-type witness: w = x^2 + q * (v u1 x), dx = q v
        sys.bc.check_cap(2 * n)
        dx = sys.bc.matvec(n + 1, lift)
        if any(v % q for v in dx):
            raise ValueError("input is not a cocycle mod p^i")
        v = [t // q for t in dx]
        e = cup1_vec(G, v, n + 1, lift, n, modulus=2)
        sq = cup_vec(G, lift, n, lift, n)
        target = 2 * q
        w = [(a + q * b) % target for a, b in zip(sq, e)]
        dw = sys.bc.matvec(2 * n + 1, w)
        if any(t % target for t in dw):
            raise NoPreimageFound(
                "cup-1 correction failed to produce a mod-2q cocycle")
        if any((a - b) % q for a, b in zip(w, sq)):
            raise InternalCheckFailed("preimage does not reduce to x^p")
        return PthPowerLift(x, i, 2 * n, target, tuple(w),
                            witness={"kind": "cup1", "correction": e})

    if n % 2 == 1:
        # odd degree, odd p: x^2 = 0, so the zero class lifts x^p
        sys.bc.check_cap(2 * n)
        sq = [v % q for v in cup_vec(G, lift, n, lift, n)]
        c = sys.bc.fact(2 * n).solve(sq, q)
        if c is None:
            raise NoPreimageFound(
                "x^2 should be a coboundary for odd degree and odd p")
        return PthPowerLift(x, i, p * n, p**(i + 1), None,
                            witness={"kind": "odd-square-zero",
                                     "square_cobounding": [int(t) % q for t in c]})

    # even degree, odd p: solve the one obstruction equation mod p
    sys.bc.check_cap(p * n + 1)
    P = lift
    deg = n
    for _ in range(p - 1):
        P = cup_vec(G, P, deg, lift, n)
        deg += n
        P = [t % (q * p) for t in P]
    dP = sys.bc.matvec(p * n + 1, P)
    if any(t % q for t in dP):
        raise ValueError("input is not a cocycle mod p^i")
    u = [(-(t // q)) % p for t in dP]
    e = sys.bc.fact(p * n + 1).solve(u, p)
    if e is None:
        raise NoPreimageFound(
            "obstruction class of x^p did not vanish mod p")
    target = p**(i + 1)
    w = [(a + q * b) % target for a, b in zip(P, e)]
    dw = sys.bc.matvec(p * n + 1, w)
    if any(t % target for t in dw):
        raise NoPreimageFound("corrected power is not a cocycle mod p^{i+1}")
    return PthPowerLift(x, i, p * n, target, tuple(w),
                        witness={"kind": "obstruction-solve"})


@dataclass
class IntegralLift:
    """Witness that x^{p^s} is the reduction of an integral class."""

    source: CohomologyClass
    prime: int
    exponent: int
    degree: int
    integral_class: CohomologyClass
    power_vector: tuple

    def verify(self) -> bool:
        sys = cohomology_system(self.source.group)
        z = self.integral_class
        if not sys.verify_cocycle(z):
            return False
        red = coefficient_map("theta_i", z, modulus=self.prime)
        diff = tuple((a - b) % self.prime
                     for a, b in zip(red.vector, self.power_vector))
        dclass = CohomologyClass(z.group, z.degree, self.prime, diff)
        return sys.is_zero(dclass)


def integral_psth_preimage(x: CohomologyClass,
                           s: int | None = None) -> IntegralLift:
    """An integral class in the p-primary part whose mod-p reduction is
    x^{p^s}; existence is a theorem, so failure raises NoPreimageFound."""
    if x.degree < 1:
        raise ValueError("positive-degree classes only")
    p, level = prime_power(x.modulus)
    if level != 1:
        raise ModulusMismatch("integral lifting starts from a mod-p class")
    G = x.group
    if s is None:
        s = s_exponent(G, p)
    sys = cohomology_system(G)
    D = (p**s) * x.degree
    sys.bc.check_cap(D)
    # x^{p^s} as a mod-p cochain
    P = [int(v) % p for v in x.vector]
    deg = x.degree
    for _ in range(p**s - 1):
        P = cup_vec(G, P, deg, [int(v) % p for v in x.vector], x.degree,
                    modulus=p)
        deg += x.degree
    # membership in span(theta(w_j)) + coboundaries, via cokernel coords:
    # one block query, the p-divisible basis classes' rows w_j, then P
    fact = sys.bc.fact(D)
    basis = [(f, w) for f, w in sys.integral_basis(D) if f % p == 0]
    W = kernels.int_array([w for _, w in basis] + [P])
    *cols, tvals = [vals for vals, _ in fact.coords(W.T, p)]
    # tau x k, with shape (tau, 0) when no integral class is p-divisible
    A = np.array(cols, dtype=np.int64).reshape(len(cols), len(tvals)).T
    sol = solve_modp(A, tvals, p)
    if sol is None:
        raise NoPreimageFound(
            "x^{p^s} is not in the image of the integral reduction")
    mults = []
    for a, (f, _) in zip(sol.tolist(), basis):
        e = factorize(f).get(p, 0)
        rest = f // p**e
        lam = pow(rest, -1, p**e) if p**e > 1 else 0
        mults.append((a * lam * rest) % f)
    vec = kernels.matmul(kernels.int_array(mults), W[:-1])
    z = CohomologyClass(G, D, 0, tuple(vec.tolist()))
    lift = IntegralLift(x, p, s, D, z, tuple(P))
    if not lift.verify():
        raise InternalCheckFailed("integral preimage failed re-verification")
    return lift


@dataclass
class FIsoReport:
    group_label: str
    prime: int
    exponent: int
    max_degree: int
    onto_witnesses: list
    kernel_checks: list
    verdict: bool
    notes: list

    def to_dict(self) -> dict:
        return {
            "check": "f-isomorphism",
            "group": self.group_label,
            "p": self.prime,
            "s": self.exponent,
            "max_degree": self.max_degree,
            "onto_witnesses": self.onto_witnesses,
            "kernel_checks": self.kernel_checks,
            "verdict": "pass" if self.verdict else "fail",
            "notes": self.notes,
        }


def f_iso_check(G: FiniteGroup, p: int, N: int) -> FIsoReport:
    """Certificate that H^*(G,Z) tensor Z/p -> H^*(G,Z/p) is an
    F-isomorphism in positive degrees, up to degree N.

    F-onto: every mod-p basis class x of degree d with d*p^s <= N gets an
    integral preimage of x^{p^s}.  F-injectivity: kernel elements of the
    reduction map have vanishing s-th cup power (s from p^s || |G|).
    """
    require_prime(p)
    s = s_exponent(G, p)
    sys = cohomology_system(G)
    onto = []
    kernel_checks = []
    notes = []
    ok = True
    if s == 0:
        # p does not divide |G|: both sides must vanish in positive degrees
        for d in range(1, N + 1):
            part = p_primary_part(G, p, d)
            if part.invariant_factors:
                ok = False
            kernel_checks.append({"degree": d, "source_dim": 0,
                                  "kernel_dim": 0, "nilpotent": True})
        # mod-p side vanishes in computable degrees
        for d in range(1, N):
            H = cohomology_group(G, p, d)
            if H.invariant_factors:
                ok = False
        notes.append("vacuous: p does not divide |G|; both sides vanish")
        return FIsoReport(G.label, p, s, N, onto, kernel_checks, ok, notes)

    # F-onto in range
    for d in range(1, N + 1):
        if d * p**s > N:
            break
        H = cohomology_group(G, p, d)
        for idx, x in enumerate(H.basis):
            try:
                lift = integral_psth_preimage(x, s=s)
                onto.append({
                    "degree": d,
                    "basis_index": idx,
                    "power_degree": lift.degree,
                    "verified": True,
                    "preimage_invariants": [
                        f for f, _ in sys.integral_basis(lift.degree)],
                    "preimage_vector": [int(v) for v in
                                        lift.integral_class.vector],
                    "power_vector": [int(v) for v in lift.power_vector],
                })
            except NoPreimageFound:
                ok = False
                onto.append({"degree": d, "basis_index": idx,
                             "verified": False})

    # F-injectivity: kernel of (p-primary integral) tensor F_p -> H(F_p)
    for d in range(1, N + 1):
        if s * d > N:
            break
        basis = [(f, w) for f, w in sys.integral_basis(d) if f % p == 0]
        if not basis:
            kernel_checks.append({"degree": d, "source_dim": 0,
                                  "kernel_dim": 0, "nilpotent": True})
            continue
        fact = sys.bc.fact(d)
        W = kernels.int_array([w for _, w in basis])
        cols = [vals for vals, _ in fact.coords(W.T, p)]
        kernel = [v.tolist() for v in
                  nullspace_modp(np.asarray(cols, dtype=np.int64).T, p)]
        entry = {"degree": d, "source_dim": len(basis),
                 "kernel_dim": len(kernel), "nilpotent": True,
                 "kernel_vectors": kernel}
        # the kernel elements sum_j a_j w_j, one row each
        Z = kernels.matmul(np.array(kernel, dtype=np.int64).reshape(
            len(kernel), len(basis)), W).tolist()
        for z in Z:
            # s-th cup power of the kernel element, in the source ring
            power = list(z)
            deg = d
            for _ in range(s - 1):
                power = cup_vec(G, power, deg, z, d)
                deg += d
            # vanishing in (p-primary integral) tensor F_p: the p-power
            # coordinates of the power must be divisible by p
            coords = sys.integral_coords(deg, power)
            vanish = all(
                c % p == 0 for c, (f, _w) in
                zip(coords, sys.integral_basis(deg)) if f % p == 0)
            if not vanish:
                entry["nilpotent"] = False
                ok = False
        kernel_checks.append(entry)

    return FIsoReport(G.label, p, s, N, onto, kernel_checks, ok, notes)

