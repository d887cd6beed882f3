"""Canonical form bookkeeping for finite abelian groups given as direct
sums of cyclic groups with marked generators.

Cohomology groups come out of the UCT machinery as sums of cyclic pieces
whose orders need not form a divisibility chain (e.g. Z/2 + Z/3 from the
two primes of Z/6 coefficients).  This module recombines them into
invariant-factor form and converts coordinates both ways.
"""

from __future__ import annotations

from math import gcd

from .errors import ModulusMismatch, NotPrime


def factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# The strong probable-prime test to the prime bases 2..41 is exact below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def require_prime(p: int):
    """Raise NotPrime unless p is a prime; p must lie below PRIME_BOUND,
    where the deterministic Miller-Rabin test decides primality exactly."""
    if p >= PRIME_BOUND:
        raise NotPrime(f"{p} is not below {PRIME_BOUND}, the bound up to "
                       "which primality is decided")
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % p == 0:
            return  # p is one of the bases
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise NotPrime(f"{p} is not prime")


def prime_power(m: int):
    """(p, i) with m = p^i; ModulusMismatch if m is not a prime power."""
    fac = factorize(m)
    if len(fac) != 1:
        raise ModulusMismatch(f"modulus {m} is not a prime power")
    [(p, i)] = fac.items()
    return p, i


class FiniteAbelian:
    """⊕_i Z/orders[i] with generators b_i, canonicalized.

    ``canonical_factors`` is the invariant-factor chain (ascending) and
    ``canonical_combos[k]`` expresses the k-th canonical generator as
    integer multiples of the internal generators.
    """

    def __init__(self, orders):
        self.orders = [int(o) for o in orders]
        if any(o < 2 for o in self.orders):
            raise ValueError("cyclic orders must be >= 2")
        primary: dict[int, list[tuple[int, int, int]]] = {}
        # (exponent, internal index, multiplier to project onto the p-part)
        for i, o in enumerate(self.orders):
            for p, e in factorize(o).items():
                primary.setdefault(p, []).append((e, i, o // p**e))
        for p in primary:
            primary[p].sort(key=lambda t: (-t[0], t[1]))
        k = max((len(v) for v in primary.values()), default=0)
        combos = []
        factors = []
        slots = []  # slots[k] = list of (p, e, i, mult)
        for pos in range(k):
            f = 1
            combo = {}
            slot = []
            for p, lst in primary.items():
                if pos < len(lst):
                    e, i, mult = lst[pos]
                    f *= p**e
                    combo[i] = combo.get(i, 0) + mult
                    slot.append((p, e, i, mult))
            factors.append(f)
            combos.append(combo)
            slots.append(slot)
        # descending order of construction; present ascending
        order_idx = list(range(k))[::-1]
        self.canonical_factors = [factors[i] for i in order_idx]
        self.canonical_combos = [combos[i] for i in order_idx]
        self._slots = [slots[i] for i in order_idx]
        # CRT data for coordinate conversion
        self._lam = {}
        for i, o in enumerate(self.orders):
            for p, e in factorize(o).items():
                q = p**e
                rest = o // q
                # lambda with lambda*rest = 1 mod q
                self._lam[(i, p)] = pow(rest, -1, q) if q > 1 else 0

    def to_canonical(self, coords):
        """Convert internal coordinates (mod orders) to canonical ones."""
        if len(coords) != len(self.orders):
            raise ValueError("coordinate length mismatch")
        out = []
        for f, slot in zip(self.canonical_factors, self._slots):
            residues = []
            mods = []
            for (p, e, i, _mult) in slot:
                q = p**e
                a = coords[i] % self.orders[i]
                residues.append((a * self._lam[(i, p)]) % q)
                mods.append(q)
            x = _crt(residues, mods)
            out.append(x % f)
        return out

    def canonical_vectors(self, gen_vectors, modulus: int = 0):
        """Canonical generators as explicit vectors (linear combos of the
        internal generator vectors, entrywise)."""
        out = []
        for combo in self.canonical_combos:
            n = len(gen_vectors[0]) if gen_vectors else 0
            vec = [0] * n
            for i, mult in combo.items():
                gi = gen_vectors[i]
                for t in range(n):
                    vec[t] += mult * gi[t]
            if modulus:
                vec = [v % modulus for v in vec]
            out.append(vec)
        return out


def _crt(residues, mods):
    x, m = 0, 1
    for r, q in zip(residues, mods):
        g = gcd(m, q)
        if g != 1:
            raise ValueError("CRT moduli must be coprime")
        # x' = x mod m, r mod q
        inv = pow(m % q, -1, q)
        t = ((r - x) * inv) % q
        x = x + m * t
        m *= q
    return x % m
