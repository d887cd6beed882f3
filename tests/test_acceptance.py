"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
the lines live)."""

import time
from math import inf

import pytest

from cohomkit.cohomology import (cohomology_group, cohomology_system,
                                 coefficient_map)
from cohomkit.cup import cup_product, ring_slice
from cohomkit.errors import CohomkitError
from cohomkit.fibrewise import (FGModule, augmentation_ideal, dualising_check,
                                integral_projectivity_test,
                                koszul_selfdual_check, proj_dim_via_fibres,
                                regular_module, trivial_module)
from cohomkit.fiso import (f_iso_check, integral_psth_preimage,
                           pth_power_preimage, s_exponent, verify_derivation)
from cohomkit.strata import (kappa_certificate, kappa_map_for_group,
                             thick_closure, thick_lattice_report)
from helpers import ext_group
from oracles import periodic_resolution_cyclic, subquotient_invariants, zero

FAMILY = ["c2", "c3", "c4", "klein4", "s3"]


def _primes_of(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _criterion(num, desc, limit, started, ok):
    elapsed = time.time() - started
    line = (f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / limit {limit:.0f}s): {desc}")
    print(line, flush=True)
    assert ok, line
    assert elapsed < limit, f"time limit exceeded: {line}"


def test_criterion_01_oracle_agreement(groups):
    """Bar-resolution cohomology equals periodic-resolution cohomology for
    C_2, C_3, C_4, coefficients Z, Z/2, Z/3, Z/4, all degrees <= 6."""
    t0 = time.time()
    ok = True
    for order in (2, 3, 4):
        G = groups[f"c{order}"]
        per = periodic_resolution_cyclic(order, 8)
        for m in ("Z", 2, 3, 4):
            for n in range(0, 7):
                got = sorted(cohomology_group(G, m, n).invariant_factors)
                d_in = per.dual_differential(n) if n >= 1 else zero(1, 1)
                want = sorted(subquotient_invariants(
                    d_in, per.dual_differential(n + 1), m))
                if got != want:
                    ok = False
    _criterion(1, "cohomology oracle agreement (bar vs periodic)", 30,
               t0, ok)


def test_criterion_02_ring_structure(groups):
    """H*(C_2, Z/2) to degree 6 is polynomial on one degree-1 class;
    H*(C_2 x C_2, Z/2) has dimensions [1,2,3,4,5] to degree 4."""
    t0 = time.time()
    s2 = ring_slice(groups["c2"], 2, 6)
    ok = s2.dimensions() == [1] * 7
    coords = (1,)
    for k in range(2, 7):
        coords = s2.multiply(k - 1, coords, 1, (1,))
        ok = ok and any(coords)
    s4 = ring_slice(groups["klein4"], 2, 4)
    ok = ok and s4.dimensions() == [1, 2, 3, 4, 5]
    ok = ok and s2.check_unit() and s4.check_unit()
    _criterion(2, "ring structure of C_2 and C_2 x C_2 mod 2", 60, t0, ok)


def test_criterion_03_derivation_identity(groups):
    """verify_derivation passes for all basis pairs of total degree <= 5,
    i in {1,2}, over {C_2, C_3, C_4, C_2xC_2, S_3}."""
    t0 = time.time()
    failures = 0
    checked = 0
    for name in FAMILY:
        G = groups[name]
        for p in _primes_of(G.order):
            for i in (1, 2):
                m = p**i
                for d1 in range(1, 5):
                    for d2 in range(1, 6 - d1):
                        for x in cohomology_group(G, m, d1).basis:
                            for y in cohomology_group(G, m, d2).basis:
                                checked += 1
                                if not verify_derivation(i, x, y).passed:
                                    failures += 1
    _criterion(3, f"Bockstein derivation identity ({checked} pairs)",
               300, t0, failures == 0 and checked > 0)


def test_criterion_04_pth_power_lifting(groups):
    """pth_power_preimage succeeds for every basis class of degree 1..3 at
    i = 2 over the family; zero NoPreimageFound."""
    t0 = time.time()
    failures = 0
    checked = 0
    for name in FAMILY:
        G = groups[name]
        for p in _primes_of(G.order):
            for d in (1, 2, 3):
                for x in cohomology_group(G, p * p, d).basis:
                    checked += 1
                    try:
                        pth_power_preimage(2, x)
                    except CohomkitError:
                        failures += 1
    _criterion(4, f"p-th power lifting at level 2 ({checked} classes)",
               300, t0, failures == 0 and checked > 0)


def test_criterion_05_integral_power_lifting(groups):
    """integral_psth_preimage succeeds for every mod-p basis class of
    degree 1..2 with p^s * deg <= 6."""
    t0 = time.time()
    failures = 0
    checked = 0
    for name in FAMILY:
        G = groups[name]
        for p in _primes_of(G.order):
            s = s_exponent(G, p)
            for d in (1, 2):
                if d * p**s > 6:
                    continue
                for x in cohomology_group(G, p, d).basis:
                    checked += 1
                    try:
                        lift = integral_psth_preimage(x, s=s)
                        if not lift.verify():
                            failures += 1
                    except CohomkitError:
                        failures += 1
    _criterion(5, f"integral p^s-th power lifting ({checked} classes)",
               300, t0, failures == 0 and checked > 0)


def test_criterion_06_f_isomorphism(groups):
    """f_iso_check passes for (C_2,2), (C_3,3), (C_4,2), (C_2xC_2,2),
    (S_3,2), (S_3,3) at N = 6, including kernel nilpotency."""
    t0 = time.time()
    ok = True
    for name, p in [("c2", 2), ("c3", 3), ("c4", 2), ("klein4", 2),
                    ("s3", 2), ("s3", 3)]:
        rep = f_iso_check(groups[name], p, 6)
        ok = ok and rep.verdict
        ok = ok and all(e["nilpotent"] for e in rep.kernel_checks)
    _criterion(6, "F-isomorphism certificates at N = 6", 600, t0, ok)


def test_criterion_07_projectivity_via_fibres(groups):
    """Direct integral projectivity equals all-fibres projectivity for
    M in {ZG, Z, aug} over G in {C_2, C_3, C_6}."""
    t0 = time.time()
    ok = True
    for name in ("c2", "c3", "c6"):
        G = groups[name]
        for M in (regular_module(G), trivial_module(G),
                  augmentation_ideal(G)):
            direct = integral_projectivity_test(M).projective
            rep = proj_dim_via_fibres(M, verify_rational=True)
            agree = direct == all(rep.fibres.values())
            sup_ok = (rep.supremum == 0) == direct
            ok = ok and agree and sup_ok
    _criterion(7, "projective dimension through the fibres", 60, t0, ok)


def test_criterion_08_dualising_module(groups):
    """dualising_check finds Hom_Z(ZG,Z) ~ ZG for C_2, C_3, S_3, Q_8."""
    t0 = time.time()
    ok = True
    for name in ("c2", "c3", "s3", "q8"):
        G = groups[name]
        try:
            w = dualising_check(G)
            ok = ok and w.verify(G)
        except CohomkitError:
            ok = False
    _criterion(8, "dualising module isomorphism witnesses", 60, t0, ok)


def test_criterion_09_ext_vanishing(groups):
    """Ext^i(M, ZG) = 0 for i = 2, 3 over ZC_2 and ZC_3 (all test
    modules); Ext^2 over ZC_2 of (Z, Z) = Z/2 as nonvanishing control."""
    t0 = time.time()
    ok = True
    for name in ("c2", "c3"):
        G = groups[name]
        ZG = regular_module(G)
        p = G.order
        tors = FGModule(G, "Z", 0, 1, [[p]],
                        {g: [[1]] for g in range(1, G.order)})
        mods = [regular_module(G), trivial_module(G),
                augmentation_ideal(G), tors]
        for M in mods:
            for i in (2, 3):
                if ext_group(M, ZG, i) != []:
                    ok = False
    control = ext_group(trivial_module(groups["c2"]),
                        trivial_module(groups["c2"]), 2)
    ok = ok and control == [2]
    _criterion(9, "Ext vanishing against ZG with nonvanishing control",
               120, t0, ok)


def test_criterion_10_koszul_selfduality():
    """koszul_selfdual_check passes for d = 1, 2, 3."""
    t0 = time.time()
    ok = all(koszul_selfdual_check(e).passed
             for e in ([2], [2, 3], [2, 3, 5]))
    ok = ok and koszul_selfdual_check([5]).h0_invariants == (5,)
    _criterion(10, "Koszul complex self-duality", 10, t0, ok)


def test_criterion_11_thick_classification():
    """For p in {2, 3, 5} every nonempty seed closes to everything:
    exactly 2 thick tensor ideals."""
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        full = set(range(1, p))
        for mask in range(1, 1 << (p - 1)):
            seed = {i + 1 for i in range(p - 1) if mask >> i & 1}
            if thick_closure(seed, p) != full:
                ok = False
        rep = thick_lattice_report(p, {1})
        ok = ok and rep.ideal_count == 2
    _criterion(11, "thick tensor ideal classification for kC_p", 10, t0, ok)


def test_criterion_12_kappa_certificates(groups):
    """kappa_certificate passes on the C_2 and C_2xC_2 slice data at
    N = 6."""
    t0 = time.time()
    ok = True
    for name in ("c2", "klein4"):
        G = groups[name]
        s = s_exponent(G, 2)
        f = kappa_map_for_group(G, 2, 6)
        ok = ok and f.check_multiplicative()
        rep = kappa_certificate(f, 2, s, 6)
        ok = ok and rep.verdict
    _criterion(12, "spectra-bijection certificates (kappa)", 60, t0, ok)
