"""Batch command surface with stable file formats and re-verifiable reports.

Exit codes: 0 on pass, 1 on a mathematical-verdict failure, 2 on usage or
size errors, 3 on an internal error (a check that holds by theory failed,
which signals a bug).  Reports are deterministic given inputs and version:
wall time goes to stderr, never into the verdict body.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .abelian import PRIME_BOUND, factorize, require_prime
from .cohomology import bockstein_delta, canonical_coords, cohomology_group
from .cup import ring_slice
from .errors import (CohomkitError, InternalCheckFailed, NoIsomorphismFound,
                     NoPreimageFound, NotPrime, SizeCapExceeded)
from .exact.dense import normalize_modulus
from .fibrewise import (FGModule, augmentation_ideal, dualising_check,
                        fibre_projectivity_test, gproj_test,
                        koszul_selfdual_check, module_from_presentation,
                        proj_dim_via_fibres, regular_module, trivial_module)
from .fiso import f_iso_check, integral_psth_preimage, pth_power_preimage, \
    s_exponent, verify_derivation
from .groups import BUILTIN_GROUPS, builtin_group, load_group_json
from .strata import kappa_certificate, kappa_map_for_group, \
    thick_lattice_report


def _group_from_arg(arg: str):
    if arg in BUILTIN_GROUPS:
        return builtin_group(arg)
    return load_group_json(arg)


def _report(args, body: dict, verdict, inputs=None) -> dict:
    """The report of the command ``args`` was parsed for; its inputs are the
    parsed arguments unless the command names them itself."""
    if inputs is None:
        inputs = {k: v for k, v in vars(args).items()
                  if k not in ("cmd", "func", "json")}
    return {
        "command": args.cmd,
        "inputs": inputs,
        "version": __version__,
        "verdict": verdict,
        **body,
    }


def _json_scalar(o) -> str:
    """A leaf as ``json.dumps`` writes it; TypeError for any other
    object, as ``json`` raises it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True or o is False:
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if abs(o) == float("inf"):
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON "
                    f"serializable")


def _json_key(k) -> str:
    """A dict key as ``json.dumps`` writes it: a string, or the text of an
    int, float, bool or None as a string."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if isinstance(k, (int, float)) or k is None:
        return f'"{_json_scalar(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not "
                    f"{k.__class__.__name__}")


def _json_parts(o, pad: str, out: list):
    """Append to ``out`` the text of ``o`` at the indent ``pad``, as
    ``json.dumps(o, indent=1, sort_keys=True)`` writes it."""
    if not isinstance(o, (list, tuple, dict)):
        out.append(_json_scalar(o))
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        for i, (k, v) in enumerate(sorted(o.items())):
            out.append(f"{',' if i else '{'}\n{pad} {_json_key(k)}: ")
            _json_parts(v, pad + " ", out)
        out.append(f"\n{pad}}}")
    elif set(map(type, o)) == {int}:
        # one C-level repr of the ints, its separators re-indented
        out.append(f"[\n{pad} " + list.__repr__(list(o))[1:-1].replace(
            ", ", f",\n{pad} ") + f"\n{pad}]")
    else:
        for i, v in enumerate(o):
            out.append(f"{',' if i else '['}\n{pad} ")
            _json_parts(v, pad + " ", out)
        out.append(f"\n{pad}]")


def _json_text(o) -> str:
    """``json.dumps(o, indent=1, sort_keys=True)``, the same text.  With an
    indent, ``json`` runs its pure-Python encoder; here a list of ints is
    written by one C-level repr, and the parts are joined once."""
    out: list = []
    _json_parts(o, "", out)
    return "".join(out)


def _emit(report: dict, as_json: bool, started: float) -> int:
    if as_json:
        print(_json_text(report))
    else:
        _print_human(report)
    print(f"# wall time {time.time() - started:.2f}s", file=sys.stderr)
    verdict = report.get("verdict")
    if verdict in ("pass", True):
        return 0
    if verdict in ("fail", False):
        return 1
    return 0


def _print_human(report: dict, indent: int = 0):
    pad = " " * indent
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _print_human(val, indent + 2)
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{pad}{key}: [{len(val)} entries]")
            for item in val[:8]:
                line = ", ".join(f"{k}={_short(v)}" for k, v in
                                 sorted(item.items()))
                print(f"{pad}  - {line}")
            if len(val) > 8:
                print(f"{pad}  ... ({len(val) - 8} more)")
        else:
            print(f"{pad}{key}: {_short(val)}")


def _short(v):
    s = str(v)
    return s if len(s) <= 120 else s[:117] + "..."


def _group_string(factors) -> str:
    if not factors:
        return "0"
    return " + ".join("Z" if f == 0 else f"Z/{f}" for f in factors)


# -- subcommand implementations ----------------------------------------------

def cmd_cohomology(args):
    G = _group_from_arg(args.group)
    H = cohomology_group(G, args.coeff, args.deg)
    body = {
        "group_structure": _group_string(H.invariant_factors),
        "invariant_factors": list(H.invariant_factors),
        "basis": [list(map(int, b.vector)) for b in H.basis]
        if args.basis else "(suppressed; use --basis)",
        "check": "cohomology",
    }
    return _report(args, body, "pass")


def cmd_ring(args):
    G = _group_from_arg(args.group)
    s = ring_slice(G, args.coeff, args.max_deg)
    ok = s.check_unit() and s.check_graded_commutativity() and \
        s.check_associativity()
    body = s.to_dict(include_basis=args.basis)
    body["check"] = "ring"
    body["ring_axioms"] = "pass" if ok else "fail"
    return _report(args, body, "pass" if ok else "fail")


def cmd_bockstein(args):
    G = _group_from_arg(args.group)
    m = args.p ** args.i
    H = cohomology_group(G, m, args.deg)
    entries = []
    for idx, b in enumerate(H.basis):
        db = bockstein_delta(args.i, b)
        entries.append({
            "basis_index": idx,
            "delta_coords": list(canonical_coords(G, db)),
            "delta_vector": [int(v) for v in db.vector],
        })
    body = {"check": "bockstein",
            "source": _group_string(H.invariant_factors),
            "target_degree": args.deg + 1,
            "images": entries}
    return _report(args, body, "pass")


def cmd_fiso(args):
    G = _group_from_arg(args.group)
    rep = f_iso_check(G, args.p, args.max_deg)
    body = rep.to_dict()
    return _report(args, body, "pass" if rep.verdict else "fail")


def cmd_fibre(args):
    G = _group_from_arg(args.group)
    pres = FGModule.from_json_file(args.module, G)
    if args.gproj:
        res = gproj_test(pres)
        body = {"check": "gproj", "gorenstein_projective":
                res["gorenstein_projective"],
                "underlying_invariants": res["invariants"]}
        return _report(args, body, "pass", {
            "group": args.group, "module": args.module, "mode": "gproj"})
    M = module_from_presentation(pres)
    if M.p:
        r = fibre_projectivity_test(M)
        body = {"check": "fibre-projectivity", "projective": r.projective}
        return _report(args, body, "pass", {
            "group": args.group, "module": args.module,
            "mode": "projectivity", "p": pres.p})
    rep = proj_dim_via_fibres(M, verify_rational=args.verify_rational)
    body = {"check": "projdim-fibres",
            "fibres": {str(p): bool(v) for p, v in rep.fibres.items()},
            "supremum": "0" if rep.supremum == 0 else "infinity"}
    return _report(args, body, "pass", {
        "group": args.group, "module": args.module, "mode": "projdim",
        "verify_rational": args.verify_rational})


def cmd_dualising(args):
    G = _group_from_arg(args.group)
    w = dualising_check(G)
    ok = w.verify(G)
    body = {"check": "dualising", "witness_matrix": w.matrix.tolist(),
            "determinant": w.determinant, "verified": ok}
    return _report(args, body, "pass" if ok else "fail")


def cmd_koszul(args):
    rep = koszul_selfdual_check(args.elements)
    body = {"check": "koszul", "self_dual": rep.passed,
            "shift_signs": list(rep.shift_signs),
            "h0_invariants": list(rep.h0_invariants)}
    return _report(args, body, "pass" if rep.passed else "fail")


def cmd_thick(args):
    rep = thick_lattice_report(args.p, args.seed)
    body = rep.to_dict()
    body["lattice"] = f"{rep.ideal_count} thick tensor ideals"
    return _report(args, body, "pass" if not args.seed or rep.full
                   else "fail")


def cmd_kappa(args):
    G = _group_from_arg(args.group)
    if args.s is None:  # the report records the s it used
        args.s = s_exponent(G, args.p)
    f = kappa_map_for_group(G, args.p, args.max_deg)
    if not f.check_multiplicative():
        return _report(args, {"check": "kappa-certificate",
                              "error": "map is not multiplicative"}, "fail")
    rep = kappa_certificate(f, args.p, args.s, args.max_deg)
    return _report(args, rep.to_dict(), "pass" if rep.verdict else "fail")


# -- verify-paper suites ------------------------------------------------------

_DERIVATION_FAMILY = ["c2", "c3", "c4", "klein4", "s3"]
# lemma4.1 checks every pair of basis classes with degrees d1 + d2 <= this
_LEMMA41_MAX_TOTAL = 5


def suite_lemma41():
    results = []
    ok = True
    for name in _DERIVATION_FAMILY:
        G = builtin_group(name)
        for p in sorted(factorize(G.order)):
            for i in (1, 2):
                m = p**i
                pairs = 0
                failures = 0
                for d1 in range(1, _LEMMA41_MAX_TOTAL):
                    for d2 in range(1, _LEMMA41_MAX_TOTAL + 1 - d1):
                        H1 = cohomology_group(G, m, d1)
                        H2 = cohomology_group(G, m, d2)
                        for x in H1.basis:
                            for y in H2.basis:
                                chk = verify_derivation(i, x, y)
                                pairs += 1
                                if not chk.passed:
                                    failures += 1
                if failures:
                    ok = False
                results.append({"group": name, "p": p, "i": i,
                                "pairs": pairs, "failures": failures})
    return {"check": "suite-lemma4.1", "results": results}, ok


def suite_lemma42():
    results = []
    ok = True
    for name in _DERIVATION_FAMILY:
        G = builtin_group(name)
        for p in sorted(factorize(G.order)):
            m = p * p
            for d in (1, 2, 3):
                H = cohomology_group(G, m, d)
                for idx, x in enumerate(H.basis):
                    try:
                        lift = pth_power_preimage(2, x)
                        results.append({"group": name, "p": p, "deg": d,
                                        "basis_index": idx, "found": True,
                                        "kind": lift.witness.get("kind")})
                    except CohomkitError as exc:
                        ok = False
                        results.append({"group": name, "p": p, "deg": d,
                                        "basis_index": idx, "found": False,
                                        "error": str(exc)})
    return {"check": "suite-lemma4.2", "results": results}, ok


def suite_prop43():
    results = []
    ok = True
    for name in _DERIVATION_FAMILY:
        G = builtin_group(name)
        for p in sorted(factorize(G.order)):
            s = s_exponent(G, p)
            for d in (1, 2):
                if d * p**s > 6:
                    continue
                H = cohomology_group(G, p, d)
                for idx, x in enumerate(H.basis):
                    try:
                        lift = integral_psth_preimage(x, s=s)
                        results.append({
                            "group": name, "p": p, "deg": d,
                            "basis_index": idx,
                            "verified": lift.verify(), "found": True})
                    except CohomkitError as exc:
                        ok = False
                        results.append({"group": name, "p": p, "deg": d,
                                        "basis_index": idx, "found": False,
                                        "error": str(exc)})
    return {"check": "suite-prop4.3", "results": results}, ok


def suite_thm44():
    cases = [("c2", 2, 6), ("c3", 3, 6), ("c4", 2, 6), ("klein4", 2, 6),
             ("s3", 2, 6), ("s3", 3, 6)]
    results = []
    ok = True
    for name, p, N in cases:
        rep = f_iso_check(builtin_group(name), p, N)
        results.append({"group": name, "p": p, "max_deg": N,
                        "verdict": "pass" if rep.verdict else "fail"})
        ok = ok and rep.verdict
    return {"check": "suite-thm4.4", "results": results}, ok


def suite_lemma27():
    results = []
    ok = True
    for name in ("c2", "c3", "c6"):
        G = builtin_group(name)
        mods = [("ZG", regular_module(G)), ("Z", trivial_module(G)),
                ("aug", augmentation_ideal(G))]
        for label, M in mods:
            rep = proj_dim_via_fibres(M, verify_rational=True)
            direct = rep.integral_projective
            fibrewise = all(rep.fibres.values())
            agree = direct == fibrewise
            if not agree:
                ok = False
            results.append({"group": name, "module": label,
                            "direct_projective": direct,
                            "all_fibres_projective": fibrewise,
                            "fibres": {str(p): v for p, v in
                                       rep.fibres.items()},
                            "agree": agree})
    return {"check": "suite-lemma2.7", "results": results}, ok


def suite_lemma33():
    results = []
    ok = True
    for name in ("c2", "c3", "s3", "q8"):
        G = builtin_group(name)
        try:
            w = dualising_check(G)
            good = w.verify(G)
        except CohomkitError:
            good = False
        ok = ok and good
        results.append({"group": name, "witness_found": good})
    return {"check": "suite-lemma3.3", "results": results}, ok


def suite_lemma22():
    results = []
    ok = True
    for elems in ([2], [2, 3], [2, 3, 5]):
        rep = koszul_selfdual_check(elems)
        ok = ok and rep.passed
        results.append({"elements": elems, "self_dual": rep.passed})
    return {"check": "suite-lemma2.2", "results": results}, ok


def suite_classification():
    results = []
    ok = True
    for p in (2, 3, 5):
        rep = thick_lattice_report(p, {1})
        good = rep.ideal_count == 2 and rep.full
        ok = ok and good
        results.append({"p": p, "thick_tensor_ideals": rep.ideal_count,
                        "every_seed_full": good})
    return {"check": "suite-classification", "results": results}, ok


_SUITES = {
    "lemma4.1": suite_lemma41,
    "lemma4.2": suite_lemma42,
    "prop4.3": suite_prop43,
    "thm4.4": suite_thm44,
    "lemma2.7": suite_lemma27,
    "lemma3.3": suite_lemma33,
    "lemma2.2": suite_lemma22,
    "classification": suite_classification,
}


def cmd_verify_paper(args):
    body, ok = _SUITES[args.suite]()
    return _report(args, body, "pass" if ok else "fail")


# -- recheck ------------------------------------------------------------------

def cmd_recheck(args):
    with open(args.report) as fh:
        rep = json.load(fh)
    if not isinstance(rep, dict) or not isinstance(rep.get("inputs"), dict):
        raise ValueError(f"{args.report} is not a cohomkit report")
    cmd = rep.get("command")
    try:
        rerun = build_parser().parse_args(_argv(cmd, rep["inputs"]))
    except SystemExit:  # argparse has printed which argument it refused
        raise ValueError(f"cannot recheck {args.report}: the parser "
                         "refuses its inputs") from None
    same = json.dumps(rep, sort_keys=True) == \
        json.dumps(rerun.func(rerun), sort_keys=True)
    return _report(args, {"check": "recheck", "command": cmd,
                          "reproduced": same}, "pass" if same else "fail")


def _argv(cmd, inputs: dict) -> list:
    """The command line whose parse gives back a report's inputs: lists are
    comma-joined, True is a bare flag, and fibre's mode maps back to
    --gproj (its p is read from the module file)."""
    if cmd == "fibre":
        inputs = dict(inputs)
        inputs.pop("p", None)
        inputs["gproj"] = inputs.pop("mode", None) == "gproj"
    argv = [str(cmd)]
    for key, val in inputs.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            argv.append(flag)
        elif isinstance(val, list):
            argv.append(f"{flag}={','.join(map(str, val))}")
        elif val is not False:
            argv.append(f"{flag}={val}")
    return argv


# -- argument parsing ---------------------------------------------------------

def _degree(text: str) -> int:
    """A degree or exponent argument: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, not {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """A level or exponent argument that must be at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, not {text!r}")
    return int(text)


def _prime(text: str) -> int:
    """A prime argument."""
    p = int(text) if text.isdecimal() else 0
    try:
        require_prime(p)
    except NotPrime as exc:
        raise argparse.ArgumentTypeError(
            f"must be a prime, not {text!r}" if p < PRIME_BOUND
            else str(exc)) from None
    return p


def _integers(text: str) -> list:
    """A comma-separated list of integers; empty items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, not {text!r}") from None


def _coeff(text: str) -> str:
    """A coefficient ring, "Z", "Z/m" or m with m >= 2, kept as the text
    given so that the report echoes it."""
    try:
        normalize_modulus(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'must be "Z", "Z/m" or an integer m >= 2, not {text!r}') from None
    return text


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cohomkit",
        description="Exact group cohomology with cup products, Bocksteins, "
                    "and F-isomorphism certificates.")
    ap.add_argument("--json", action="store_true",
                    help="emit the machine-readable report")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("cohomology", help="H^n(G, Z) or H^n(G, Z/m)")
    g.add_argument("--group", required=True,
                   help=f"builtin ({', '.join(sorted(BUILTIN_GROUPS))}) "
                        "or JSON file")
    g.add_argument("--coeff", type=_coeff, required=True,
                   help='"Z" or "Z/m" or m')
    g.add_argument("--deg", type=_degree, required=True)
    g.add_argument("--basis", action="store_true",
                   help="include basis cocycle vectors")
    g.set_defaults(func=cmd_cohomology)

    g = sub.add_parser("ring", help="graded ring slice up to a degree bound")
    g.add_argument("--group", required=True)
    g.add_argument("--coeff", type=_coeff, required=True)
    g.add_argument("--max-deg", type=_degree, required=True)
    g.add_argument("--basis", action="store_true")
    g.set_defaults(func=cmd_ring)

    g = sub.add_parser("bockstein", help="connecting map on a basis")
    g.add_argument("--group", required=True)
    g.add_argument("--p", type=_prime, required=True)
    g.add_argument("--i", type=_positive, required=True)
    g.add_argument("--deg", type=_degree, required=True)
    g.set_defaults(func=cmd_bockstein)

    g = sub.add_parser("fiso", help="F-isomorphism certificate")
    g.add_argument("--group", required=True)
    g.add_argument("--p", type=_prime, required=True)
    g.add_argument("--max-deg", type=_degree, default=6)
    g.set_defaults(func=cmd_fiso)

    g = sub.add_parser("fibre", help="fibrewise module tests")
    g.add_argument("--group", required=True)
    g.add_argument("--module", required=True, help="module JSON file")
    g.add_argument("--gproj", action="store_true")
    g.add_argument("--verify-rational", action="store_true")
    g.set_defaults(func=cmd_fibre)

    g = sub.add_parser("dualising", help="Hom_Z(ZG,Z) ~ ZG witness")
    g.add_argument("--group", required=True)
    g.set_defaults(func=cmd_dualising)

    g = sub.add_parser("koszul", help="Koszul self-duality check")
    g.add_argument("--elements", type=_integers, required=True,
                   help="comma-separated ints")
    g.set_defaults(func=cmd_koszul)

    g = sub.add_parser("thick", help="thick tensor ideal closure for kC_p")
    g.add_argument("--p", type=_prime, required=True)
    g.add_argument("--seed", type=_integers, required=True,
                   help="comma-separated block sizes")
    g.set_defaults(func=cmd_thick)

    g = sub.add_parser("kappa", help="spectra-bijection certificate")
    g.add_argument("--group", required=True)
    g.add_argument("--p", type=_prime, required=True)
    g.add_argument("--s", type=_degree, default=None)
    g.add_argument("--max-deg", type=_degree, default=6)
    g.set_defaults(func=cmd_kappa)

    g = sub.add_parser("verify-paper", help="run a canned verification suite")
    g.add_argument("--suite", required=True, choices=sorted(_SUITES))
    g.set_defaults(func=cmd_verify_paper)

    g = sub.add_parser("recheck", help="re-verify an emitted report")
    g.add_argument("report")
    g.set_defaults(func=cmd_recheck)
    return ap


def main(argv=None) -> int:
    started = time.time()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
    except SizeCapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (InternalCheckFailed, NoPreimageFound, NoIsomorphismFound) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (CohomkitError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args.json, started)


if __name__ == "__main__":
    sys.exit(main())
