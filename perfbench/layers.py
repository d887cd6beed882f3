"""Run one cohomkit CLI invocation with per-layer timing spans.

Usage::

    python3 perfbench/layers.py TRACE_OUT.json -- <cohomkit CLI arguments>

The program is imported from ``src/`` of the current directory (the caller
sets PYTHONPATH).  Before ``cohomkit.cli.main`` runs, every binding of each
layer function listed in ``LAYERS`` is replaced by a timing wrapper: module
functions are patched in every loaded ``cohomkit`` module that imported them
by name, methods are patched on their class.  Nothing under ``src/`` changes.
The CLI writes its report to stdout exactly as untraced; the aggregated
spans go to TRACE_OUT.json when the CLI returns.

Each label counts only its outermost call: ``kernels.apply_oplog_int``
calls ``kernels._apply_oplog_int_pure`` under the same label, and that
inner call is part of the outer span.  ``self_s`` is a span's duration
minus the duration of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _replay_ops(tracer, args, result):
    # apply_oplog_{int,mod}(vec, log, ...) take the log as one tuple; the
    # *_pure kernels take its arrays one by one, types first.
    log = args[1]
    return {"ops": len(log[0]) if isinstance(log, tuple) else len(log)}


def _factor_sizes(tracer, args, result):
    f = args[0]  # the SparseFactorization that __init__ just built
    return {"nnz": len(f._indices), "log_ops": len(f.log[0]),
            "pivots": len(f.piv_rows),
            "residual_rows": len(f.echelon_rows),
            "residual_cols": len(f.res_cols)}


def _csr_sizes(tracer, args, result):
    # BarCochains.csr returns its cached matrix on repeat calls; count the
    # entries of each distinct matrix once.
    if id(result) in tracer.csr_seen:
        return {}
    tracer.csr_seen.add(id(result))
    return {"nnz": len(result[1])}


def _dense_sizes(tracer, args, result):
    M = args[0]
    if hasattr(M, "rows") and hasattr(M, "cols"):
        return {"max_cells": M.rows * M.cols}
    rows = list(M)
    return {"max_cells": len(rows) * (len(rows[0]) if rows else 0)}


_SF = "cohomkit.exact.sparse:SparseFactorization."
_CS = "cohomkit.cohomology:CohomologySystem."
_CALLS_S = ("calls", "s")
_SELF = ("calls", "s", "self_s")

# label -> (bindings, sizes, reported fields).  Each binding is
# "module:attribute"; a module function is wrapped in every cohomkit module
# that holds it, a method on its class.  sizes(tracer, args, result) returns
# counts that are summed over calls, except names starting with "max_",
# which keep the largest value.  The fields are the per-layer metrics the
# benchmark reports for the label.
LAYERS = {
    "resolutions.csr": (["cohomkit.resolutions:BarCochains.csr"],
                        _csr_sizes, ("calls", "s", "nnz")),
    "resolutions.fact": (["cohomkit.resolutions:BarCochains.fact"], None,
                         ("calls",)),
    "exact.sparse.factor": ([_SF + "__init__"], _factor_sizes,
                            ("calls", "s", "self_s", "nnz", "log_ops",
                             "pivots", "residual_rows", "residual_cols")),
    "exact.sparse.solve": ([_SF + "solve"], None, _CALLS_S),
    "exact.sparse.coords": ([_SF + "coords"], None, _CALLS_S),
    "exact.sparse.torsion_reps": ([_SF + "torsion_reps"], None, _CALLS_S),
    "exact.sparse.kernel_basis": ([_SF + "kernel_basis"], None, _CALLS_S),
    "exact.sparse.matvec": ([_SF + "matvec"], None, _CALLS_S),
    "kernels.replay_int": (["cohomkit.kernels:apply_oplog_int",
                            "cohomkit.kernels:_apply_oplog_int_pure"],
                           _replay_ops, ("calls", "s", "ops")),
    "kernels.replay_mod": (["cohomkit.kernels:apply_oplog_mod",
                            "cohomkit.kernels:_apply_oplog_mod_pure"],
                           _replay_ops, ("calls", "s", "ops")),
    "kernels.backsub": (["cohomkit.kernels:backsub_mod",
                         "cohomkit.kernels:backsub_int",
                         "cohomkit.kernels:_backsub_mod_pure",
                         "cohomkit.kernels:_backsub_int_pure"], None,
                        _CALLS_S),
    "kernels.matvec": (["cohomkit.kernels:csr_matvec_int",
                        "cohomkit.kernels:csr_matvec_mod"],
                       lambda tracer, args, result: {"nnz": len(args[1])},
                       ("calls", "s", "nnz")),
    "cup.cup_vec": (["cohomkit.cup:cup_vec"],
                    lambda tracer, args, result: {"entries": len(result)},
                    ("calls", "s", "entries")),
    "cup.cup1_vec": (["cohomkit.cup:cup1_vec"], None, _CALLS_S),
    "cohomology.integral_basis": ([_CS + "integral_basis"], None, _SELF),
    "cohomology.integral_coords": ([_CS + "integral_coords"], None, _SELF),
    "cohomology.uct_data": ([_CS + "uct_data"], None, _SELF),
    "cohomology.mod_coords": ([_CS + "mod_coords"], None, _SELF),
    "fiso.f_iso_check": (["cohomkit.fiso:f_iso_check"], None, _CALLS_S),
    "fiso.integral_psth_preimage": (
        ["cohomkit.fiso:integral_psth_preimage"], None, _CALLS_S),
    "exact.dense.snf": (["cohomkit.exact.dense:smith_normal_form"],
                        _dense_sizes, ("calls", "s", "max_cells")),
    "exact.modp.rank": (["cohomkit.exact.modp:rank_modp"], None, _CALLS_S),
    "exact.modp.nullspace": (["cohomkit.exact.modp:nullspace_modp"], None,
                             _CALLS_S),
    "exact.modp.solve": (["cohomkit.exact.modp:solve_modp"], None, _CALLS_S),
    "fibrewise.rational_projectivity_test": (
        ["cohomkit.fibrewise:rational_projectivity_test"], None, _SELF),
    "fibrewise.integral_projectivity_test": (
        ["cohomkit.fibrewise:integral_projectivity_test"], None, _SELF),
    "fibrewise.fibre_projectivity_test": (
        ["cohomkit.fibrewise:fibre_projectivity_test"], None, _SELF),
}


class Tracer:
    """Aggregates the outermost span of each label: calls, inclusive and
    self seconds, and the counts its sizes function returns."""

    def __init__(self):
        self.stats: dict = {}
        self.missing: list = []
        self.top_level_s = 0.0
        self.factor_builds_in_fact = 0
        self.csr_seen: set = set()
        self._stack: list = []  # [label, seconds of direct child spans]

    def wrap(self, label, fn, sizes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if any(frame[0] == label for frame in stack):
                return fn(*args, **kwargs)
            if (label == "exact.sparse.factor" and stack
                    and stack[-1][0] == "resolutions.fact"):
                self.factor_builds_in_fact += 1
            frame = [label, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_level_s += dt
            st = self.stats.setdefault(label, {"calls": 0, "s": 0.0,
                                               "self_s": 0.0})
            st["calls"] += 1
            st["s"] += dt
            st["self_s"] += dt - frame[1]
            if sizes is not None:
                for name, value in sizes(self, args, result).items():
                    if name.startswith("max_"):
                        st[name] = max(st.get(name, 0), value)
                    else:
                        st[name] = st.get(name, 0) + value
            return result

        return traced

    def install(self):
        """Wrap every binding of every layer; record the ones not found."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "cohomkit" or name.startswith("cohomkit.")]
        for label, (targets, sizes, _fields) in LAYERS.items():
            for target in targets:
                modname, attrpath = target.split(":")
                *outer, attr = attrpath.split(".")
                try:
                    owner = importlib.import_module(modname)
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                wrapped = self.wrap(label, original, sizes)
                if outer:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in loaded:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)

    def report(self) -> dict:
        return {"layers": self.stats, "missing": self.missing,
                "top_level_s": self.top_level_s,
                "factor_builds_in_fact": self.factor_builds_in_fact}


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layers.py TRACE_OUT.json -- <cohomkit CLI arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from cohomkit import cli
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.report(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
