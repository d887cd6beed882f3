"""End-to-end benchmark of the cohomkit command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {certify,query,fibre} --seed N \\
        --seconds S --trace {0,1}

Each workload invocation is a fresh ``python3 -m cohomkit.cli --json ...``
child process, importing the program from ``src/``, because that is how a
user pays for a command: interpreter start, imports, factorizations and
caches all start cold.  Children run one at a time (a closed loop of one
client) until the next one would end past ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics.  On a shared host, a
virtual machine's core can change speed by up to twofold for seconds to
minutes at a time, so raw wall time is not comparable from one run to the
next.  The run therefore pins itself and its children to one core, and a
speed probe (``probe.py``, a process at a lower priority) repeats a fixed
loop on that core while each child runs; the scheduler interleaves the two
every few milliseconds, so both see the same core speed.  ``norm_cpu_s``
is the child's CPU time (user + system, from its own rusage) times the
probe's rate during the child, over ``REF_RATE``: the child's CPU time on
a core as fast as ``REF_RATE`` says.  For a single-threaded command that
is its wall time on an idle core of that speed; CPU time adds up every
thread of the child, so a change that only spreads work over more cores
does not lower it.  The metrics are the median ``norm_cpu_s`` and the
median peak RSS of the workload's children, and ``setup_s``, the median
``norm_cpu_s`` of seven fresh ``cohomology --group c2 --coeff Z --deg 1``
children, which is interpreter start, numpy and cohomkit imports (bytecode
already cached) and argument parsing.  A run holds one to three workload
children, so no percentile above the median has ten samples beyond it;
the full record keeps every child's wall time, CPU time and probe rate.

``--trace 1`` alternates untraced children with children run through
``perfbench/layers.py``, which times the public entry points of each module
from outside, and reports the per-layer metrics.

Every child is checked: it must exit 0, print a report whose verdict is
``pass`` and whose isomorphism invariants are the known ones, and print the
same bytes as every other child of the run, traced or not.  ``attempted``
counts every child the run started and ``failed`` those that failed a check,
so ``failed / attempted`` is the failure fraction.  The last line of stdout
is the result object; the line before it records the environment, and the
full record of the run is written under ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import LAYERS

ROOT = Path.cwd().resolve()
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_ARGV = ["cohomology", "--group", "c2", "--coeff", "Z", "--deg", "1"]
SETUP_REPEATS = 7
# The speed probe runs at this nice level, so it takes about a quarter of
# the pinned core and a child's wall time grows by about a third.
PROBE_NICE = 5
# Probe chunks per CPU second, about the probe's median rate on a core of
# the 2-vCPU Intel Xeon VM the benchmark was tuned on (its rate ranged from
# about 690 to 1110 there).
REF_RATE = 800.0
# A child still running this long after the run started is killed, so that
# the run always ends within three minutes.
DEADLINE_S = 170

# One-line image generators of the builtin groups the workloads relabel.
GENERATORS = {
    "s3": [(1, 0, 2), (1, 2, 0)],
    "klein4": [(1, 0, 3, 2), (2, 3, 0, 1)],
}


# -- seeded inputs -------------------------------------------------------------

def _compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def relabelled_group(name: str, seed: int) -> dict:
    """Group file for the left-regular representation of a builtin group,
    with its points shuffled by ``seed``.

    cohomkit orders group elements by their permutations, so the shuffled
    copy lists the same group in another element order: every cochain
    matrix is permuted, every isomorphism invariant stays the same.
    """
    gens = GENERATORS[name]
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        new = {_compose(g, x) for x in frontier for g in gens} - seen
        seen |= new
        frontier = list(new)
    elems = sorted(seen)
    index = {e: i for i, e in enumerate(elems)}
    sigma = list(range(len(elems)))
    random.Random(seed).shuffle(sigma)
    out = []
    for g in gens:
        left = [index[_compose(g, e)] for e in elems]
        perm = [0] * len(elems)
        for i, j in enumerate(left):
            perm[sigma[i]] = sigma[j]
        out.append(perm)
    return {"name": name, "generators": out}


# -- correctness gates ---------------------------------------------------------
# Each gate returns the list of problems with a parsed report; the checks use
# only isomorphism invariants, so they hold for every relabelling.

def gate_setup(rep: dict) -> list:
    if rep.get("invariant_factors") != []:
        return [f"H^1(c2; Z) reported as {rep.get('invariant_factors')}"]
    return []


def gate_certify(rep: dict) -> list:
    problems = []
    if rep.get("s") != 1:
        problems.append(f"s = {rep.get('s')}, expected 1")
    kernel = {k.get("degree"): k.get("kernel_dim")
              for k in rep.get("kernel_checks", [])}
    if kernel != {d: 0 for d in range(1, 7)}:
        problems.append(f"kernel dims {kernel}, expected 0 in degrees 1-6")
    invariants = {w.get("power_degree"): w.get("preimage_invariants")
                  for w in rep.get("onto_witnesses", [])}
    if invariants != {2: [2], 4: [6], 6: [2]}:
        problems.append(f"preimage invariants {invariants}")
    if not all(w.get("verified") is True
               for w in rep.get("onto_witnesses", [])):
        problems.append("an onto witness is not verified")
    return problems


def gate_query(rep: dict) -> list:
    problems = []
    kernel = rep.get("kernel_nilpotent", [])
    if not kernel or any(k.get("kernel_dim") != 0 for k in kernel):
        problems.append(f"kernel dims {[k.get('kernel_dim') for k in kernel]}")
    onto = rep.get("onto_witnesses", [])
    if not onto or not all(w.get("found") is True for w in onto):
        problems.append("an onto witness is missing")
    return problems


def gate_fibre(rep: dict) -> list:
    problems = []
    rows = rep.get("results", [])
    if len(rows) != 9:
        problems.append(f"{len(rows)} rows, expected 9")
    for r in rows:
        if r.get("agree") is not True:
            problems.append(f"{r.get('group')}/{r.get('module')} disagrees")
        if r.get("direct_projective") is not (r.get("module") == "ZG"):
            problems.append(f"{r.get('group')}/{r.get('module')}: "
                            f"direct_projective {r.get('direct_projective')}")
    return problems


# Why each workload, and the layers each must record at least one call in
# (the benchmark's own tests check the latter).
WORKLOADS = {
    # The paper's headline certificate; ~90% of its wall time builds sparse
    # factorizations, of D_6 over Z and over F_2 above all.  The element
    # order a seed gives changes the fill of those eliminations, so its
    # time and peak RSS differ from seed to seed by up to ~25%.
    "certify": {
        "group": "s3",
        "argv": ["fiso", "--group", "{group}", "--p", "2", "--max-deg", "6"],
        "gate": gate_certify,
        "layers": ["resolutions.csr", "resolutions.fact",
                   "exact.sparse.factor", "exact.sparse.solve",
                   "exact.sparse.coords", "exact.sparse.torsion_reps",
                   "kernels.replay_int", "kernels.replay_mod",
                   "kernels.backsub", "kernels.matvec", "cup.cup_vec",
                   "cohomology.integral_basis", "cohomology.uct_data",
                   "fiso.f_iso_check", "fiso.integral_psth_preimage",
                   "exact.dense.snf"],
    },
    # Small factorizations queried many times: op-log replay over Z, CSR
    # matvec and back-substitution dominate, and the factorization cache
    # serves almost every request.  Every reordering of the Klein group's
    # three involutions is an automorphism, so each seed writes another file
    # but cohomkit builds the same table from it.
    "query": {
        "group": "klein4",
        "argv": ["kappa", "--group", "{group}", "--p", "2", "--max-deg", "6"],
        "gate": gate_query,
        "layers": ["resolutions.csr", "resolutions.fact",
                   "exact.sparse.factor", "exact.sparse.solve",
                   "exact.sparse.coords", "exact.sparse.torsion_reps",
                   "kernels.replay_int", "kernels.backsub", "kernels.matvec",
                   "cup.cup_vec", "cohomology.integral_basis",
                   "cohomology.integral_coords", "cohomology.uct_data",
                   "cohomology.mod_coords"],
    },
    # Dense SNF, mod-p elimination and the Fraction Gauss-Jordan of the
    # fibrewise tests, which the other two workloads bypass; it never builds
    # the bar complex.  It takes no group, so the seed does not change it.
    "fibre": {
        "group": None,
        "argv": ["verify-paper", "--suite", "lemma2.7"],
        "gate": gate_fibre,
        "layers": ["exact.dense.snf", "exact.modp.solve",
                   "fibrewise.rational_projectivity_test",
                   "fibrewise.integral_projectivity_test",
                   "fibrewise.fibre_projectivity_test"],
    },
}


# -- children ------------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment without its COHOMKIT_* variables (so the
    size cap and kernel backend are the defaults) and PYTHON* variables (so
    bytecode caching, buffering and hashing are the interpreter's defaults),
    with src/ importable and bytecode cached under the work directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("COHOMKIT_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class SpeedProbe:
    """``probe.py`` running at nice ``PROBE_NICE`` on this process's core.

    A separate process, so that the workload children, which start as
    copies of this process, do not count the probe's memory in their peak
    RSS.  ``reading()`` is (chunks done, the probe's CPU seconds).
    """

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            os.setpriority(os.PRIO_PROCESS, self.proc.pid, PROBE_NICE)
            if self.proc.stdout.readline() != b"ready\n":
                raise SystemExit("the speed probe did not start")
        except BaseException:
            self.stop()
            raise

    def reading(self):
        os.kill(self.proc.pid, signal.SIGUSR1)
        chunks, cpu_s = self.proc.stdout.readline().split()
        return int(chunks), float(cpu_s)

    def stop(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Child:
    """One finished child process: wall and CPU time, own peak RSS, output,
    and the probe's rate while it ran (None without a probe)."""

    def __init__(self, argv, env, tag, deadline, probe=None):
        out_path = WORK / "out" / f"{tag}.stdout"
        err_path = WORK / "out" / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            before = probe.reading() if probe else None
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(
                max(1.0, deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
            after = probe.reading() if probe else None
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux; it covers this child alone.
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.probe_chunks = self.probe_rate = self.norm_cpu_s = None
        if probe:
            self.probe_chunks = after[0] - before[0]
            if self.probe_chunks:
                self.probe_rate = self.probe_chunks / (after[1] - before[1])
                self.norm_cpu_s = self.cpu_s * self.probe_rate / REF_RATE
        self.stdout = out_path.read_bytes()
        self.stderr_tail = err_path.read_text(errors="replace")[-2000:]

    def problems(self, gate) -> list:
        if self.exit_code != 0:
            return [f"exit code {self.exit_code}: {self.stderr_tail.strip()}"]
        if self.probe_chunks is not None and self.probe_chunks < 10:
            return [f"speed probe ran {self.probe_chunks} chunks"]
        try:
            rep = json.loads(self.stdout)
        except ValueError:
            return ["stdout is not a JSON report"]
        if rep.get("verdict") != "pass":
            return [f"verdict {rep.get('verdict')!r}"]
        return gate(rep)


def cli_argv(args) -> list:
    return [sys.executable, "-m", "cohomkit.cli", "--json", *args]


def traced_argv(args, trace_path) -> list:
    return [sys.executable, str(HERE / "layers.py"), str(trace_path), "--",
            "--json", *args]


def environment_record(env) -> dict:
    """Versions, core count and kernel backend, as the children see them;
    fails if cohomkit would not be imported from this checkout's src/.

    The probe imports every cohomkit module, so it also writes the bytecode
    caches before any child is timed."""
    probe = ("import json, sys, numpy, cohomkit, cohomkit.cli,"
             " cohomkit.kernels as k;"
             "print(json.dumps({'python': sys.version.split()[0],"
             "'numpy': numpy.__version__, 'cohomkit': cohomkit.__version__,"
             "'cohomkit_file': cohomkit.__file__, 'backend': k.backend()}))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise SystemExit(f"cannot import cohomkit from src/: {out.stderr}")
    rec = json.loads(out.stdout)
    src = (ROOT / "src").resolve()
    if not Path(rec.pop("cohomkit_file")).resolve().is_relative_to(src):
        raise SystemExit("cohomkit is not imported from this checkout's src/")
    rec["nproc"] = len(os.sched_getaffinity(0))
    rec["platform"] = platform.platform()
    rec["caller_env"] = {k: v for k, v in sorted(os.environ.items())
                         if k.startswith(("COHOMKIT_", "PYTHON"))}
    return rec


# -- metrics -------------------------------------------------------------------

_UNITS = {"s": "s", "self_s": "s"}


def layer_metrics(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced child."""
    layers = trace["layers"]
    out = {}
    for label, (_bindings, _sizes, fields) in LAYERS.items():
        st = layers.get(label, {})
        for f in fields:
            out[f"{label}.{f}"] = (st.get(f, 0), _UNITS.get(f, "count"))
    fact_calls = layers.get("resolutions.fact", {}).get("calls", 0)
    hit = (1 - trace["factor_builds_in_fact"] / fact_calls
           if fact_calls else 0.0)
    out["resolutions.fact.hit_ratio"] = (hit, "frac")
    replay = [layers.get(k, {}) for k in ("kernels.replay_int",
                                          "kernels.replay_mod")]
    replay_s = sum(st.get("s", 0.0) for st in replay)
    replay_ops = sum(st.get("ops", 0) for st in replay)
    out["kernels.replay.ops_per_s"] = (
        replay_ops / replay_s if replay_s else 0.0, "1/s")
    out["cli.unattributed_s"] = (wall_s - trace["top_level_s"], "s")
    return out


def median_metrics(samples: list) -> dict:
    return {name: {"value": statistics.median(s[name][0] for s in samples),
                   "unit": samples[0][name][1]}
            for name in samples[0]}


# -- the run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    spec = WORKLOADS[workload]
    env = child_env()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "environment": environment_record(env),
              "children": []}
    args = list(spec["argv"])
    if spec["group"]:
        path = WORK / "inputs" / f"{spec['group']}-seed{seed}.json"
        path.write_text(json.dumps(relabelled_group(spec["group"], seed)))
        args = [a.replace("{group}", str(path.relative_to(ROOT)))
                for a in args]
    record["argv"] = args

    # Untraced runs pin this process (so its threads and children) to one
    # core and start the probe there; traced runs time layers, not the core.
    probe = None
    if not traced:
        core = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
        record["environment"]["pinned_core"] = core
        probe = SpeedProbe(env)
    try:
        return _measure(record, spec, args, env, seconds, traced, probe,
                        deadline)
    finally:
        if probe:
            probe.stop()


def _measure(record, spec, args, env, seconds, traced, probe, deadline):
    workload, seed = record["workload"], record["seed"]
    failures, digests = 0, set()

    def launch(kind, argv, gate, trace_path=None):
        nonlocal failures
        tag = f"{workload}-{seed}-{len(record['children'])}"
        c = Child(argv, env, tag, deadline, probe)
        problems = c.problems(gate)
        digest = hashlib.sha256(c.stdout).hexdigest()
        if kind != "setup":
            digests.add(digest)
            if len(digests) > 1:
                problems.append("stdout differs from an earlier child")
        trace = None
        if trace_path is not None and not problems:
            trace = json.loads(trace_path.read_text())
            if trace["missing"]:
                problems.append(f"layers not found: {trace['missing']}")
        failures += bool(problems)
        record["children"].append({
            "kind": kind, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
            "probe_rate": c.probe_rate, "norm_cpu_s": c.norm_cpu_s,
            "peak_rss_mb": c.peak_rss_mb, "exit_code": c.exit_code,
            "stdout_sha256": digest, "problems": problems})
        return c, trace

    setup = []
    if not traced:
        setup = [launch("setup", cli_argv(SETUP_ARGV), gate_setup)[0]
                 for _ in range(SETUP_REPEATS)]

    untraced, traces = [], []
    t0 = time.perf_counter()
    while True:
        if traced and len(untraced) > len(traces):
            trace_path = WORK / "out" / f"{workload}-{seed}-trace.json"
            trace_path.unlink(missing_ok=True)
            c, tr = launch("traced", traced_argv(args, trace_path),
                           spec["gate"], trace_path)
            traces.append((c, tr))
        else:
            untraced.append(launch("untraced", cli_argv(args),
                                   spec["gate"])[0])
        elapsed = time.perf_counter() - t0
        mean = elapsed / (len(untraced) + len(traces))
        if failures or (not traced or traces) and elapsed + mean > seconds:
            break

    if traced:
        base = statistics.median(c.wall_s for c in untraced)
        samples = [layer_metrics(tr, c.wall_s) for c, tr in traces
                   if tr is not None]
        metrics = median_metrics(samples) if samples else {}
        if samples:
            metrics["trace.overhead_frac"] = {
                "value": statistics.median(c.wall_s for c, _ in traces)
                / base - 1, "unit": "frac"}
    elif not failures:
        metrics = {
            "norm_cpu_s": {"value": statistics.median(
                c.norm_cpu_s for c in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                c.peak_rss_mb for c in untraced), "unit": "MB"},
            "setup_s": {"value": statistics.median(
                c.norm_cpu_s for c in setup), "unit": "s"},
        }
    else:
        metrics = {}
    attempted = len(record["children"])
    result = {"correct": failures == 0 and bool(metrics),
              "attempted": attempted, "failed": failures, "metrics": metrics}
    record["result"] = result
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "cohomkit" / "__init__.py").is_file():
        print("run from the root of a cohomkit checkout: src/cohomkit is "
              "missing", file=sys.stderr)
        return 2
    # On SIGTERM, unwind so that the running child and the probe are
    # killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    for sub in ("inputs", "out", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    record = run(a.workload, a.seed, a.seconds, bool(a.trace))
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
