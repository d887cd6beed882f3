"""Source hygiene: every name a module imports is used in that module, no
function or method is a copy of another, every definition is referenced
somewhere and reached from a command, and every attribute set on ``self``
is read somewhere.

No linter ships with the toolchain, so this parses ``src/cohomkit`` with
``ast``.  Package ``__init__.py`` files are skipped (their imports are
re-exports), as are import lines marked ``# noqa`` (import-time probes).
"""

import ast
import copy
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cohomkit"


def _imported(tree, lines):
    """(bound name, line) for each import outside ``# noqa`` lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0], a) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = [(a.asname or a.name, a) for a in node.names]
        else:
            continue
        for name, alias in names:
            lineno = getattr(alias, "lineno", node.lineno)
            if "# noqa" not in lines[lineno - 1]:
                yield name, lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "FGModule"
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            expr = ast.parse(ann.value, mode="eval")
            used.update(n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree, text.splitlines())
            if name not in used]


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        bad = unused_imports(path)
        if bad:
            found[str(path.relative_to(SRC))] = bad
    assert not found, f"unused imports: {found}"


def test_detects_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\nfrom math import gcd, inf\n"
                   "import numba  # noqa: F401\n\n"
                   "def f(x: \"Path\") -> float:\n    return inf\n")
    assert unused_imports(mod) == [("os", 1), ("gcd", 2)]


def _canonical(node):
    """``ast.dump`` of a function with its name and docstring dropped and its
    parameters and locals renamed in order of first appearance, so copies
    that differ only in those names compare equal."""
    node = copy.deepcopy(node)
    node.name = ""
    first = node.body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        node.body = node.body[1:]
    local = {n.arg for n in ast.walk(node) if isinstance(n, ast.arg)}
    local |= {n.id for n in ast.walk(node)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    renamed = {}
    for n in ast.walk(node):
        field = ("arg" if isinstance(n, ast.arg)
                 else "id" if isinstance(n, ast.Name) else None)
        if field and getattr(n, field) in local:
            name = getattr(n, field)
            setattr(n, field, renamed.setdefault(name, f"_{len(renamed)}"))
    return ast.dump(node)


def duplicate_functions(paths, root: Path):
    """Groups of module-level functions and methods that are the same up to
    their names, docstrings and the names of their parameters and locals."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    by_dump = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            defs = [(node.name, node)] if isinstance(node, kinds) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{n.name}", n) for n in node.body
                        if isinstance(n, kinds)]
            for label, n in defs:
                by_dump.setdefault(_canonical(n), []).append(
                    f"{path.relative_to(root)}:{label}")
    return [names for names in by_dump.values() if len(names) > 1]


def test_no_copied_functions():
    dups = duplicate_functions(sorted(SRC.rglob("*.py")), SRC)
    assert not dups, f"copied functions: {dups}"


def test_detects_a_copied_function(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text('def f(x):\n    """One."""\n    return x + 1\n\n\n'
                   "def g(x):\n    return x + 1\n\n\n"
                   "def h(x):\n    return x - 1\n\n\n"
                   "def k(y):\n    return y + 1\n\n\n"
                   "def s(a):\n    b = a + one\n    return [c for c in b]\n"
                   "\n\ndef t(x):\n    y = x + two\n    return [z for z in y]\n"
                   "\n\nclass C:\n    def m(self, i):\n"
                   "        return self.n[i]\n"
                   "\n\nclass D:\n    def m(self, j):\n"
                   "        return self.n[j]\n"
                   "\n    def p(self, j):\n        return self.q[j]\n")
    assert duplicate_functions([mod], tmp_path) == [
        ["m.py:f", "m.py:g", "m.py:k"], ["m.py:C.m", "m.py:D.m"]]


_WORD = re.compile(r"[A-Za-z_]\w*")


def _references(node) -> Counter:
    """Names a subtree refers to: variables, attributes, imported names and
    identifiers inside string constants (``"module:function"`` bindings)."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs.update(_WORD.findall(n.value))
    return refs


def unreferenced_definitions(defining, referencing, root: Path):
    """Module-level functions and classes, and non-dunder methods, of the
    ``defining`` files whose name occurs in no ``referencing`` file outside
    the definition itself."""
    refs = Counter()
    for path in referencing:
        refs += _references(ast.parse(path.read_text()))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for path in defining:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, kinds):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{n.name}", n) for n in node.body
                         if isinstance(n, kinds)]
            for label, n in defs:
                if n.name.startswith("__") and n.name.endswith("__"):
                    continue
                if refs[n.name] - _references(n)[n.name] <= 0:
                    found.append(f"{path.relative_to(root)}:{label}")
    return found


def test_no_unreferenced_definitions():
    referencing = sorted(p for d in ("src", "tests", "perfbench")
                         for p in (ROOT / d).rglob("*.py"))
    dead = unreferenced_definitions(sorted(SRC.rglob("*.py")), referencing,
                                    SRC)
    assert not dead, f"unreferenced definitions: {dead}"


def test_detects_an_unreferenced_definition(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("def used():\n    return 1\n\n\n"
                   "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                   "def bound():\n    return 2\n\n\n"
                   "class C:\n    def __len__(self):\n        return 0\n\n"
                   "    def called(self):\n        return used()\n\n"
                   "    def dead(self):\n        return self.called()\n")
    user = tmp_path / "user.py"
    user.write_text('from m import C\n\nLAYER = "m:bound"\n')
    assert unreferenced_definitions([mod], [mod, user], tmp_path) == [
        "m.py:recursive", "m.py:C.dead"]


def write_only_attributes(defining, reading, root: Path):
    """Attributes assigned on ``self`` in the ``defining`` files that no
    ``reading`` file ever reads as an attribute."""
    read = set()
    for path in reading:
        read |= {n.attr for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load)}
    found = []
    for path in defining:
        for n in ast.walk(ast.parse(path.read_text())):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                    and n.attr not in read):
                found.append(f"{path.relative_to(root)}:{n.attr}")
    return sorted(set(found))


def test_no_write_only_attributes():
    reading = sorted(p for d in ("src", "tests", "perfbench")
                     for p in (ROOT / d).rglob("*.py"))
    dead = write_only_attributes(sorted(SRC.rglob("*.py")), reading, SRC)
    assert not dead, f"attributes written and never read: {dead}"


def test_detects_a_write_only_attribute(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("class C:\n    def __init__(self, x):\n"
                   "        self.used = x\n        self.dead = x\n"
                   "        self.pair, self.bumped = x, 0\n"
                   "        self.bumped += 1\n\n"
                   "    def get(self):\n        return self.used\n")
    user = tmp_path / "user.py"
    user.write_text("from m import C\n\nprint(C(1).pair)\n")
    assert write_only_attributes([mod], [mod, user], tmp_path) == [
        "m.py:bumped", "m.py:dead"]


# the dense oracles may use only these parts of the package: code they
# shared with the engine they check would repeat its bugs
ORACLE_MODULES = {"cohomkit.exact.dense", "cohomkit.groups",
                  "cohomkit.config", "cohomkit.errors"}


def package_imports(path: Path):
    """Modules (or names) of ``cohomkit`` that a file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.split(".")[0] == "cohomkit"}
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "cohomkit"):
            if node.module == "cohomkit":
                found |= {f"cohomkit.{a.name}" for a in node.names}
            else:
                found.add(node.module)
    return found


def test_oracles_share_no_engine_code():
    used = package_imports(ROOT / "tests" / "oracles.py")
    assert used and used <= ORACLE_MODULES, used - ORACLE_MODULES


def test_detects_an_engine_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import numpy\nimport cohomkit.exact.sparse\n"
                   "from cohomkit.groups import cyclic\n"
                   "from cohomkit import kernels\n"
                   "from cohomkit.exact.dense import smith_normal_form\n")
    assert package_imports(mod) - ORACLE_MODULES == {
        "cohomkit.exact.sparse", "cohomkit.kernels"}


# the dense Smith form runs in the package only as phase 3 of the sparse
# factorization; every other question, over Z or F_p, module presentations
# included, goes to the sparse engine, and the dense helpers built on the
# Smith form live in tests/oracles.py
DENSE_SMITH = {"smith_normal_form", "unimodular_inverse"}
DENSE_SMITH_USERS = {"exact/dense.py", "exact/sparse.py"}
ORACLE_ONLY = {"solve_mod", "cokernel_invariants"}


def dense_smith_misuse(paths, root: Path):
    """(file, name) for each reference to the dense Smith form outside
    ``DENSE_SMITH_USERS`` and each import of an ``ORACLE_ONLY`` helper.
    Package ``__init__.py`` files are skipped (their imports are
    re-exports)."""
    found = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(root).as_posix()
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {a.name.split(".")[-1] for n in nodes
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                    for a in n.names}
        named = imported | {n.id for n in nodes if isinstance(n, ast.Name)}
        named |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        if rel not in DENSE_SMITH_USERS:
            found += [(rel, name) for name in sorted(DENSE_SMITH & named)]
        found += [(rel, name) for name in sorted(ORACLE_ONLY & imported)]
    return found


def test_dense_smith_form_stays_in_its_two_places():
    bad = dense_smith_misuse(sorted(SRC.rglob("*.py")), SRC)
    assert not bad, f"dense Smith form outside its places: {bad}"


def test_detects_dense_smith_misuse(tmp_path):
    (tmp_path / "exact").mkdir()
    (tmp_path / "exact" / "sparse.py").write_text(
        "from .dense import smith_normal_form\n")
    (tmp_path / "exact" / "modp.py").write_text(
        "from . import dense\n\n\ndef rank(A):\n"
        "    return dense.smith_normal_form(A).rank()\n")
    (tmp_path / "fibrewise.py").write_text(
        "from .exact.dense import cokernel_invariants, unimodular_inverse\n")
    (tmp_path / "__init__.py").write_text(
        "from .exact.dense import solve_mod, smith_normal_form\n")
    (tmp_path / "strata.py").write_text(
        "from .exact import dense\n\nsolve_mod = None\n")
    (tmp_path / "cup.py").write_text(
        "from .exact import dense\n\n\ndef koszul(rows):\n"
        "    return dense.smith_normal_form(rows)\n")
    assert dense_smith_misuse(sorted(tmp_path.rglob("*.py")), tmp_path) == [
        ("cup.py", "smith_normal_form"),
        ("exact/modp.py", "smith_normal_form"),
        ("fibrewise.py", "unimodular_inverse"),
        ("fibrewise.py", "cokernel_invariants")]


# a COO triple is sorted and summed into CSR in one place, coo_to_csr; every
# other matrix builder hands its triple to it
COO_SORT = "lexsort"
COO_SORT_HOME = "exact/sparse.py"


def coo_sort_outside_home(paths, root: Path):
    """Files other than ``COO_SORT_HOME`` that refer to ``COO_SORT``."""
    found = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        nodes = ast.walk(ast.parse(path.read_text()))
        if rel != COO_SORT_HOME and any(
                getattr(n, "attr", getattr(n, "id", None)) == COO_SORT
                for n in nodes):
            found.append(rel)
    return found


def test_coo_is_summed_in_one_place():
    bad = coo_sort_outside_home(sorted(SRC.rglob("*.py")), SRC)
    assert not bad, f"COO sorted outside {COO_SORT_HOME}: {bad}"


def test_detects_a_second_coo_sort(tmp_path):
    (tmp_path / "exact").mkdir()
    (tmp_path / "exact" / "sparse.py").write_text(
        "import numpy as np\n\norder = np.lexsort((c, r))\n")
    (tmp_path / "resolutions.py").write_text(
        "import numpy as np\n\n\ndef csr(r, c):\n"
        "    return np.lexsort((c, r))\n")
    (tmp_path / "fibrewise.py").write_text(
        "from numpy import lexsort\n\norder = lexsort((c, r))\n")
    (tmp_path / "cup.py").write_text(
        "from .exact.sparse import coo_to_csr\n\nsort = sorted\n")
    assert coo_sort_outside_home(sorted(tmp_path.rglob("*.py")),
                                 tmp_path) == ["fibrewise.py",
                                               "resolutions.py"]


# a factorization's logs, the op log and the frozen pivot rows', are read
# in one place, kernels.py, whose one replay loop serves every query,
# back-substitution and the self-check; every other module hands a whole
# log to a kernel
LOGS = {"log", "pivot_log"}
LOG_HOME = "kernels.py"


def _log_attributes(node):
    """The ``.log`` and ``.pivot_log`` attributes under ``node``, other than
    called ones such as ``np.log(x)``."""
    called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    return [n for n in ast.walk(node) if isinstance(n, ast.Attribute)
            and n.attr in LOGS and id(n) not in called]


def log_readers(paths, root: Path):
    """``file:line`` for each place outside ``LOG_HOME`` that subscripts,
    unpacks or iterates a log attribute, or passes one to a ufunc's
    ``.at``."""
    found = set()
    for path in paths:
        rel = path.relative_to(root).as_posix()
        if rel == LOG_HOME:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Subscript, ast.Starred)):
                read = [node.value]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, (ast.Tuple, ast.List))
                    for t in node.targets):
                read = [node.value]
            elif isinstance(node, (ast.For, ast.comprehension)):
                read = [node.iter]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "at"):
                read = [n for a in node.args for n in _log_attributes(a)]
            else:
                continue
            found |= {(rel, n.lineno) for n in read
                      if isinstance(n, ast.Attribute) and n.attr in LOGS}
    return [f"{rel}:{line}" for rel, line in sorted(found)]


def test_only_kernels_read_the_log():
    bad = log_readers(sorted(SRC.rglob("*.py")), SRC)
    assert not bad, f"op log read outside {LOG_HOME}: {bad}"


def test_detects_a_log_reader(tmp_path):
    (tmp_path / "exact").mkdir()
    (tmp_path / "kernels.py").write_text(
        "def replay(v, log):\n    aa, qq, *rest = log\n    return aa[0]\n")
    (tmp_path / "exact" / "sparse.py").write_text(
        "import numpy as np\n\n\nclass F:\n    def check(self, v):\n"
        "        aa, qq, batches = self.log\n"
        "        np.subtract.at(v, self.log[0], 1)\n"
        "        ta, *rest = self.pivot_log\n"
        "        return [b for b in self.log]\n\n"
        "    def fine(self, v):\n"
        "        self.log = make(v)\n"
        "        self.pivot_log = make(v)\n"
        "        np.add.at(v, [0], np.log(v))\n"
        "        v = kernels.apply_oplog_int(v, self.log)\n"
        "        return kernels.backsub_mod(self.pivot_log, v)\n")
    (tmp_path / "cohomology.py").write_text(
        "import numpy as np\n\n\ndef count(f, v):\n"
        "    np.add.at(v, f.log, 1)\n    np.add.at(v, f.pivot_log, 1)\n"
        "    return len(f.log[1]) + len(f.pivot_log[1])\n")
    assert log_readers(sorted(tmp_path.rglob("*.py")), tmp_path) == [
        "cohomology.py:5", "cohomology.py:6", "cohomology.py:7",
        "exact/sparse.py:6", "exact/sparse.py:7", "exact/sparse.py:8",
        "exact/sparse.py:9"]


# settings come from the environment in one module, config.py: the engine,
# the sparse elimination's dense switch included, reads no setting itself
ENV_READS = {"environ", "environb", "getenv", "getenvb"}
ENV_HOME = "config.py"


def environment_readers(paths, root: Path):
    """Files other than ``ENV_HOME`` that refer to ``os.environ``,
    ``os.getenv`` or their bytes forms, by attribute or by import."""
    found = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {getattr(n, "attr", getattr(n, "id", None)) for n in nodes}
        names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        if rel != ENV_HOME and names & ENV_READS:
            found.append(rel)
    return found


def test_only_config_reads_the_environment():
    bad = environment_readers(sorted(SRC.rglob("*.py")), SRC)
    assert not bad, f"environment read outside {ENV_HOME}: {bad}"


def test_detects_an_environment_read(tmp_path):
    (tmp_path / "exact").mkdir()
    (tmp_path / "config.py").write_text(
        "import os\n\nraw = os.environ.get('COHOMKIT_SIZE_CAP')\n")
    (tmp_path / "exact" / "sparse.py").write_text(
        "import os\n\n\ndef cutoff():\n"
        "    return int(os.getenv('CUTOFF', '32'))\n")
    (tmp_path / "kernels.py").write_text(
        "from os import environ as env\n\nwide = 'WIDE' in env\n")
    (tmp_path / "cup.py").write_text(
        "import os\n\nhere = os.path.dirname(__file__)\n")
    assert environment_readers(sorted(tmp_path.rglob("*.py")),
                               tmp_path) == ["exact/sparse.py", "kernels.py"]


# a bar differential is built as a CSR matrix only to be factored; every
# other use applies D_n from its faces (BarCochains.matvec)
CSR_BUILD = "csr"
CSR_BUILDER = "resolutions.py:BarCochains.fact"


def _attributes_by_scope(node, scope=""):
    """(qualified name of the innermost enclosing def or class, node) for
    each attribute reference under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield from _attributes_by_scope(
                child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Attribute):
            yield scope, child
        yield from _attributes_by_scope(child, scope)


def csr_builds_outside_fact(paths, root: Path):
    """``file:scope`` for each reference to a ``.csr`` attribute outside
    ``CSR_BUILDER``."""
    found = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        for scope, node in _attributes_by_scope(ast.parse(path.read_text())):
            where = f"{rel}:{scope}"
            if node.attr == CSR_BUILD and where != CSR_BUILDER:
                found.append(where)
    return found


def test_csr_is_built_only_to_be_factored():
    bad = csr_builds_outside_fact(sorted(SRC.rglob("*.py")), SRC)
    assert not bad, f"bar CSR built outside {CSR_BUILDER}: {bad}"


def test_detects_a_csr_build_outside_fact(tmp_path):
    (tmp_path / "resolutions.py").write_text(
        "class BarCochains:\n    def fact(self, n):\n"
        "        return SparseFactorization(self.csr(n))\n\n"
        "    def matvec(self, n, w):\n"
        "        return kernels.csr_matvec_int(*self.csr(n), w)\n")
    (tmp_path / "cohomology.py").write_text(
        "from .exact.sparse import coo_to_csr\n\n\n"
        "def check(bc, n):\n    build = bc.csr\n    return build(n)\n\n\n"
        "def pack(r, c, v):\n    return sparse.coo_to_csr(1, 1, r, c, v)\n")
    (tmp_path / "cup.py").write_text(
        "class BarCochains:\n    def fact(self, n):\n"
        "        return self.csr(n)\n")
    assert csr_builds_outside_fact(sorted(tmp_path.rglob("*.py")),
                                   tmp_path) == [
        "cohomology.py:check", "cup.py:BarCochains.fact",
        "resolutions.py:BarCochains.matvec"]


# a bar differential is factored cleared (BarCochains.fact): its cleared
# columns read as free directions, so its kernel_basis is not ker D_n.
# Kernels are asked for only in this file, of matrices over F_p, which are
# factored whole
KERNEL_BASIS = "kernel_basis"
KERNEL_BASIS_USERS = {"exact/modp.py"}


def kernel_basis_users(paths, root: Path):
    """Files outside ``KERNEL_BASIS_USERS`` that refer to a
    ``.kernel_basis`` attribute."""
    found = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        if rel not in KERNEL_BASIS_USERS and any(
                isinstance(n, ast.Attribute) and n.attr == KERNEL_BASIS
                for n in ast.walk(ast.parse(path.read_text()))):
            found.append(rel)
    return found


def test_kernel_basis_stays_off_the_bar_complex():
    bad = kernel_basis_users(sorted(SRC.rglob("*.py")), SRC)
    assert not bad, f"kernel_basis outside {sorted(KERNEL_BASIS_USERS)}: {bad}"


def test_detects_a_kernel_basis_user(tmp_path):
    (tmp_path / "exact").mkdir()
    (tmp_path / "exact" / "sparse.py").write_text(
        "class SparseFactorization:\n    def kernel_basis(self, m=0):\n"
        "        return []\n")
    (tmp_path / "exact" / "modp.py").write_text(
        "def nullspace(A, p):\n    return factor(A, p).kernel_basis(p)\n")
    (tmp_path / "fibrewise.py").write_text(
        "def kernel(fact):\n    return fact.kernel_basis()\n")
    (tmp_path / "resolutions.py").write_text(
        "def cocycles(bc, n, m):\n    return bc.fact(n + 1).kernel_basis(m)\n")
    (tmp_path / "cohomology.py").write_text(
        "def gens(fact):\n    basis = fact.kernel_basis\n    return basis()\n")
    assert kernel_basis_users(sorted(tmp_path.rglob("*.py")), tmp_path) == [
        "cohomology.py", "fibrewise.py", "resolutions.py"]


# a command's inputs come from its parser, build_parser: no module fills an
# argparse.Namespace by hand, which would skip every check the parser makes
NAMESPACE = "Namespace"


def namespace_builders(paths, root: Path):
    """Files that refer to ``argparse.Namespace``, by attribute or by
    import."""
    found = []
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {getattr(n, "attr", getattr(n, "id", None)) for n in nodes}
        names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        if NAMESPACE in names:
            found.append(path.relative_to(root).as_posix())
    return found


def test_inputs_come_from_the_parser():
    bad = namespace_builders(sorted(SRC.rglob("*.py")), SRC)
    assert not bad, f"argparse.Namespace built by hand: {bad}"


def test_detects_a_hand_built_namespace(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import argparse\n\n\ndef rebuild(inputs):\n"
        "    return argparse.Namespace(**inputs)\n")
    (tmp_path / "fiso.py").write_text(
        "from argparse import Namespace as NS\n\nargs = NS(p=2)\n")
    (tmp_path / "cup.py").write_text(
        "import argparse\n\nap = argparse.ArgumentParser()\n"
        "args = ap.parse_args(['--p', '2'])\n")
    assert namespace_builders(sorted(tmp_path.rglob("*.py")),
                              tmp_path) == ["cli.py", "fiso.py"]


# src holds what the commands reach: every definition is reached from a
# command in cli.py, or bound by name by the benchmark under perfbench/
ENTRY = "cli.py"
_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)


def _code_names(nodes) -> set:
    """Names and attributes the code under ``nodes`` refers to; strings,
    docstrings included, are not code."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreachable_definitions(paths, root: Path, entry: str, bound):
    """Definitions of the ``paths`` that nothing reaches, by name, from the
    top-level defs of ``entry`` and the defs whose name is in ``bound``.

    A reached def reaches the names and attributes in its body and the
    non-import module-level code of its module.  A module-level def is
    reached when its name is reached; a method when its class is reached
    and its name is, or at once if it is a dunder.  Reported: the
    unreached module-level defs and the unreached methods of reached
    classes."""
    defs, glue = [], {}  # (label, name, owner label, body nodes, module)
    for path in paths:
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        glue[rel] = [n for n in tree.body if not isinstance(
            n, (*_DEF, ast.Import, ast.ImportFrom))]
        for node in tree.body:
            if not isinstance(node, _DEF):
                continue
            label = f"{rel}:{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, _FUNC)]
                defs.append((label, node.name, None,
                             [n for n in node.body if n not in methods]
                             + node.bases + node.keywords
                             + node.decorator_list, rel))
                defs += [(f"{label}.{n.name}", n.name, label, [n], rel)
                         for n in methods]
            else:
                defs.append((label, node.name, None, [node], rel))
    names, reached, modules = set(bound), set(), set()

    def reaches(name, owner, rel):
        if owner is None:
            return rel == entry or name in names
        dunder = name.startswith("__") and name.endswith("__")
        return owner in reached and (dunder or name in names)

    while True:
        new = [(label, body, rel) for label, name, owner, body, rel in defs
               if label not in reached and reaches(name, owner, rel)]
        if not new:
            break
        for label, body, rel in new:
            reached.add(label)
            names |= _code_names(body)
            if rel not in modules:
                modules.add(rel)
                names |= _code_names(glue[rel])
    return [label for label, _, owner, _, _ in defs
            if label not in reached and (owner is None or owner in reached)]


def test_src_is_what_the_commands_reach():
    bound = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        bound += _references(ast.parse(path.read_text()))
    dead = unreachable_definitions(sorted(SRC.rglob("*.py")), SRC, ENTRY,
                                   bound)
    assert not dead, f"definitions no command reaches: {dead}"


def test_detects_an_unreachable_definition(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .core import run\n\n\ndef main():\n    return run()\n")
    (tmp_path / "core.py").write_text(
        "from .extra import unused\n\nTABLE = {'h': helper}\n\n\n"
        "def run():\n    return Box().go()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def dead():\n    \"\"\"Calls run().\"\"\"\n    return 'helper'\n\n\n"
        "def timed():\n    return unused()\n\n\n"
        "class Box:\n    def __init__(self):\n        self.n = 0\n\n"
        "    def go(self):\n        return self.n\n\n"
        "    def stale(self):\n        return self.go()\n\n\n"
        "class Spare:\n    def go(self):\n        return 0\n")
    (tmp_path / "extra.py").write_text(
        "def unused():\n    return 0\n\n\ndef never():\n    return 1\n")
    assert unreachable_definitions(
        sorted(tmp_path.rglob("*.py")), tmp_path, "cli.py", {"timed"}) == [
        "core.py:dead", "core.py:Box.stale", "core.py:Spare",
        "extra.py:never"]
