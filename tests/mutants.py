"""Mutation gate for the kernel: every formula is pinned by a test that fails when it changes.

Run from anywhere as ``python3 tests/mutants.py``.  The script copies the
repository (without ``.git``) into temporary directories, so the working tree is
never touched, and mutates the copy's ``src/`` one site at a time with stdlib ``ast``:

* swap ``<``/``<=``, ``>``/``>=`` and ``==``/``!=`` in a comparison;
* swap ``+``/``-`` and ``*``/``/`` in a binary operation;
* add 1 to a constant 0 or 1 (an int or a float, never a bool).

The scope is ``SCOPE``: the functions that compute the costs, the hits, the views and
the boundaries, on the single-prediction path and in the simulation grid, those that
read or draw the predictions they price, a matrix's row reader and the trend bins.  Each
mutant is the whole module written back by ``ast.unparse``; a control run of the
unmutated ``ast.unparse`` form of every module in scope must pass first.  Each mutant
then runs the tier-1 suite with ``-x``, its module's own test file first.  A mutant
the suite passes survives; it is open unless ``EQUIVALENT`` names it, by function and
source text, with the reason it cannot change an output.  A run that takes over 10
minutes or 3 GiB of address space counts as killed.  The script exits 1 on an open
survivor, and on an ``EQUIVALENT`` entry that does not name exactly one surviving
mutant.
"""

from __future__ import annotations

import ast
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# module -> (its first test file, the functions mutated)
SCOPE = {
    "boundaries": (
        "tests/test_boundaries.py",
        ("_threshold", "_condition", "_ends", "_interval", "theorem_boundary"),
    ),
    "costs": (
        "tests/test_costs.py",
        (
            "_escape_sum", "_terms", "cost_init", "cost_random", "cost_general",
            "induced_inputs", "qa_cost_vector",
        ),
    ),
    "io": ("tests/test_io.py", ("_read_rows", "parse_prediction", "_labels_by_row")),
    "model": (
        "tests/test_model.py",
        (
            "_label_vector", "_members_hit", "classify", "project_view", "_share",
            "perfect_prediction", "constant_prediction",
        ),
    ),
    "reporting": ("tests/test_reporting.py", ("_bins", "_points", "trend")),
    "simulation": ("tests/test_simulation.py", ("_cell_sums", "run_grid", "simulate_prediction")),
}

# (module, function, source before, source after) -> why no output can change
EQUIVALENT = {
    ("simulation", "_cell_sums", "np.random.PCG64(0)", "np.random.PCG64(1)"):
        "the generator's state is set before every draw, so its seed is never read",
    ("simulation", "_cell_sums", "'has_uint32': 0", "'has_uint32': 1"):
        "only 32-bit draws read the buffered word; Generator.random draws 64 bits",
    ("simulation", "_cell_sums", "'uinteger': 0", "'uinteger': 1"):
        "only 32-bit draws read the buffered word; Generator.random draws 64 bits",
    ("simulation", "_cell_sums", "max(n, 1)", "max(n, 2)"):
        "it guards a division for a project without files; no block size changes",
    ("model", "_members_hit", "len(starts) - 1", "len(starts) - 2"):
        "it disables the single-member shortcut; np.minimum.reduceat gives the same hits",
    ("io", "_read_rows", "max(1, _BLOCK // stride)", "max(2, _BLOCK // stride)"):
        "it sets only how many rows a block holds; no id, size or 1 position depends on it",
    ("io", "_read_rows", "initial=0", "initial=1"):
        "every size read is at least 1, and with no sizes 1 is still below 2^53",
}

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "results")
# a mutant may allocate without bound; each test run gets this much address space
_ADDRESS_SPACE = 3 << 30
_TIMEOUT_S = 600
# test runs at a time, each in its own copy of the tree
_JOBS = 2


def _sites(tree: ast.Module, functions):
    """(function, node, index of a comparison operator or None), in walk order."""
    for func in tree.body:
        if not (isinstance(func, ast.FunctionDef) and func.name in functions):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in _SWAPS:
                        yield func.name, node, i
            elif isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
                yield func.name, node, None
            elif (
                isinstance(node, ast.Constant)
                and type(node.value) in (int, float)
                and node.value in (0, 1)
            ):
                yield func.name, node, None


def _mutate(node, i) -> None:
    if isinstance(node, ast.Compare):
        node.ops[i] = _SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.BinOp):
        node.op = _SWAPS[type(node.op)]()
    else:
        node.value += 1


def _context(func, node):
    """The source text a mutant is named by: the node, or a constant's enclosing
    expression (a dict value by its key, a negated constant or a slice by what holds it)."""
    if not isinstance(node, ast.Constant):
        return node
    parents = {child: parent for parent in ast.walk(func) for child in ast.iter_child_nodes(parent)}
    parent = parents[node]
    if isinstance(parent, ast.Dict):
        return parent.keys[parent.values.index(node)], node
    while isinstance(parent, (ast.UnaryOp, ast.Slice)):
        parent = parents[parent]
    return parent


def _text(context) -> str:
    if isinstance(context, tuple):
        key, value = context
        return f"{ast.unparse(key)}: {ast.unparse(value)}"
    return ast.unparse(context)


def mutants():
    """Every mutant: (module, function, before, after, mutated module source)."""
    for module, (_, functions) in SCOPE.items():
        source = (ROOT / "src" / "defectcost" / f"{module}.py").read_text()
        count = sum(1 for _ in _sites(ast.parse(source), functions))
        for n in range(count):
            tree = ast.parse(source)
            funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
            name, node, i = next(s for j, s in enumerate(_sites(tree, functions)) if j == n)
            context = _context(funcs[name], node)
            before = _text(context)
            _mutate(node, i)
            yield module, name, before, _text(context), ast.unparse(tree)


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _passes(copy: Path, first: str) -> bool:
    """True when tier-1 passes in ``copy``, stopping at the first failure."""
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", first, "tests",
    ]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_limit, timeout=_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def _copy(parent: Path, name: str) -> Path:
    copy = parent / name
    shutil.copytree(ROOT, copy, ignore=_IGNORE)
    return copy


def _run(copy: Path, module: str, source: str) -> bool:
    target = copy / "src" / "defectcost" / f"{module}.py"
    original = target.read_text()
    target.write_text(source)
    try:
        return _passes(copy, SCOPE[module][0])
    finally:
        target.write_text(original)


def main() -> int:
    start = time.perf_counter()
    found = list(mutants())
    print(f"{len(found)} mutants of {sum(len(f) for _, f in SCOPE.values())} functions")
    with tempfile.TemporaryDirectory(prefix="defectcost-mutants-") as workdir:
        control = _copy(Path(workdir), "control")
        for module in SCOPE:
            target = control / "src" / "defectcost" / f"{module}.py"
            target.write_text(ast.unparse(ast.parse(target.read_text())))
        if not _passes(control, "tests"):
            print("control: the unmutated ast.unparse form fails tier-1")
            return 1
        free = queue.SimpleQueue()  # the copies no worker is using
        for j in range(_JOBS):
            free.put(_copy(Path(workdir), f"worker{j}"))

        def run(mutant):
            copy = free.get()
            try:
                return _run(copy, mutant[0], mutant[4])
            finally:
                free.put(copy)

        with ThreadPoolExecutor(_JOBS) as pool:
            survived = list(pool.map(run, found))
    keys = [mutant[:4] for mutant in found]
    matches = {key: keys.count(key) for key in EQUIVALENT}
    survivors = [key for key, alive in zip(keys, survived) if alive]
    open_survivors = [key for key in survivors if key not in EQUIVALENT]
    # an entry must name exactly one mutant, and the suite must not kill it
    stale = [key for key, count in matches.items() if count != 1 or key not in survivors]
    for key in stale:
        print("stale EQUIVALENT entry ({} mutants, or killed): {}.{}: {} -> {}".format(
            matches[key], *key))
    for key in open_survivors:
        print("OPEN survivor: {}.{}: {} -> {}".format(*key))
    print(
        f"{len(found) - len(survivors)} killed, {len(survivors) - len(open_survivors)} "
        f"equivalent, {len(open_survivors)} open of {len(found)} mutants "
        f"in {time.perf_counter() - start:.0f} s"
    )
    return 1 if open_survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
