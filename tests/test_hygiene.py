"""Source hygiene: unused imports and the package's import layering.

No module under src/ or demos/ imports a name it never uses.  Package
__init__.py files are exempt (their imports are the re-exported API), and
so is `from __future__`.  tests/ is not scanned.

The runtime sits on top of the worlds: state, engine, interaction and the
experiments never import qcausal.runtime when they are loaded.  A driver
may still import it inside a function, which runs after both modules are
loaded, so no import cycle can form.

What a world means lives beside the world: every RoundPolicy subclass in
the package is defined under experiments/, so the runtime stays a generic
scheduler.

There is one trial loop: interaction.run_trials.  No other function under
src/ derives a trial's stream (a substream keyed by anything but a string
literal) or names RefinedRuntime, apart from runtime.py, which defines it.

All randomness goes through engine.random_draw: no other function under
src/ calls .random() on a generator, so no memo or shortcut can open a
second draw path past its checks.

Engines never read another object's state: ObjectEngine reaches the world
only through the public methods of the RoundView it is handed, and names
no mediator, board, state or record store: nothing RefinedRuntime or
SpaceMediator assigns on self.

Memo keys live in one place: under experiments/, every id(...) call is an
argument of a self.memoised(...) call, whose entry holds what the id names,
or sits in BellRoundPolicy.effect, the one memo that trusts equality.

An object's attribute blocks are never written in place: memoised and
template-served objects share their conserved and global_attrs dicts with
every later trial, so no code under src/ assigns, deletes or augments
into .conserved or .global_attrs, or calls a dict method that changes
them.  The scan is syntactic: it sees the blocks only where they are
named as attributes.

bell, lhv, analyze and --help load no numpy: no module they load imports
numpy, wave or a numpy experiment when it is loaded.  The subcommands
that use arrays import them inside their functions.

Every function the benchmark hooks exists: perfbench/run.py wraps each
target in its HOOKS, and a target that is gone turns its layer metric
into null, which the benchmark refuses as malformed output.
"""

import ast
import importlib.util
import sys
from pathlib import Path

from qcausal import interaction

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "demos")
PACKAGE = ROOT / "src" / "qcausal"
BELOW_RUNTIME = ("state.py", "engine.py", "interaction.py", "experiments/*.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name that the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import pi as PI, tau\n"
        "print(os.path.sep, PI)\n"
    )
    assert unused_imports(source) == [(3, "json"), (4, "tau")]


def test_no_unused_imports():
    offenders = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                offenders.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert offenders == []


def _load_time_nodes(tree: ast.Module):
    """Every node that runs when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def load_time_imports(source: str, package: str):
    """(line, targets) for each import a module of `package` runs when it is
    loaded.  targets are absolute: the module named and, for a from-import,
    each name under it, which may be a submodule."""
    for node in _load_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1] + ([node.module] if node.module else [])
                base = ".".join(parts)
            yield node.lineno, [base] + [f"{base}.{alias.name}" for alias in node.names]


def _within(target: str, module: str) -> bool:
    return target == module or target.startswith(module + ".")


def runtime_imports(source: str, package: str) -> list[int]:
    """Lines where a module of `package` imports qcausal.runtime at load time."""
    return sorted(
        line for line, targets in load_time_imports(source, package)
        if any(_within(t, "qcausal.runtime") for t in targets)
    )


def test_layering_scanner_flags_load_time_runtime_imports():
    source = (
        "from ..runtime import RefinedRuntime\n"
        "from .. import runtime\n"
        "import qcausal.runtime as rt\n"
        "from ..interaction import claim\n"
        "from . import runtime as sibling\n"
        "from ..runtimes import other\n"
        "def lazy():\n"
        "    from ..runtime import RefinedRuntime\n"
        "if True:\n"
        "    from qcausal.runtime import SCHEDULERS\n"
    )
    assert runtime_imports(source, "qcausal.experiments") == [1, 2, 3, 10]


def test_worlds_do_not_import_the_runtime_at_load_time():
    offenders = []
    for pattern in BELOW_RUNTIME:
        for path in sorted(PACKAGE.glob(pattern)):
            package = ".".join(path.parent.relative_to(PACKAGE.parent).parts)
            for line in runtime_imports(path.read_text(), package):
                offenders.append(f"{path.relative_to(ROOT)}:{line}")
    assert offenders == []


# what bell, lhv, analyze and --help load; none of them uses an array
LEAN_MODULES = (
    "cli.py", "choices.py", "runtime.py", "experiments/__init__.py", "experiments/bell.py",
    "interaction.py", "state.py", "engine.py", "locality.py", "errors.py",
)
NUMPY_MODULES = ("numpy", "qcausal.wave", "qcausal.experiments.doubleslit", "qcausal.experiments.pendulum")


def imports_of(source: str, package: str, modules) -> list[tuple[int, str]]:
    """(line, module) where a module of `package` imports, at load time, one
    of modules or a module under one."""
    found = []
    for line, targets in load_time_imports(source, package):
        hit = next((t for t in targets if any(_within(t, m) for m in modules)), None)
        if hit is not None:
            found.append((line, hit))
    return sorted(found)


def numpy_imports(source: str, package: str) -> list[tuple[int, str]]:
    """(line, module) where a module of `package` imports, at load time,
    numpy or a module that loads it."""
    return imports_of(source, package, NUMPY_MODULES)


def test_numpy_scanner_flags_load_time_imports_of_array_modules():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "from .wave import BOUNDARIES\n"
        "from .experiments import bell, doubleslit\n"
        "from .experiments.pendulum import MODES\n"
        "from .choices import BOUNDARIES\n"
        "import numbers\n"
        "from .experiments import bell\n"
        "def cmd_wave(args):\n"
        "    import numpy as np\n"
        "    from .wave import run_wave\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert numpy_imports(source, "qcausal") == [
        (1, "numpy"),
        (2, "numpy.random"),
        (3, "qcausal.wave"),
        (4, "qcausal.experiments.doubleslit"),
        (5, "qcausal.experiments.pendulum"),
        (13, "numpy"),
    ]


def test_lean_subcommands_import_no_numpy_at_load_time():
    offenders = []
    for name in LEAN_MODULES:
        path = PACKAGE / name
        package = ".".join(path.parent.relative_to(PACKAGE.parent).parts)
        for line, module in numpy_imports(path.read_text(), package):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {module}")
    assert offenders == []


def test_only_analyze_imports_the_locality_module():
    # the package serves the locality names lazily and cmd_analyze imports
    # them, so no other subcommand loads qcausal.locality
    snippet = "from .locality import classify_model\nfrom . import locality\ndef f():\n    from .locality import x\n"
    assert imports_of(snippet, "qcausal", ("qcausal.locality",)) == [(1, "qcausal.locality"), (2, "qcausal.locality")]
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "locality.py":
            continue
        package = ".".join(path.parent.relative_to(PACKAGE.parent).parts)
        for line, module in imports_of(path.read_text(), package, ("qcausal.locality",)):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {module}")
    assert offenders == []


def policy_classes(source: str) -> list[tuple[int, str]]:
    """(line, name) of each class whose base is RoundPolicy or a subclass
    named like one (any base name ending in RoundPolicy)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if name.endswith("RoundPolicy"):
                found.append((node.lineno, node.name))
                break
    return found


def test_policy_scanner_flags_round_policy_subclasses():
    source = (
        "class RoundPolicy:\n"
        "    pass\n"
        "class A(RoundPolicy):\n"
        "    pass\n"
        "class B(interaction.RoundPolicy, Mixin):\n"
        "    pass\n"
        "class C(BellRoundPolicy):\n"
        "    pass\n"
        "class D(Policy):\n"
        "    class E(object, RoundPolicy):\n"
        "        pass\n"
        "F = RoundPolicy\n"
    )
    assert policy_classes(source) == [(3, "A"), (5, "B"), (7, "C"), (10, "E")]


def test_round_policies_live_beside_their_worlds():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.parent.name == "experiments":
            continue
        for line, name in policy_classes(path.read_text()):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert offenders == []


def scoped_matches(source: str, match) -> list[tuple[int, str]]:
    """(line, enclosing function's qualified name) of each node match
    accepts; "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif match(child):
                found.append((child.lineno, scope))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def random_calls(source: str) -> list[tuple[int, str]]:
    """Each .random() call without arguments, the call an RngState draws
    with, as scoped_matches gives it."""
    return scoped_matches(
        source,
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
        and not node.args
        and not node.keywords,
    )


def test_random_call_scanner_names_the_enclosing_function():
    source = (
        "import numpy as np\n"
        "u = rng.random()\n"
        "def draw(rng):\n"
        "    return rng.random() * 2\n"
        "class Policy:\n"
        "    def pick(self):\n"
        "        xs = [self.rng.random() for _ in range(3)]\n"
        "        return np.random.default_rng(0).random(4), self.rng.random(3)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return random.random()\n"
    )
    assert random_calls(source) == [(2, ""), (4, "draw"), (7, "Policy.pick"), (11, "outer.inner")]


def test_only_random_draw_draws():
    # RngState.random is the stream itself, reading its Mersenne Twister
    allowed = {("engine.py", "random_draw"), ("engine.py", "RngState.random")}
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for line, scope in random_calls(path.read_text()):
            if (module, scope) not in allowed:
                offenders.append(f"{path.relative_to(ROOT)}:{line}: {scope or '<module>'}")
    assert offenders == []


def trial_loop_parts(source: str) -> list[tuple[int, str]]:
    """Each place a module names RefinedRuntime, or derives a substream whose
    first key is not a string literal (a per-trial stream), as
    scoped_matches gives it."""

    def match(node):
        if isinstance(node, ast.Name):
            return node.id == "RefinedRuntime"
        if isinstance(node, ast.Attribute):
            return node.attr == "RefinedRuntime"
        if isinstance(node, ast.alias):
            return node.name == "RefinedRuntime"
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "substream"
            and bool(node.args)
            and not (isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str))
        )

    return scoped_matches(source, match)


def test_trial_loop_scanner_flags_runtimes_and_trial_streams():
    source = (
        "from ..runtime import RefinedRuntime\n"
        "def run(root, trials):\n"
        "    for trial in range(trials):\n"
        "        rng = root.substream(trial)\n"
        "        runtime.RefinedRuntime(None, None, rng.substream('events'))\n"
        "    return RngState(0).substream('spin', 30.0), root.substream(0)\n"
    )
    assert trial_loop_parts(source) == [(1, ""), (4, "run"), (5, "run"), (6, "run")]


def test_only_the_driver_runs_trials():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module == "runtime.py":
            continue
        for line, scope in trial_loop_parts(path.read_text()):
            if (module, scope) != ("interaction.py", "run_trials"):
                offenders.append(f"{path.relative_to(ROOT)}:{line}: {scope or '<module>'}")
    assert offenders == []


def stores_of(source: str, *classes: str) -> set[str]:
    """Every attribute the named classes assign on self."""
    return {
        node.attr
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef) and cls.name in classes
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


# what an engine may not name: the runtime's and the mediator's own state,
# read from their source so that a store added later is out of reach too,
# and the names of stores that are gone
ENGINE_FORBIDDEN = stores_of((PACKAGE / "runtime.py").read_text(), "RefinedRuntime", "SpaceMediator") | {
    "_mediator", "mediator", "board", "board_by_object", "published", "state", "_records", "_snapshots",
    "_publications", "_boards", "_by_identity", "_empty", "_entry", "_seen", "_views",
}


def engine_reach(source: str) -> list[tuple[int, str]]:
    """(line, name) of each place ObjectEngine names something outside its
    RoundView: a name or attribute in ENGINE_FORBIDDEN, a private attribute
    of anything but self, or an attribute of `view` that is not a public
    method of RoundView."""
    classes = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}
    aperture = {
        node.name
        for node in classes["RoundView"].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    found = []
    for node in ast.walk(classes["ObjectEngine"]):
        if isinstance(node, ast.Name) and node.id in ENGINE_FORBIDDEN:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if (
                node.attr in ENGINE_FORBIDDEN
                or (node.attr.startswith("_") and owner != "self")
                or (owner == "view" and node.attr not in aperture)
            ):
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_engine_scanner_flags_reaches_past_the_view():
    source = (
        "class RoundView:\n"
        "    def own_cells(self):\n"
        "        return self._mediator.cells\n"
        "    def _peek(self):\n"
        "        pass\n"
        "class ObjectEngine:\n"
        "    def detect(self, view):\n"
        "        mine = view.own_cells()\n"
        "        board = view._mediator.board\n"
        "        other = view._peek()\n"
        "        return view.state, self.object_id, mine\n"
    )
    assert engine_reach(source) == [(9, "_mediator"), (9, "board"), (9, "board"), (10, "_peek"), (11, "state")]


def test_the_store_reader_finds_every_assignment_on_self():
    source = (
        "class RefinedRuntime:\n"
        "    def f(self, other):\n"
        "        self.a = 1\n"
        "        self._b, self.c = 2, 3\n"
        "        x = self._d = 4\n"
        "        self.e += 1\n"
        "        self.f: int = 5\n"
        "        other.g = self.h\n"
        "class ObjectEngine:\n"
        "    def f(self):\n"
        "        self.i = 1\n"
    )
    assert stores_of(source, "RefinedRuntime") == {"a", "_b", "c", "_d", "e", "f"}
    # the runtime's own stores are among what an engine may not name
    assert {"_publications", "_order", "engines", "_proposals", "rejections", "rng"} <= ENGINE_FORBIDDEN


def test_engines_reach_the_world_only_through_their_view():
    path = PACKAGE / "runtime.py"
    assert engine_reach(path.read_text()) == []


def stray_ids(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of each id(...) call that is not inside the
    arguments of a self.memoised(...) call."""
    found = []

    def visit(node, scope, in_memoised):
        for child in ast.iter_child_nodes(node):
            inner, memoised = scope, in_memoised
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == "id" and not in_memoised:
                    found.append((child.lineno, scope))
                memoised = in_memoised or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "memoised"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                )
            visit(child, inner, memoised)

    visit(ast.parse(source), "", False)
    return found


def test_memo_key_scanner_flags_ids_outside_the_memo():
    source = (
        "KEY = id(object())\n"
        "class BellRoundPolicy:\n"
        "    def effect(self, a, b):\n"
        "        return {(id(a), id(b)): 1}\n"
        "    def prepare(self, pair, angle):\n"
        "        key = ('analyzed', id(pair), angle)\n"
        "        return self.memoised(('analyzed', id(pair), angle), build, pair)\n"
        "class DoubleSlitRoundPolicy:\n"
        "    def effect(self, a):\n"
        "        return other.memoised((id(a),), build, a), self.memoised((f(id(a)),), build, a)\n"
        "    def propagate(self, obj):\n"
        "        return self.memoised(('fan', id(obj)), build, obj) if id(obj) else None\n"
    )
    assert stray_ids(source) == [(1, ""), (4, "BellRoundPolicy.effect"), (4, "BellRoundPolicy.effect"),
                                 (6, "BellRoundPolicy.prepare"), (10, "DoubleSlitRoundPolicy.effect"),
                                 (12, "DoubleSlitRoundPolicy.propagate")]


def test_worlds_key_memos_only_through_memoised():
    offenders = []
    for path in sorted(PACKAGE.glob("experiments/*.py")):
        for line, scope in stray_ids(path.read_text()):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {scope or '<module>'}")
    assert offenders == []


BLOCKS = ("conserved", "global_attrs")
DICT_WRITERS = ("update", "pop", "popitem", "setdefault", "clear")


def block_writes(source: str) -> list[tuple[int, str]]:
    """Each in-place write into a .conserved or .global_attrs block (an item
    assigned, deleted or augmented, the block augmented, or a dict method
    that changes it called), as scoped_matches gives it."""

    def is_block(node):
        return isinstance(node, ast.Attribute) and node.attr in BLOCKS

    def match(node):
        if isinstance(node, ast.Subscript):
            return isinstance(node.ctx, (ast.Store, ast.Del)) and is_block(node.value)
        if isinstance(node, ast.AugAssign):
            return is_block(node.target)
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DICT_WRITERS
            and is_block(node.func.value)
        )

    return scoped_matches(source, match)


def test_block_write_scanner_flags_in_place_writes():
    source = (
        "def build(obj, out):\n"
        "    obj.conserved['energy'] = 1.0\n"
        "    out.core.global_attrs['position'] += (1,)\n"
        "    del obj.conserved['momentum']\n"
        "    obj.global_attrs |= {'x': 1}\n"
        "class Policy:\n"
        "    def step(self, obj):\n"
        "        obj.conserved.update(energy=2.0)\n"
        "        self.out.global_attrs.setdefault('x', 0), obj.conserved.pop('energy')\n"
        "        obj.global_attrs.clear() or obj.conserved.popitem()\n"
        "def fine(obj, x):\n"
        "    c = dict(obj.conserved)\n"
        "    c['energy'] = obj.conserved['energy'] + obj.global_attrs.get('x', 0)\n"
        "    x.conserved = {}\n"
        "    return obj.conserved.copy(), conserved.update(c)\n"
    )
    assert block_writes(source) == [
        (2, "build"), (3, "build"), (4, "build"), (5, "build"),
        (8, "Policy.step"), (9, "Policy.step"), (9, "Policy.step"), (10, "Policy.step"), (10, "Policy.step"),
    ]


def test_no_code_writes_into_an_objects_blocks():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, scope in block_writes(path.read_text()):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {scope or '<module>'}")
    assert offenders == []


def _perfbench_run(monkeypatch):
    """perfbench/run.py loaded as a module, without running it."""
    bench = ROOT / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # for its `import calibrate`
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def unresolved_hooks(run) -> list[str]:
    return [hook.target for hook in run.HOOKS if run._resolve(hook.target) is None]


def test_hook_check_names_a_deleted_target(monkeypatch):
    run = _perfbench_run(monkeypatch)
    monkeypatch.delattr(interaction, "drop_particle")
    assert unresolved_hooks(run) == ["qcausal.interaction:drop_particle"]


def test_every_perfbench_hook_target_exists(monkeypatch):
    run = _perfbench_run(monkeypatch)
    assert len(run.HOOKS) == 30
    assert unresolved_hooks(run) == []
