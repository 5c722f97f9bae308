"""The package's import layering, read from the source with ``ast``: ``data``
is the bottom file layer above ``graph`` and the only module that imports
``csv`` or opens a file, only ``graph`` reaches into a ``Graph``'s private
state, no module imports another's underscore names, no two modules import
each other, directly or through others, no parameter with a default, of a
public function or method, goes unused by the program, every node argument
of ``graph`` goes through its one node conversion or its one node-set
conversion, and ``cli.main`` maps only ``data``'s two error classes (and
``OSError``) to exit codes, leaving anything else to its defect handler."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import densecf

PACKAGE = Path(densecf.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def package_imports() -> dict[str, set[str]]:
    """For each module of the package, the package modules it imports; a
    ``from . import name`` of a non-module name imports ``__init__``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        found = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:
                    found |= {a.name if a.name in modules else "__init__" for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("densecf"):
                found.add(node.module.partition(".")[2] or "__init__")
            elif isinstance(node, ast.Import):
                found |= {a.name[8:] for a in node.names if a.name.startswith("densecf.")}
        graph[name] = found
    return graph


def test_data_imports_only_graph_from_the_package():
    assert package_imports()["data"] == {"graph"}


def test_only_data_imports_csv():
    # one owner reads and writes every CSV file: data.read_csv_rows and write_csv_rows
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "csv" for name in names):
                importers.add(path.stem)
    assert importers == {"data"}


def test_only_data_opens_files():
    # one owner reads every file, and hashes each as it reads it for the
    # run's manifest, and writes every file
    opening = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in opening:
                    callers.add((path.stem, name))
    assert {module for module, _ in callers} == {"data"}, sorted(callers)


def test_only_graph_touches_graph_internals():
    # the bitmask rows are graph's format: every other module, data's edge
    # lists included, goes through Graph's public methods
    private = {"_rows", "_edge_count", "_origin", "_from_rows"}
    touched = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private:
                touched.add((path.stem, node.attr))
            elif isinstance(node, ast.ImportFrom):
                touched |= {(path.stem, a.name) for a in node.names if a.name in private}
    assert {module for module, _ in touched} == {"graph"}, sorted(touched)


def test_no_module_imports_a_private_name_from_another():
    # a name two modules share is public: an underscore name stays in its
    # module (dunder names such as ``__version__`` are public)
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("densecf")
            ):
                private = {a.name for a in node.names if a.name.startswith("_")}
                imported |= {(path.stem, name) for name in private if name[:2] != "__"}
    assert not imported, sorted(imported)


def test_package_imports_have_no_cycle():
    try:
        order = list(TopologicalSorter(package_imports()).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert order.index("graph") < order.index("data") < order.index("evaluation")


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may pass the parameter ``name``, which sits at
    ``position`` among the positional parameters (None: keyword-only)."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unused_defaults(modules: dict[str, ast.Module], calls: list[ast.Call]) -> list[str]:
    """``module.function(parameter=)`` for each defaulted parameter of a
    public function or method of ``modules`` that none of ``calls`` may pass.
    A method's ``self`` or ``cls`` is bound by the call, so its positional
    parameters count from the next one; a staticmethod's count from its first."""

    def called_name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def is_static(fn):
        return any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)

    unused = []
    for module, tree in sorted(modules.items()):
        functions = [(f, 0) for f in tree.body]
        functions += [
            (f, 0 if is_static(f) else 1)
            for c in tree.body
            if isinstance(c, ast.ClassDef)
            for f in c.body
            if isinstance(f, ast.FunctionDef)
        ]
        for fn, bound in functions:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            sites = [c for c in calls if called_name(c) == fn.name]
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)  # defaults pair with the last ones
            defaulted = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (a.arg, None)
                for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            unused += [
                f"{module}.{fn.name}({name}=)"
                for name, position in defaulted
                if not any(passes(c, name, position) for c in sites)
            ]
    return unused


def calls_in(trees: list[ast.Module]) -> list[ast.Call]:
    return [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_every_defaulted_parameter_is_passed_by_the_program():
    # a parameter with a default that no caller in the package or perfbench
    # ever sets (tests do not count) is an option only tests can reach
    modules = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    perfbench = [ast.parse(path.read_text()) for path in PERFBENCH.glob("*.py")]
    unused = unused_defaults(modules, calls_in([*modules.values(), *perfbench]))
    assert not unused, unused


SYNTHETIC = ast.parse(
    """
class Draws:
    def integers(self, low, high=None): ...

    @classmethod
    def make(cls, seed, block=512): ...

    @staticmethod
    def scale(x, factor=1): ...
"""
)


def test_a_method_call_passes_the_defaults_its_arguments_reach():
    # counting ``self`` as a position read draws.integers(3, 7) as never
    # passing ``high``, and Draws.make(0, 64) as never passing ``block``
    calls = calls_in([ast.parse("draws.integers(3, 7)\nDraws.make(0, 64)\nDraws.scale(2, 3)")])
    assert unused_defaults({"m": SYNTHETIC}, calls) == []


def test_a_default_no_call_reaches_is_still_unused():
    # a staticmethod binds nothing: Draws.scale(2) leaves ``factor`` unset
    calls = calls_in([ast.parse("draws.integers(3)\nDraws.make(0)\nDraws.scale(2)")])
    assert unused_defaults({"m": SYNTHETIC}, calls) == [
        "m.integers(high=)",
        "m.make(block=)",
        "m.scale(factor=)",
    ]


NODE_PARAMETERS = {"u", "v", "nodes"}
NODE_CONVERSIONS = {"_check_node", "_within", "_normalize_edge"}


def unconverted_nodes(tree: ast.Module) -> list[str]:
    """``function(parameter)`` for each parameter named ``u``, ``v`` or
    ``nodes`` of a public function or method of ``tree`` that the function
    never passes straight to a node conversion. ``node_mask`` is exempt: it
    has no graph, so no node range to check against."""
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef)]
    functions += [
        f
        for c in tree.body
        if isinstance(c, ast.ClassDef)
        for f in c.body
        if isinstance(f, ast.FunctionDef)
    ]
    unconverted = []
    for fn in functions:
        if fn.name.startswith("_") or fn.name == "node_mask":
            continue
        arguments = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        converted = {
            a.id
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in NODE_CONVERSIONS
            for a in call.args
            if isinstance(a, ast.Name)
        }
        unconverted += [
            f"{fn.name}({a.arg})"
            for a in arguments
            if a.arg in NODE_PARAMETERS and a.arg not in converted
        ]
    return unconverted


def test_every_node_argument_of_graph_goes_through_a_conversion():
    # one rule for a node id: numpy integers are taken as ints, and a node
    # outside 0..node_count-1 raises; a node set is checked, never clipped
    assert unconverted_nodes(ast.parse((PACKAGE / "graph.py").read_text())) == []


def test_a_node_used_without_a_conversion_is_reported():
    tree = ast.parse(
        """
class Graph:
    def degree(self, v):
        return self._rows[v].bit_count()

    def has_edge(self, u, v):
        return bool(self._rows[_check_node(self, u)] >> _check_node(self, v) & 1)

def edges_within(g, nodes):
    return count(g, node_mask(nodes) & full(g))

def node_mask(nodes): ...

def _members(v): ...
"""
    )
    assert unconverted_nodes(tree) == ["edges_within(nodes)", "degree(v)"]


def main_handlers() -> list[list[str]]:
    """The names each ``except`` clause of ``cli.main`` catches, in order; a
    bare ``except:`` catches ``["*"]``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main")
    handlers = []
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            handlers.append([ast.unparse(t) if t else "*" for t in caught])
    return handlers


def test_cli_main_maps_the_two_error_classes_and_a_defect():
    # whose fault a failure is: data's two classes, bad files (and OS
    # errors) exit 2 and bad settings exit 1; anything else, a ValueError of
    # the graph core's included, is a defect that exits 3
    assert main_handlers() == [
        ["DatasetFormatError", "OSError"],
        ["ConfigurationError"],
        ["Exception"],
    ]
    defined = {
        (path.stem, node.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and node.name in ("ConfigurationError", "DatasetFormatError")
    }
    assert defined == {("data", "ConfigurationError"), ("data", "DatasetFormatError")}
