"""Every name a module of the package imports is used in that module, every
function, class and method it defines is used outside the tests, every name
the benchmark traces exists, and no dataclass costs its import more than it
must."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pmasafety

PACKAGE = Path(pmasafety.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as an identifier
    in `source`, each with the line of its import."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_imports_detected():
    source = 'import os\nfrom x import a, b as c\n"""c in a docstring"""\nprint(a)\n'
    assert unused_imports(source) == ["c (line 2)", "os (line 1)"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports_in_package():
    found = {
        str(path.relative_to(PACKAGE)): unused
        for path in sorted(PACKAGE.rglob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def names_read(source: str) -> set[str]:
    """Every identifier `source` reads: a name, or an attribute after a dot."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_names_read_detected():
    source = "def f(): pass\nclass C: pass\ng = m.h\nf()\nm.k = 1\n"
    assert names_read(source) == {"f", "m", "h"}


def defined_names(source: str) -> list[str]:
    """The top-level functions and classes of `source`, and the methods of
    its classes other than dunder methods, the latter as `Class.method`."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, ast.FunctionDef)
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def test_defined_names_detected():
    source = "def f(): pass\nclass C:\n    def __init__(self): pass\n    def g(self): pass\n"
    assert defined_names(source) == ["f", "C", "C.g"]


def test_no_code_only_tests_call():
    """Every top-level function and class of a package module, subpackages
    included, and every method of its classes but the dunder ones, is read
    by name in the package, the benchmark or the demos."""
    root = PACKAGE.parent.parent
    read: set[str] = set()
    for path in [*PACKAGE.rglob("*.py"), *root.glob("perfbench/*.py"), *root.glob("demos/*.py")]:
        read |= names_read(path.read_text())
    unread = [
        f"{path.relative_to(PACKAGE)}:{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in defined_names(path.read_text())
        if name.rpartition(".")[2] not in read
    ]
    assert unread == []


def test_no_orphaned_test_helpers():
    """Every top-level function and class of `tests/helpers.py`, and every
    method of its classes but the dunder ones, is read by name in a test
    module or in `helpers.py` itself: a reference no test reaches any more
    goes with the code it checked."""
    tests = Path(__file__).parent
    read: set[str] = set()
    for path in tests.glob("*.py"):
        read |= names_read(path.read_text())
    unread = [name for name in defined_names((tests / "helpers.py").read_text())
              if name.rpartition(".")[2] not in read]
    assert unread == []


# the methods `dataclass` writes by default, each with the keyword that turns it off
_GENERATED = {"__init__": "init", "__repr__": "repr", "__eq__": "eq"}


def dataclass_waste(source: str) -> list[str]:
    """The work a `dataclass` decorator of `source` does at import for
    nothing: a method it builds that the class body defines, so that the
    built one is thrown away, and a docstring it builds with
    `inspect.signature` for a class without one; each as `Class: what`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for d in node.decorator_list:
            f = d.func if isinstance(d, ast.Call) else d
            if getattr(f, "id", getattr(f, "attr", None)) != "dataclass":
                continue
            off = {k.arg for k in getattr(d, "keywords", ())
                   if isinstance(k.value, ast.Constant) and k.value.value is False}
            defined = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
            out += [f"{node.name}: {m}" for m, kw in _GENERATED.items()
                    if m in defined and kw not in off]
            if ast.get_docstring(node) is None:
                out.append(f"{node.name}: docstring")
    return out


def test_dataclass_waste_detected():
    source = (
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True, repr=False)\nclass B:\n    '''B.'''\n"
        "    def __init__(self): pass\n    def __repr__(self): return ''\n"
        "@dataclasses.dataclass(init=False, eq=False)\nclass C:\n    '''C.'''\n"
        "    def __init__(self): pass\n    def __eq__(self, o): return True\n"
        "class D:\n    def __init__(self): pass\n"
    )
    assert dataclass_waste(source) == ["A: docstring", "B: __init__"]


def test_dataclasses_build_nothing_they_drop():
    """`dataclass` is a large part of importing the package; building a
    method the class replaces, or a docstring from the class's signature,
    only adds to it."""
    found = {
        str(path.relative_to(PACKAGE)): waste
        for path in sorted(PACKAGE.rglob("*.py"))
        if (waste := dataclass_waste(path.read_text()))
    }
    assert found == {}


def test_traced_names_exist():
    """Every `(module, attribute)` site the benchmark's tracer rebinds
    (`perfbench/layers.py`) names an attribute of the package, so a refactor
    that drops one fails here and not only under `perfbench/run.py --trace 1`."""
    path = PACKAGE.parent.parent / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    sites = [site for _, sites, _ in layers.LAYERS for site in sites]
    sites += [site for _, sites in layers.GENERATOR_LAYERS for site in sites]
    assert sites
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sites
        if not hasattr(importlib.import_module(f"pmasafety.{mod}"), attr)
    ]
    assert missing == []


# the memo slots of `logic.Lit`: equal for equal values, so filled after construction
_MEMO_SLOTS = {"_repr", "_shape", "_vars", "_cells", "_parts"}
_CONSTRUCTORS = {"__new__", "_intern"}
# the definitions that compute the memos: `Lit`'s methods and `_lit_shape`
_MEMO_WRITERS = {"Lit", "_lit_shape"}


def kernel_mutations(source: str) -> list[str]:
    """Each call of `source`, outside a constructor (`__new__`, `_intern`),
    that builds an instance with `object.__new__`, passing by the intern
    table, or sets a slot with `_set` (or `object.__setattr__`), which would
    change the value for every holder of the interned object; each as
    `line: call`.  Only a function that computes a memo (`_MEMO_WRITERS`)
    may set a memo slot, so no code copies a memo from one literal to
    another."""
    out = []

    def visit(node: ast.AST, in_constructor: bool, top: str, in_writer: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_constructor = node.name in _CONSTRUCTORS
            in_writer = (top or node.name) in _MEMO_WRITERS
        if isinstance(node, ast.Call) and not in_constructor:
            f = ast.unparse(node.func)
            slot = node.args[1] if len(node.args) > 1 else None
            if f == "object.__new__" or f in ("_set", "object.__setattr__") and not (
                in_writer and isinstance(slot, ast.Constant) and slot.value in _MEMO_SLOTS
            ):
                out.append(f"{node.lineno}: {ast.unparse(node)}")
        if not top and isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            top = node.name  # the module-level definition `node` lies in
        for child in ast.iter_child_nodes(node):
            visit(child, in_constructor, top, in_writer)

    visit(ast.parse(source), False, "", False)
    return out


def test_kernel_mutations_detected():
    source = (
        "class C:\n"
        "    def __new__(cls, x):\n"
        "        out = object.__new__(cls)\n"
        "        _set(out, 'x', x)\n"
        "        return out\n"
        "def f(l, v):\n"
        "    _set(l, '_repr', 'r')\n"
        "    _set(l, 'neg', True)\n"
        "    object.__setattr__(l, name, v)\n"
        "    return object.__new__(C)\n"
        "class Lit:\n"
        "    def parts(self):\n"
        "        _set(self, '_parts', ())\n"
        "        _set(self, 'atom', None)\n"
        "def _lit_shape(l):\n"
        "    _set(l, '_shape', 's')\n"
    )
    assert kernel_mutations(source) == [
        "7: _set(l, '_repr', 'r')",
        "8: _set(l, 'neg', True)",
        "9: object.__setattr__(l, name, v)",
        "10: object.__new__(C)",
        "14: _set(self, 'atom', None)",
    ]


def test_no_kernel_object_built_or_changed_outside_its_constructor():
    """Terms, atoms and literals are interned (`logic._Hashed`): one object
    stands for every occurrence of its value, so only the constructors
    build one, nothing else sets a field of one, and only the functions
    that compute a literal's memos fill one."""
    found = {
        str(path.relative_to(PACKAGE)): bad
        for path in sorted(PACKAGE.rglob("*.py"))
        if (bad := kernel_mutations(path.read_text()))
    }
    assert found == {}
