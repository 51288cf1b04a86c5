"""Every public module-level function of the package, and every public
method and property of a package class, has a caller outside the tests: the
engines and the rest of `src/hypergt/`, `scripts/` or `benchmark/`. A
reference is a name, an attribute or a word inside a string
(`benchmark/spans.py` names its targets in strings); docstrings, the
function's or method's own body and the re-exports of `__init__.py` do not
count. A method is matched by its name alone, whatever object it is read
from. No class of the package has a `validate` method: settings check
themselves when built, never when used. Files are parsed, never imported."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypergt"
CALLERS = [PACKAGE, ROOT / "scripts", ROOT / "benchmark"]


def public_functions():
    return {node.name: path.name
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def methods_in(source):
    """The public methods and properties of every class in source, nested
    classes included, as Class.name."""
    return sorted(f"{node.name}.{f.name}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef)
                  for f in node.body
                  if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not f.name.startswith("_"))


def public_methods():
    return {name: path.name for path in sorted(PACKAGE.glob("*.py"))
            for name in methods_in(path.read_text())}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _words(node):
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return set(re.findall(r"\w+", node.value))
    return set()


def _module_bindings(tree):
    """Names a file binds at module level, each mapped to the name it refers
    to: its imports (`from m import f as g` binds g to f) and its top-level
    defs and classes."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name: alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0]: alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.name
    return bound


def _own_names(top):
    """For each node under a top-level statement, the name whose uses there
    are left out: a top-level function's own name, and a method's own name
    inside a top-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    if isinstance(top, funcs):
        return {id(n): top.name for n in ast.walk(top)}
    if isinstance(top, ast.ClassDef):
        return {id(n): f.name for f in top.body if isinstance(f, funcs) for n in ast.walk(f)}
    return {}


def names_in(source):
    """Names one file refers to: a bare name only when it is bound at module
    level (a parameter or local of the same name is not a reference), any
    attribute, and words in non-docstring strings; each top-level function's
    and each method's uses of its own name are left out."""
    tree = ast.parse(source)
    bound = _module_bindings(tree)
    skip = {id(d) for d in _docstrings(tree)}
    names = set()
    for top in tree.body:
        own = _own_names(top)
        for node in ast.walk(top):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                words = {bound[node.id]} if node.id in bound else set()
            else:
                words = _words(node)
            names |= words - {own.get(id(node))}
    return names


def referenced_names():
    """Names used anywhere in the caller files."""
    return set().union(*(names_in(p.read_text()) for d in CALLERS for p in sorted(d.rglob("*.py"))))


def test_every_public_function_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = sorted(f"{module}:{name}" for name, module in public_functions().items()
                    if name not in used)
    assert not unused, "public functions only tests call: " + ", ".join(unused)


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = sorted(f"{module}:{name}" for name, module in public_methods().items()
                    if name.split(".")[1] not in used)
    assert not unused, "public methods only tests call: " + ", ".join(unused)


def test_the_method_scan_sees_public_methods_and_properties_of_every_class():
    assert {"Hypergraph.node_mass", "Transcript.result_nodes"} <= public_methods().keys()
    source = ("class Graph:\n    def __len__(self):\n        return 0\n\n"
              "    @property\n    def size(self):\n        return 0\n\n"
              "    def _kernel(self):\n        pass\n\n"
              "    class Inner:\n        async def fetch(self):\n            pass\n\n\n"
              "def helper():\n    pass\n")
    assert methods_in(source) == ["Graph.size", "Inner.fetch"]


def test_a_method_calling_itself_is_not_its_own_caller():
    recursive = ("class Node:\n    def to_text(self):\n        return self.child.to_text()\n\n"
                 "    def render(self):\n        return self.to_text()\n")
    assert "to_text" in names_in(recursive)
    alone = "class Node:\n    def to_text(self):\n        return self.child.to_text()\n"
    assert "to_text" not in names_in(alone)


def test_the_scan_sees_functions_and_words_in_strings():
    assert {"run_adaptive", "repetitions", "build_model"} <= public_functions().keys()
    assert _words(ast.Constant("Transcript.add")) == {"Transcript", "add"}


def test_a_parameter_or_local_of_the_same_name_is_not_a_reference():
    shadowed = "def run(repetitions):\n    count = repetitions\n    return count\n"
    assert "repetitions" not in names_in(shadowed)
    imported = "from .noisy import repetitions\n\n\ndef run():\n    return repetitions(2.0, 4, 0.1)\n"
    assert "repetitions" in names_in(imported)
    renamed = "from .noisy import repetitions as reps\n\n\ndef run():\n    return reps(2.0, 4, 0.1)\n"
    assert "repetitions" in names_in(renamed)


def classes_defining(source, method):
    """Names of the classes in source, nested ones included, that define method."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and f.name == method for f in node.body))


def test_no_class_checks_its_settings_when_used():
    offenders = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
                 for name in classes_defining(path.read_text(), "validate")]
    assert not offenders, "classes with a validate method (check in __post_init__): " + \
        ", ".join(offenders)


def test_the_scan_sees_validate_methods_only():
    source = ("class Config:\n    def validate(self):\n        pass\n\n\n"
              "class Outer:\n    class Inner:\n        async def validate(self):\n            pass\n\n\n"
              "class Spec:\n    def __post_init__(self):\n        validate(self)\n\n\n"
              "def validate(config):\n    pass\n")
    assert classes_defining(source, "validate") == ["Config", "Inner"]
