"""Scans of the library's source: every definition in `src/qhelab` has a
caller outside the tests, and every import there is used."""
import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qhelab"

# A string constant that is a whole dotted name, such as the
# "paulis.PauliString.to_matrix" that perfbench's probes patch.
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")

# Definitions whose only callers are tests, each with the ROADMAP item
# that will call it from the library.
WAITING = {
    "compose_schemes": 7, "check_qec_commutation": 7, "logical_lift": 7,
    "parse_code": 7, "serialize_code": 7,
    "encrypted_stabilizer_measurement": 15,
    "security_after_qec": 3,
    "classical_slots": 2,
}


def _dotted_parts(node):
    if isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
        return node.value.split(".")
    return []


def _names_used(tree):
    """(name, line) for each name, attribute, part of an import alias and
    part of a dotted string constant in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for name in (*node.name.split("."), node.asname):
                if name:
                    yield name, node.lineno
        elif isinstance(node, ast.Constant):
            for name in _dotted_parts(node):
                yield name, node.lineno


def test_every_definition_has_a_library_caller():
    """Each function, class and method of `src/qhelab`, dunders excepted,
    is named in src/, perfbench/ or demos/ outside every definition of
    that name.  The names left uncalled are exactly those of `WAITING`,
    so an entry goes once its item calls it."""
    spans = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                spans[node.name].append((path, node.lineno, node.end_lineno))
    called = set()
    for top in ("src", "perfbench", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _names_used(ast.parse(path.read_text())):
                if not any(p == path and a <= line <= b
                           for p, a, b in spans.get(name, ())):
                    called.add(name)
    assert set(spans) - called == set(WAITING)


def test_no_unused_imports():
    """Every name a module of `src/qhelab` imports is used in it, as a
    name or as the head of a dotted string; `__init__.py` re-exports, so
    it is exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name.split(".")[0], node.lineno)
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {parts[0] for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and (parts := _dotted_parts(node))}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in used]
    assert unused == []
