"""`src/` holds only what runs: every top-level function and class of
`src/munmt/*.py` and `bench/*.py`, and every non-dunder method, is referenced
outside its own definition in those files. Code only the tests call belongs
with the tests.

A top-level name counts as referenced only through a binding that reaches
it: its bare name in its own module, an import of it (`from .tokenizer
import encode_line`), or an attribute of a name bound to its module
(`tok.encode_line` after `from . import tokenizer as tok`). So a call of
`model.encode` or of `str.encode` does not count for a function named
`encode` in another module. Methods are matched by name, so a method named
`copy` passes on any `.copy()`.
"""

import ast
import glob
import os
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# unreferenced today, each waiting for the ROADMAP item that gives it a caller
ALLOWED = {
    "oracle_translate": "item 1(b): reports score against the oracle",
    "load_language_specs": "item 1(b): the monotone ceiling reads the lexicons",
    "load_vocab": "item 3: build_context reuses vocab.txt",
}


def _modules() -> dict:
    """{module name: parsed tree}: src/munmt/x.py is munmt.x, and bench/x.py,
    which runs with bench/ on sys.path, is x."""
    found = {}
    for path in sorted(glob.glob(os.path.join(REPO, "src", "munmt", "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        found["munmt" if name == "__init__" else f"munmt.{name}"] = path
    for path in sorted(glob.glob(os.path.join(REPO, "bench", "*.py"))):
        found[os.path.splitext(os.path.basename(path))[0]] = path
    trees = {}
    for module, path in found.items():
        with open(path, encoding="utf-8") as fh:
            trees[module] = ast.parse(fh.read())
    return trees


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The module an ImportFrom in `module` reads from."""
    if not node.level:
        return node.module
    package = module if module == "munmt" else module.rsplit(".", node.level)[0]
    return f"{package}.{node.module}" if node.module else package


def _module_refs(module: str, tree, modules) -> Counter:
    """(module, name) pairs that `module` reaches through imports and the
    names it binds to modules."""
    refs, aliases = Counter(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:  # `import munmt.x` binds munmt
                    aliases[a.name.split(".")[0]] = a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for a in node.names:
                if f"{source}.{a.name}" in modules:
                    aliases[a.asname or a.name] = f"{source}.{a.name}"
                else:
                    refs[source, a.name] += 1

    def module_of(expr):
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            outer = module_of(expr.value)
            if outer and f"{outer}.{expr.attr}" in modules:
                return f"{outer}.{expr.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (owner := module_of(node.value)):
            refs[owner, node.attr] += 1
    return refs


def _names(node) -> Counter:
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name))


def _attrs_and_names(node) -> Counter:
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.id
                   for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name)))


def test_every_definition_is_referenced():
    trees = _modules()
    imported = sum((_module_refs(m, t, trees) for m, t in trees.items()), Counter())
    by_name = sum((_attrs_and_names(t) for t in trees.values()), Counter())
    unused = {}
    for module, tree in trees.items():
        own = _names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if own[node.name] == _names(node)[node.name] and not imported[module, node.name]:
                unused[node.name] = module
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if (isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))
                            and by_name[m.name] == _attrs_and_names(m)[m.name]):
                        unused[m.name] = module
    # pytest, not the code, calls bench's test_ functions; an allowed name
    # that gains a caller leaves the list
    unused = {n: m for n, m in unused.items() if not n.startswith("test_")}
    assert sorted(unused) == sorted(ALLOWED), unused
