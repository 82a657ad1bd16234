"""`src/` holds only what runs: every top-level function and class of
`src/munmt/*.py` and `bench/*.py`, and every non-dunder method, is referenced
outside its own definition in those files, as a name, an attribute or an
import. Code only the tests call belongs with the tests.

The check matches names, not bindings: a homonym elsewhere counts as a
reference, so a function named `reshape` passes on any `ndarray.reshape`,
and a method named `copy` on any `.copy()`. It catches names nothing
mentions, not every dead definition.
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


def _references(node) -> Counter:
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name.rsplit(".", 1)[-1]] += 1
    return refs


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_definition_is_referenced():
    paths = sorted(glob.glob(os.path.join(REPO, "src", "munmt", "*.py"))
                   + glob.glob(os.path.join(REPO, "bench", "*.py")))
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees[os.path.relpath(path, REPO)] = ast.parse(fh.read())
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = {d.name: path for path, tree in trees.items() for d in _definitions(tree)
              if refs[d.name] == _references(d)[d.name] and not d.name.startswith("test_")}
    # pytest, not the code, calls bench's test_ functions; an allowed name
    # that gains a caller leaves the list
    assert sorted(unused) == sorted(ALLOWED), unused
