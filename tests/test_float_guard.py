"""No claim is decided by floating point: a syntactic guard over the library.

Every module of `src/wildfuncs` is parsed, and the guard fails on a float
literal, a `float(` call, or a `math` function other than `gcd`, `lcm` and
`isqrt`, unless the enclosing function is on the allow-list below with its
reason.  An entry `module.function` covers the whole function; an entry
`module.function[if <test>]` covers only the body of that `if`.

A float literal that only shapes a trial's random draw passes without an
entry: one compared with, or multiplied by, `rng.random()`; the default of a
parameter used only that way; or a keyword argument to such a parameter.
Every other comparison in the same function stays guarded.
"""

import ast
from pathlib import Path

import wildfuncs

SRC = Path(wildfuncs.__file__).parent

EXACT_MATH = {"gcd", "lcm", "isqrt"}

ALLOWED = {
    "cli.quasi_value": "the sine-based sample kinds are floating point by definition, plot data only",
    "cli._parse_float": "parses the bounds of the sine-based sample kinds, which are floats",
    "cli._sample_rows[if fn in QUASI_FNS]": "counts the rows of a sine-based sample, whose bounds are floats",
    "verify.PropertyReport.__init__": "a suite's wall time in ms, reported beside the result, never in it",
    "verify.run_suite": "a suite's wall time in ms, reported beside the result, never in it",
}


def _is_draw(node) -> bool:
    """Whether node is the call rng.random()."""
    f = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(f, ast.Attribute) and f.attr == "random"
            and isinstance(f.value, ast.Name) and f.value.id == "rng")


def _beside_draw(node, parents) -> bool:
    """Whether node is one side of a comparison or product whose other side
    is rng.random()."""
    p = parents.get(node)
    if isinstance(p, ast.Compare) and len(p.comparators) == 1:
        sides = (p.left, p.comparators[0])
    elif isinstance(p, ast.BinOp) and isinstance(p.op, ast.Mult):
        sides = (p.left, p.right)
    else:
        return False
    return any(_is_draw(other) for other in sides if other is not node)


def _draw_literals(tree: ast.Module) -> set:
    """ids of the float literals that only shape a random draw."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    exempt, draw_params = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float and _beside_draw(node, parents):
            exempt.add(id(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            defaults = list(zip(reversed(a.args), reversed(a.defaults))) + list(zip(a.kwonlyargs, a.kw_defaults))
            for arg, default in defaults:
                if not (isinstance(default, ast.Constant) and type(default.value) is float):
                    continue
                loads = [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == arg.arg]
                if loads and all(_beside_draw(n, parents) for n in loads):
                    exempt.add(id(default))
                    draw_params.setdefault(node.name, set()).add(arg.arg)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            for kw in node.keywords:
                if kw.arg in draw_params.get(node.func.id, ()):
                    exempt.add(id(kw.value))
    return exempt


def _float_uses(tree: ast.Module):
    """(scope, line, what) of each float literal, float( call and inexact
    math function; scope is the enclosing function's dotted name, followed
    by [if <test>] inside the body of an if."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for child in ast.iter_child_nodes(node):
                visit(child, f"{scope}.{node.name}" if scope else node.name)
            return
        if isinstance(node, ast.If):
            visit(node.test, scope)
            for child in node.body:
                visit(child, f"{scope}[if {ast.unparse(node.test)}]")
            for child in node.orelse:
                visit(child, scope)
            return
        what = None
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex) and id(node) not in draws:
            what = f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            what = "float( call"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = [a.name for a in node.names if a.name not in EXACT_MATH]
            what = f"from math import {', '.join(bad)}" if bad else None
        if what:
            uses.append((scope, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    uses, draws = [], _draw_literals(tree)
    visit(tree, "")
    return uses


def _all_uses():
    for path in sorted(SRC.glob("*.py")):
        for scope, line, what in _float_uses(ast.parse(path.read_text(), str(path))):
            yield f"{path.stem}.{scope}" if scope else path.stem, f"{path.name}:{line}", what


def test_no_float_outside_the_allow_list():
    offending = [f"{where} {what} in {scope}" for scope, where, what in _all_uses() if scope not in ALLOWED]
    assert not offending, "floating point outside the allow-list:\n" + "\n".join(offending)


def test_every_entry_is_used_and_has_a_reason():
    used = {scope for scope, _, _ in _all_uses()}
    assert set(ALLOWED) <= used, f"entries that cover no float use: {sorted(set(ALLOWED) - used)}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_guard_sees_each_kind():
    src = (
        "import math\nfrom math import floor, gcd\n"
        "def f(x):\n    return math.sin(x) + float(x) + 0.5 + math.gcd(2, 4)\n"
        "def g(fn, x):\n    if fn in Q:\n        return 1e-9\n    return 2\n"
        "def h(rng, x, bias=0.5, tol=0.25):\n"
        "    return rng.random() < bias and rng.random() * 2.0 < 1 and x < tol and x < 0.75\n"
        "def k(rng):\n    return h(rng, 1, bias=0.3, tol=0.125) or rng.random() < 0.5\n"
    )
    found = [(scope, what) for scope, _, what in _float_uses(ast.parse(src))]
    assert found == [
        ("", "from math import floor"),
        ("f", "math.sin"),
        ("f", "float( call"),
        ("f", "float literal 0.5"),
        ("g[if fn in Q]", "float literal 1e-09"),
        ("h", "float literal 0.25"),
        ("h", "float literal 0.75"),
        ("k", "float literal 0.125"),
    ]
