"""The package namespace and its source.

Oracles: `from fastslow import *` must import exactly the names listed
in fastslow.__all__, each once, and each must be the attribute of the
same name. No module of the package, and no source the implicit
midpoint loop, the RK4 loop, the full field or a Lie-Poisson field is
compiled from, names the built-in sum: from CPython 3.12 on it adds floats with
compensated summation, so a value it forms could differ between CPython
versions. The command line runs every integration in the calling
process, so importing it loads no process pool. The compiled full
field reads the jets' slots as they are (the jet format of
fastslow.averaging), so its source converts none of them. Both
generated loops read each value of the field in one form, an inline
list test before _floats.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fastslow
from fastslow import integrators, lie_poisson


def test_all_lists_each_public_name_once_and_resolves():
    namespace = {}
    exec("from fastslow import *", namespace)
    assert len(set(fastslow.__all__)) == len(fastslow.__all__)
    for name in fastslow.__all__:
        assert namespace[name] is getattr(fastslow, name)


def test_importing_the_command_line_loads_no_process_pool():
    src = Path(fastslow.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fastslow.cli; print(sorted("
         "{'multiprocessing', 'concurrent.futures.process'} & "
         "sys.modules.keys()))"],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout == "[]\n"


def builtin_sum_uses(source: str, name: str) -> list:
    """Where source reads the name sum: a call, or sum passed to map."""
    return [f"{name}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "sum"
            and isinstance(node.ctx, ast.Load)]


def test_no_module_uses_the_builtin_sum():
    paths = sorted(Path(fastslow.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    uses = [use for path in paths
            for use in builtin_sum_uses(path.read_text(), path.name)]
    assert uses == []


@pytest.mark.parametrize("n", [1, 4, 12])
def test_the_midpoint_loop_source_uses_no_builtin_sum(n):
    assert builtin_sum_uses(integrators._midpoint_source(n),
                            f"midpoint loop n={n}") == []


@pytest.mark.parametrize("n", [1, 4, 12])
def test_the_rk4_loop_source_uses_no_builtin_sum(n):
    assert builtin_sum_uses(integrators._rk4_source(n),
                            f"rk4 loop n={n}") == []


def field_calls(source: str) -> tuple[list, list]:
    """The calls of the field f in source, as two lists of source
    segments: the inline list tests c if type(c := f(...)) is list else
    _floats(c) that hold one, and the other calls of f or _floats."""
    tree = ast.parse(source)
    tests, inside = [], set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.IfExp)
                and ast.unparse(node.orelse) == "_floats(c)"
                and isinstance(node.test, ast.Compare)
                and ast.unparse(node.test).startswith("type((c := f(")
                and ast.unparse(node.test).endswith(")) is list")):
            tests.append(ast.unparse(node))
            inside |= {id(sub) for sub in ast.walk(node)}
    others = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id in ("f", "_floats") and id(node) not in inside]
    return tests, others


@pytest.mark.parametrize("n", [1, 4, 12])
def test_the_loops_read_the_field_through_the_inline_list_test(n):
    # Both generated loops read a value of f in one form: the midpoint
    # loop at its first step's Euler guess and in its residual (written
    # before the Newton updates and after each); its one other call of f
    # is the Jacobian's, which reads arrays.
    tests, others = field_calls(integrators._midpoint_source(n))
    assert len(tests) == 3
    assert others == ["f(x.tolist())"]
    tests, others = field_calls(integrators._rk4_source(n))
    assert len(tests) == 4 and others == []


@pytest.mark.parametrize("l", [1, 2, 5])
def test_the_full_field_source_uses_no_builtin_sum(l):
    assert builtin_sum_uses(integrators._full_field_source(l),
                            f"full field dim_base={l}") == []


@pytest.mark.parametrize("l", [1, 2, 5])
def test_the_full_field_source_converts_no_slot(l):
    source = integrators._full_field_source(l)
    assert [word for word in ("_floats", "type(", "float(")
            if word in source] == []


@pytest.mark.parametrize("name", sorted(fastslow.BUILTIN_ALGEBRAS))
@pytest.mark.parametrize("field", ["euler", "extended"])
def test_the_lie_poisson_field_source_uses_no_builtin_sum(name, field):
    # A dense I^{-1} and sigma, so that every sum has several terms.
    algebra = fastslow.BUILTIN_ALGEBRAS[name]()
    n = algebra.dim
    dense = [(i, j, 0.5) for i in range(n) for j in range(n)]
    euler = field == "euler"
    source = lie_poisson._lie_poisson_source(
        n, dense, algebra._brackets, [] if euler else dense,
        [0.25] * n if euler else None)
    assert builtin_sum_uses(source, f"{field} field on {name}") == []
