"""The series route of the ball heat kernel stays apart from the float
sweeps it is compared with, and the kernel route from the ball-average
ladder.

``heat-kernel`` and ``verify`` compare the character sum of
``kernels.heat_kernel_ball`` with the fixed-point series of
``series.heat_kernel_ball_series``; ``solve-linear``'s path disagreement
and ``verify``'s "resolvent two paths" compare the class-sum convolution
of the kernel sweeps (``function_space`` and ``kernels``) with the ladder
(``fourier_ball``, fed by ``vladimirov.operator_levels``).  Each
comparison means something only while its two routes share no
arithmetic.
"""

import ast
import math
import pathlib

import pytest

import padic_heat
from padic_heat import cli, fourier_ball, kernels, linear_solver, series

PACKAGE = pathlib.Path(padic_heat.__file__).parent


def _package_imports(path):
    """The package modules a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("padic_heat."):
                found.add(node.module.split(".")[1])
            elif node.module == "padic_heat":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("padic_heat."))
    return found


def test_series_and_kernels_share_no_code():
    imports = {path.stem: _package_imports(path) for path in PACKAGE.glob("*.py")}
    assert imports["series"] <= {"ball_model"}
    assert "series" not in imports["kernels"]
    assert {name for name, found in imports.items() if "series" in found} == {"cli", "__init__"}


def _imported_names(path):
    """The names a package module imports from its sibling modules."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def test_kernel_route_and_ladder_share_no_code():
    imports = {path.stem: _package_imports(path) for path in PACKAGE.glob("*.py")}
    assert imports["function_space"] <= {"ball_model"}
    assert imports["kernels"] <= {"ball_model", "function_space"}
    for name in ("fourier_ball", "vladimirov", "pme_solver"):
        assert "kernels" not in imports[name]
        assert _imported_names(PACKAGE / f"{name}.py").isdisjoint(
            {"_class_sums", "_radial_convolution"})
    # the one library module where the two routes meet, and the front ends
    meet = {name for name, found in imports.items()
            if "kernels" in found and found & {"fourier_ball", "vladimirov"}}
    assert meet == {"linear_solver", "cli", "__init__"}


def test_resolvent_and_radial_levels_have_one_home():
    assert "resolvent_apply" not in vars(kernels)
    assert padic_heat.resolvent_apply is linear_solver.resolvent_apply
    assert cli.resolvent_apply is linear_solver.resolvent_apply
    assert "radial_levels" not in vars(fourier_ball)


def test_series_names_have_one_home():
    # the public names are the series module's own objects, and kernels
    # keeps no alias of anything the series module defines
    own = {name for name, value in vars(series).items()
           if getattr(value, "__module__", None) == series.__name__}
    own.add("SERIES_WORK_BUDGET")
    assert {"c_series", "heat_kernel_ball_series", "NonConvergenceError"} <= own
    for name in ("c_series", "heat_kernel_ball_series", "NonConvergenceError"):
        assert getattr(padic_heat, name) is getattr(series, name)
    assert own.isdisjoint(vars(kernels))


def test_series_route_has_one_entry(monkeypatch):
    # heat_kernel_ball_series is one read of the reader, which ``heat-kernel``
    # calls too; no list layer refuses on the reader's behalf
    assert not hasattr(series, "_series_radii")
    reads = []
    original = series._series_reader

    def recorded(*args):
        read = original(*args)

        def value(m):
            reads.append((args, m))
            return read(m)
        return value

    monkeypatch.setattr(series, "_series_reader", recorded)
    for m in (0, -3, None):
        series.heat_kernel_ball_series(2, 0, 0.7, 1.0, m)
    assert reads == [((2, 0, 0.7, 1.0, m, m is None), m) for m in (0, -3, None)]


@pytest.mark.parametrize("t, deepest, message", [
    (math.nan, 0, "t must be positive and finite, got nan"),
    (-1, 0, "t must be positive and finite, got -1"),
    (0.0, 0, "t must be positive and finite, got 0.0"),
    (math.inf, 0, "t must be positive and finite, got inf"),
    (1.0, 2, "radius exponent m must be <= N = 0, got 2"),
    (1.0, -1.5, "radius exponent m must be an integer, got -1.5"),
    (1.0, True, "radius exponent m must be an integer, got True"),
])
def test_series_reader_refuses_its_own_input(t, deepest, message, monkeypatch):
    # the messages heat_kernel_ball_series gave when a list layer refused
    # for the reader, which read a sphere |x| = 4 outside the ball |x| <= 1,
    # summed a series at t = -1 or failed on converting NaN to an integer;
    # the refusal comes before any integer is formed
    def forbidden(*args):
        raise AssertionError("the integer layer ran")

    monkeypatch.setattr(series, "_series_dps", forbidden)
    monkeypatch.setattr(series, "_grow_and_c", forbidden)
    for zero in (False, True):
        with pytest.raises(ValueError) as exc:
            series._series_reader(2, 0, 1.0, t, deepest, zero)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        series.heat_kernel_ball_series(2, 0, 1.0, t, deepest)
    assert str(exc.value) == message
