"""The closed-form layer stands apart: it imports only the standard library
and other closed forms, never numpy or an oracle, so `import diagmap`,
`ed-curve`, `zstar` and `min-output` run without numpy; the oracles read
no closed form but `entropy`; and its entry points refuse what is not a
finite real number."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diagmap
from diagmap import cli, entropy, face_minimum, hull, roof, states, symmetric_curve
from diagmap.cli import EXIT_OK, EXIT_USAGE, main
from diagmap.symmetric_curve import curve_record, entanglement_entropy, tangent_from_point, z_grid

PACKAGE = Path(diagmap.__file__).parent
CLOSED_FORMS = ("_lazy", "entropy", "face_minimum", "lambert", "symmetric_curve")
ORACLES = ("linesearch", "roof")
# the data layer, which builds every closed form's states as arrays, the
# sampled hull, which only the benchmark reads, and the entry points
OTHERS = ("__init__", "cli", "hull", "states", "verify")
# the lazy tables of the closed forms: the names that perfbench reads there,
# each resolved from the module that defines it
LAZY_TABLES = {
    "face_minimum": {".linesearch": ["brute_force_min_face"], ".states": ["minimizer_states"]},
    "symmetric_curve": {".states": ["curve_grid", "optimal_decomposition"]},
}


def _imported_modules(nodes):
    """The modules that the import statements among nodes name: absolute
    ones as written, relative ones of this package by their module name."""
    out = []
    for node in nodes:
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                out.append(node.module)
            elif node.module is None:  # from . import x, y
                out += [alias.name for alias in node.names]
            else:
                out.append(node.module)
    return out


def _lazy_calls(tree):
    """The lazy_names calls of a module."""
    calls = (node for node in ast.walk(tree) if isinstance(node, ast.Call))
    return [node for node in calls if getattr(node.func, "attr", None) == "lazy_names"]


def _lazy_table(tree):
    """The lazy_names table of a module, as {source module: [names]}."""
    (call,) = _lazy_calls(tree)
    return {key.value: [elt.value for elt in names.elts] for key, names in zip(call.args[1].keys, call.args[1].values)}


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def test_every_module_is_in_a_layer():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted([*CLOSED_FORMS, *ORACLES, *OTHERS])


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_import_no_numpy_and_no_oracle(name):
    tree = _tree(name)
    named = _imported_modules(ast.walk(tree))  # also the imports inside functions
    assert [m for m in named if m.split(".")[0] == "numpy"] == []
    assert [m for m in named if m in ORACLES] == []


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_import_no_closed_form_but_entropy(name):
    # the searches read the scalar checks and constants of entropy, and no
    # closed form that they check
    named = _imported_modules(ast.walk(_tree(name)))
    assert [m for m in named if m in CLOSED_FORMS and m != "entropy"] == []


def test_no_module_of_the_package_imports_the_hull():
    # the envelope check needs no sampled hull: only the benchmark reads it
    for path in sorted(PACKAGE.glob("*.py")):
        named = _imported_modules(ast.walk(_tree(path.stem)))  # also the imports inside functions
        assert [m for m in named if m.removeprefix("diagmap.") == "hull"] == [], path.stem
    assert ".hull" not in diagmap._EXPORTS


def test_the_scalar_helpers_live_in_closed_form_modules():
    # the closed forms' root finders and checks, guarded by the two tests
    # around this one through the module that defines them
    for fn in (
        symmetric_curve._bisect,
        tangent_from_point,
        symmetric_curve.check_z,
        entropy._number,
        entropy._check_dimension,
    ):
        assert fn.__module__.removeprefix("diagmap.") in CLOSED_FORMS, fn.__name__


def test_lazy_tables_stay_in_the_package_and_the_closed_forms_perfbench_reads():
    # every other module imports each name from the module that defines it
    assert [path.stem for path in sorted(PACKAGE.glob("*.py")) if _lazy_calls(_tree(path.stem))] == [
        "__init__",
        *LAZY_TABLES,
    ]
    # a closed form's table holds exactly the names that perfbench reads there
    for name, table in LAZY_TABLES.items():
        assert _lazy_table(_tree(name)) == table, name


@pytest.mark.parametrize("name", [*CLOSED_FORMS, "__init__", "cli"])
def test_import_time_needs_only_the_standard_library_and_closed_forms(name):
    # what runs on import: the module-level statements of the module
    named = _imported_modules(_tree(name).body)
    assert [m for m in named if m not in CLOSED_FORMS and m.split(".")[0] not in sys.stdlib_module_names] == []


def test_closed_form_commands_load_no_numpy():
    # import diagmap and the CLI, then run zstar and min-output on both sides
    # of the bifurcation: none of numpy, json and array.  ed-curve loads
    # array for its grid and still no numpy or json; the face search,
    # min-output --oracle, loads numpy and numpy.random.  Only verify --json
    # loads json (test_verify_json_records covers its output)
    src = os.path.dirname(os.path.dirname(diagmap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "\n".join(
        [
            "import contextlib, io, sys",
            "import diagmap",
            "import diagmap.cli",
            "def loaded():",
            "    print(*(m for m in ('numpy', 'numpy.random', 'json', 'array') if m in sys.modules), sep=',')",
            "def run(*argv):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert diagmap.cli.main(list(argv)) == 0",
            "    loaded()",
            "loaded()",
            "run('zstar')",
            "run('min-output', '--n', '6')",
            "run('min-output', '--n', '7')",
            "run('ed-curve', '--z-step', '0.25')",
            "run('min-output', '--n', '7', '--oracle')",
        ]
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    *closed_forms, oracle = out.stdout.splitlines()
    assert closed_forms == ["", "", "", "", "array"]
    assert {"numpy", "numpy.random"} <= set(oracle.split(","))


@pytest.mark.parametrize(
    "module", [diagmap, entropy, face_minimum, hull, states, symmetric_curve], ids=lambda m: m.__name__
)
def test_every_listed_name_resolves_and_is_bound_on_first_read(module):
    # bound in the module's globals, so that no later read runs an import
    for name in dir(module):
        value = getattr(module, name)
        assert vars(module)[name] is value, name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        module.no_such_name


def test_the_benchmark_paths_still_resolve():
    # every name perfbench reads, by the module it reads it from
    defined = [
        (hull, "lower_convex_hull"),
        (hull, "SampledCurve"),
        (states, "symmetric_state"),
        (states, "twirl_s3"),
        (states, "diagonal_output_entropy"),
        (states, "von_neumann_entropy"),
    ]
    for module, name in [
        *defined,
        (face_minimum, "min_face_entropy"),
        (face_minimum, "minimizer_states"),
        (face_minimum, "brute_force_min_face"),
        (face_minimum, "lagrange_roots"),
        (roof, "roof_upper_bound"),
        (roof, "real_roof_upper_bound"),
        (cli, "main"),
        (symmetric_curve, "entanglement_entropy"),
        (symmetric_curve, "optimal_decomposition"),
        (symmetric_curve, "curve_grid"),
    ]:
        assert callable(getattr(module, name)), name
    # perfbench's tracer wraps a function in the module that defines it
    for module, name in defined:
        assert getattr(module, name).__module__ == module.__name__, name
    # the curve's array builders that perfbench reads in symmetric_curve are
    # the data layer's
    for name in ("curve_grid", "optimal_decomposition"):
        assert getattr(symmetric_curve, name) is getattr(states, name), name
        assert getattr(states, name).__module__ == states.__name__, name
    grid = symmetric_curve.curve_grid()
    assert isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.size == 1501
    assert grid.tolist() == z_grid().tolist()


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

# each refused value with the exception it raises
BAD_NUMBERS = [
    (math.nan, ValueError),
    (math.inf, ValueError),
    (-math.inf, ValueError),
    ("0.3", TypeError),
    (b"0.3", TypeError),
    (0.3 + 0j, TypeError),
    (None, TypeError),
]


def _parabola_tangent(x0=0.0, f0=-1.0, lo=0.0, hi=3.0):
    # the line through (0, -1) touches t^2 at t = 1
    return tangent_from_point(lambda t: t * t, x0, f0, (lo, hi), df=lambda t: 2.0 * t)


CLOSED_FORM_CALLS = {
    "curve_record": curve_record,
    "entanglement_entropy": entanglement_entropy,
    "tangent_from_point x0": lambda v: _parabola_tangent(x0=v),
    "tangent_from_point f0": lambda v: _parabola_tangent(f0=v),
    "tangent_from_point lo": lambda v: _parabola_tangent(lo=v),
    "tangent_from_point hi": lambda v: _parabola_tangent(hi=v),
    "z_grid z_min": lambda v: z_grid(v, 1.0, 0.25),
    "z_grid z_max": lambda v: z_grid(-0.5, v, 0.25),
}


@pytest.mark.parametrize("bad, error", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("call", CLOSED_FORM_CALLS.values(), ids=CLOSED_FORM_CALLS.keys())
def test_closed_forms_refuse_what_is_not_a_finite_real(call, bad, error):
    with pytest.raises(error):
        call(bad)


# each accepted value with the float it stands for, which gives the same result
GOOD_NUMBERS = {
    "curve_record": (curve_record, [(np.float64(0.3), 0.3), (0, 0.0)]),
    "entanglement_entropy": (entanglement_entropy, [(np.float64(0.3), 0.3), (1, 1.0)]),
    "tangent_from_point x0": (lambda v: _parabola_tangent(x0=v), [(np.float64(0.0), 0.0), (0, 0.0)]),
    "tangent_from_point f0": (lambda v: _parabola_tangent(f0=v), [(np.float64(-1.0), -1.0), (-1, -1.0)]),
    "tangent_from_point hi": (lambda v: _parabola_tangent(hi=v), [(np.float64(3.0), 3.0), (3, 3.0)]),
    "z_grid z_min": (lambda v: z_grid(v, 1.0, 0.25), [(np.float64(-0.5), -0.5), (0, 0.0)]),
}


@pytest.mark.parametrize("call, pairs", GOOD_NUMBERS.values(), ids=GOOD_NUMBERS.keys())
def test_closed_forms_accept_numpy_floats_and_ints(call, pairs):
    for value, as_float in pairs:
        assert call(value) == call(as_float), value


@pytest.mark.parametrize("option", ["--z-min", "--z-max", "--z-step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_ed_curve_refuses_non_finite_grid_options(capsys, option, value):
    assert main(["ed-curve", f"{option}={value}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("option", ["--z-min", "--z-max", "--z-step"])
@pytest.mark.parametrize("value", ["abc", "1j", "0x1", ""])
def test_ed_curve_refuses_grid_options_that_are_not_numbers(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["ed-curve", f"{option}={value}"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [["--z-min", "0"], ["--z-max", "1"], ["--z-step", "1"]])
def test_ed_curve_accepts_integer_grid_options(capsys, argv):
    assert main(["ed-curve", *argv]) == EXIT_OK
    assert capsys.readouterr().out.startswith("z,epsilon,theta_min,ed,region\n")
