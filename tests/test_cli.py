import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import diagmap
from diagmap import cli, linesearch, roof, symmetric_curve, verify
from diagmap.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_VERIFY_FAILED, _fmt, main
from diagmap.roof import roof_upper_bound
from diagmap.states import curve_grid, symmetric_state, write_density_matrix

LN2 = math.log(2.0)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ed_curve_header_and_anchor_rows(capsys):
    code, out, _ = _run(capsys, ["ed-curve", "--z-step", "0.25"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "z,epsilon,theta_min,ed,region"
    first = lines[1].split(",")
    assert float(first[0]) == -0.5
    assert float(first[1]) == pytest.approx(0.693147, abs=1e-6)
    assert float(first[2]) == pytest.approx(0.523599, abs=1e-6)
    assert float(first[3]) == pytest.approx(0.693147, abs=1e-6)
    assert first[4] == "lower_linear"
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert float(last[3]) == pytest.approx(1.098612, abs=1e-6)
    assert last[4] == "upper_linear"
    zero = [ln for ln in lines[1:] if ln.startswith("0,")]
    assert zero and float(zero[0].split(",")[3]) == pytest.approx(0.0, abs=1e-9)


def test_ed_curve_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = _run(capsys, ["ed-curve", "--z-step", "0.01", "--out", str(path)])
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("target", ["missing/a.csv", "."])
def test_ed_curve_unwritable_out_is_usage_error(tmp_path, capsys, target):
    # a missing directory or a directory: exit 1 would read as a failed verification
    code, out, err = _run(capsys, ["ed-curve", "--z-step", "0.25", "--out", str(tmp_path / target)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_ed_curve_bits_rescales_entropy_columns_only(capsys):
    code, out_nats, _ = _run(capsys, ["ed-curve", "--z-step", "0.5"])
    assert code == EXIT_OK
    code, out_bits, _ = _run(capsys, ["ed-curve", "--z-step", "0.5", "--units", "bits"])
    assert code == EXIT_OK
    for ln_n, ln_b in zip(out_nats.splitlines()[1:], out_bits.splitlines()[1:]):
        zn, en, tn, edn, rn = ln_n.split(",")
        zb, eb, tb, edb, rb = ln_b.split(",")
        assert zn == zb and tn == tb and rn == rb
        # CSV carries 9 significant digits, so compare at that resolution
        assert float(eb) == pytest.approx(float(en) / LN2, rel=1e-7, abs=1e-8)
        assert float(edb) == pytest.approx(float(edn) / LN2, rel=1e-7, abs=1e-8)


def _reference_csv(zs, scale):
    # the earlier row writer: _fmt on each field of curve_record(np.float64 z)
    lines = ["z,epsilon,theta_min,ed,region"]
    for rec in map(symmetric_curve.curve_record, zs):
        fields = (_fmt(rec.z), _fmt(rec.epsilon * scale), _fmt(rec.theta_min), _fmt(rec.ed * scale), rec.region)
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, grid, scale",
    [
        ([], (-0.5, 1.0, 1e-3), 1.0),
        (["--z-min", "-0.3", "--z-max", "0.9", "--z-step", "0.013", "--units", "bits"], (-0.3, 0.9, 0.013), 1.0 / LN2),
    ],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_ed_curve_matches_fmt_reference_rows(tmp_path, capsys, argv, grid, scale, to_file):
    path = tmp_path / "curve.csv"
    code, out, err = _run(capsys, ["ed-curve", *argv, *(["--out", str(path)] if to_file else [])])
    assert code == EXIT_OK and err == ""
    text = path.read_text(encoding="utf-8") if to_file else out
    want = _reference_csv(curve_grid(*grid), scale)
    assert text.splitlines() == want.splitlines()
    assert text == want


@pytest.mark.parametrize(
    "argv, md5",
    [
        ([], "3f4f6cf48013d8d76cb14153e97ffa31"),
        (["--units", "bits"], "ec76ed4c3d9a3c236d0b273a85c64355"),
    ],
)
def test_ed_curve_default_csv_digest(capsys, argv, md5):
    # the export at default arguments, byte for byte: a change to the curve
    # layer that moves any row in its ninth digit fails here.  Taken with
    # CPython 3.11 and glibc's libm on x86-64; another libm may round a
    # last digit differently.
    code, out, _ = _run(capsys, ["ed-curve", *argv])
    assert code == EXIT_OK
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == md5


def test_ed_curve_records_each_grid_point_once(capsys, monkeypatch):
    zs = []
    curve_record = symmetric_curve.curve_record

    def counted(z):
        zs.append(z)
        return curve_record(z)

    monkeypatch.setattr(symmetric_curve, "curve_record", counted)
    code, out, _ = _run(capsys, ["ed-curve", "--z-step", "0.01"])
    assert code == EXIT_OK
    assert zs == curve_grid(z_step=0.01).tolist()
    assert len(out.splitlines()) == len(zs) + 1


def test_ed_curve_bad_range_is_usage_error(capsys):
    code, _, err = _run(capsys, ["ed-curve", "--z-min", "0.5", "--z-max", "0.1"])
    assert code == EXIT_USAGE
    assert "error" in err
    code, _, _ = _run(capsys, ["ed-curve", "--z-step", "-1"])
    assert code == EXIT_USAGE
    code, _, _ = _run(capsys, ["ed-curve", "--z-min", "-0.7"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_ed_curve_non_finite_step_is_usage_error(capsys, step):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["ed-curve", "--z-step", step])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: z_step must be positive and finite")


def test_ed_curve_step_too_fine_to_allocate_is_usage_error(capsys):
    # 1e-12 asks for 1.5e12 grid points, whose one-piece allocation fails
    # at once; at 1e-300 the point count cannot be indexed and at 5e-324 it
    # overflows, and z_grid raises before allocating
    for step in ("1e-12", "1e-300", "5e-324"):
        code, out, err = _run(capsys, ["ed-curve", "--z-step", step])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.removeprefix("error: ").strip() != ""
        assert f"z_step = {float(step)!r}" in err


def test_min_output_small_dimension(capsys):
    code, out, _ = _run(capsys, ["min-output", "--n", "6"])
    assert code == EXIT_OK
    assert "0.693147181" in out
    assert "pair states" in out
    assert "15" in out  # 6*5/2 minimizers


def test_min_output_large_dimension_with_oracle(capsys):
    code, out, _ = _run(capsys, ["min-output", "--n", "7", "--oracle"])
    assert code == EXIT_OK
    assert "0.666081957" in out
    assert "one-vs-rest" in out
    gap_line = [ln for ln in out.splitlines() if ln.startswith("gap")][0]
    assert abs(float(gap_line.split(":")[1])) < 1e-6


def test_min_output_calls_the_face_search_with_n_alone(capsys, monkeypatch):
    # the face search decides its own budget and seed
    calls = []

    def search(N, **kwargs):
        calls.append((N, kwargs))
        return 0.5, np.zeros(N)

    monkeypatch.setattr(linesearch, "brute_force_min_face", search)
    code, out, _ = _run(capsys, ["min-output", "--n", "7", "--oracle"])
    assert code == EXIT_OK
    assert calls == [(7, {})]
    assert "search minimum: 0.5 nats" in out


def test_min_output_rejects_small_n(capsys):
    # face_minimum's own rule refuses N < 2, also with the oracle, before
    # anything is printed
    for argv in (["--n", "1"], ["--n", "0"], ["--n", "-3"], ["--n", "1", "--oracle"]):
        code, out, err = _run(capsys, ["min-output", *argv])
        assert code == EXIT_USAGE, argv
        assert err.startswith("error:"), argv
        assert out == "", argv


def test_min_output_memory_does_not_grow_with_the_state_count(capsys):
    # N = 3000 has 3000 minimizer states of length 3000 (72 MB), of which ten
    # are printed
    tracemalloc.start()
    try:
        code = main(["min-output", "--n", "3000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "minimizer states (3000):" in out
    assert "  ... 2990 more by permutation" in out
    assert peak < 5e6


def _refuse_allocation(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


def test_min_output_states_too_long_to_allocate_is_usage_error(capsys):
    # the longest state the index guard admits: its list of N floats asks
    # for 8 EiB, more than any 64-bit address space holds, so the allocator
    # refuses it before a byte is touched
    N = sys.maxsize // 8
    code, out, err = _run(capsys, ["min-output", "--n", str(N)])
    assert code == EXIT_USAGE
    assert err == f"error: --n {N} is too large to allocate: a state of {N} floats does not fit in memory\n"
    assert out.endswith(f"minimizer states ({N}):\n")


def test_min_output_states_too_long_to_index_is_usage_error(capsys):
    # a state of 10^20 floats has more bytes than an index can count: the
    # states refuse it before any allocation is asked for
    code, out, err = _run(capsys, ["min-output", "--n", str(10**20)])
    assert code == EXIT_USAGE
    assert err == (
        f"error: --n {10**20} is too large to allocate: "
        f"a state of {10**20} floats has more bytes than an index can count\n"
    )
    assert out.endswith(f"minimizer states ({10**20}):\n")
    # from 2^1024 - 2^970 on, float(N) overflows: the dimension check names
    # N and the float range before anything is printed, also with the oracle
    for N in (2**1024 - 2**970, 2**1024):
        for oracle in ([], ["--oracle"]):
            code, out, err = _run(capsys, ["min-output", "--n", str(N), *oracle])
            assert code == EXIT_USAGE
            assert err == f"error: N = {N} is past the float range (at most 1.7976931348623157e+308)\n"
            assert out == ""


def test_min_output_oracle_too_large_to_allocate_is_usage_error(capsys, monkeypatch):
    # the search's starts are its first allocation, a (restarts, N - 1) draw
    class RefusingStream:
        standard_normal = staticmethod(_refuse_allocation)

    monkeypatch.setattr(linesearch, "stream_rng", lambda seed, stream: RefusingStream())
    code, out, err = _run(capsys, ["min-output", "--n", "7", "--oracle"])
    assert code == EXIT_USAGE
    assert err.startswith("error: --n 7 is too large to allocate: Unable to allocate")
    assert sum(line.startswith("  (") for line in out.splitlines()) == 7  # the states, then the search
    assert "search minimum" not in out


def test_roof_estimate_too_large_to_allocate_is_usage_error(tmp_path, capsys, monkeypatch):
    # the engine's dense estimate holds n^2 floats per restart, so a large
    # state may not fit; the refusal is raised here
    path = tmp_path / "state.txt"
    write_density_matrix(path, symmetric_state(0.3))
    monkeypatch.setattr(roof, "roof_upper_bound", _refuse_allocation)
    code, out, err = _run(capsys, ["roof-estimate", str(path)])
    assert code == EXIT_USAGE
    assert err == "error: Unable to allocate 7.28 TiB for an array\n"
    assert out == ""


def test_min_output_bits(capsys):
    code, out, _ = _run(capsys, ["min-output", "--n", "4", "--units", "bits"])
    assert code == EXIT_OK
    assert "closed-form minimum: 1 bits" in out


def test_zstar_report(capsys):
    code, out, _ = _run(capsys, ["zstar"])
    assert code == EXIT_OK
    values = {}
    for line in out.splitlines():
        if "z* =" in line:
            values["zstar"] = float(line.split("=")[-1])
        elif "value at z*" in line:
            values["s"] = float(line.split(":")[-1].split()[0])
        elif "transition" in line:
            values["zt"] = float(line.split("=")[-1])
    assert values["zstar"] == pytest.approx(-0.4079497, abs=1e-6)
    assert values["s"] == pytest.approx(0.470016, abs=1e-5)
    assert values["zt"] == pytest.approx(-0.41502, abs=1e-4)


def test_roof_estimate_on_symmetric_state(tmp_path, capsys):
    path = tmp_path / "state.txt"
    write_density_matrix(path, symmetric_state(-0.5))
    code, out, _ = _run(capsys, ["roof-estimate", str(path)])
    assert code == EXIT_OK
    bound = float([ln for ln in out.splitlines() if ln.startswith("upper bound")][0].split(":")[1].split()[0])
    assert bound == pytest.approx(LN2, abs=1e-5)
    assert "twirl parameter z = -0.5" in out


def test_roof_estimate_reports_how_the_search_ended(tmp_path, capsys):
    # one "search:" line, right under the bound; at omega(-0.41) the
    # default search inserts at least one point
    path = tmp_path / "state.txt"
    write_density_matrix(path, symmetric_state(-0.41))
    code, out, _ = _run(capsys, ["roof-estimate", str(path)])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith("search:")] == lines[1:2]
    match = re.fullmatch(r"search: (\d+) sweeps, (\d+) insertions, capped: (yes|no)", lines[1])
    assert match is not None
    assert int(match.group(2)) > 0


def test_roof_estimate_without_flags_reports_the_library_default(tmp_path, capsys, monkeypatch):
    # the roof search decides its own length, budget and seed, and the
    # report is that of the one roof_upper_bound(omega) the CLI makes
    path = tmp_path / "state.txt"
    write_density_matrix(path, symmetric_state(-0.41))
    calls = []
    results = []

    def search(omega, **kwargs):
        calls.append(kwargs)
        results.append(roof_upper_bound(omega, **kwargs))
        return results[-1]

    monkeypatch.setattr(roof, "roof_upper_bound", search)
    code, out, _ = _run(capsys, ["roof-estimate", str(path)])
    assert code == EXIT_OK
    assert calls == [{}]
    (res,) = results
    capped = "yes" if res.capped else "no"
    assert out.splitlines()[:2] == [
        f"upper bound: {_fmt(res.value)} nats",
        f"search: {res.sweeps} sweeps, {res.insertions} insertions, capped: {capped}",
    ]


def test_roof_estimate_on_basis_state(tmp_path, capsys):
    path = tmp_path / "basis.txt"
    write_density_matrix(path, np.diag([1.0, 0.0, 0.0]).astype(complex))
    code, out, _ = _run(capsys, ["roof-estimate", str(path)])
    assert code == EXIT_OK
    bound = float([ln for ln in out.splitlines() if ln.startswith("upper bound")][0].split(":")[1].split()[0])
    assert bound == pytest.approx(0.0, abs=1e-9)


def test_roof_estimate_on_maximally_mixed(tmp_path, capsys):
    path = tmp_path / "mixed.txt"
    write_density_matrix(path, np.eye(3, dtype=complex) / 3.0)
    code, out, _ = _run(capsys, ["roof-estimate", str(path)])
    assert code == EXIT_OK
    bound = float([ln for ln in out.splitlines() if ln.startswith("upper bound")][0].split(":")[1].split()[0])
    assert bound == pytest.approx(0.0, abs=1e-9)


def test_roof_estimate_parse_errors(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, _, err = _run(capsys, ["roof-estimate", str(missing)])
    assert code == EXIT_PARSE
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1+0j 0+0j\n0+0j 1+0j\n")
    code, _, err = _run(capsys, ["roof-estimate", str(bad)])
    assert code == EXIT_PARSE
    assert "trace" in err
    nan = tmp_path / "nan.txt"
    nan.write_text("2\nnan+0j nan+0j\nnan+0j nan+0j\n")
    code, out, _ = _run(capsys, ["roof-estimate", str(nan)])
    assert code == EXIT_PARSE
    assert "upper bound" not in out


def test_roof_estimate_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"3\n\xff\xfe\n")
    code, out, err = _run(capsys, ["roof-estimate", str(path)])
    assert code == EXIT_PARSE
    assert err.startswith("error:") and "UTF-8" in err
    assert out == ""


def test_verify_suite_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "edcurve"])
    assert code == EXIT_OK
    assert out.count("PASS  ") == 4
    assert out.splitlines()[-1] == "4/4 checks passed"


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    def failing_check():
        return verify.CheckResult("forced failure", (verify.Measure("error", 2e-9, 1e-9),))

    monkeypatch.setitem(verify.SUITES, "rank2", (failing_check,))
    code, out, _ = _run(capsys, ["verify", "rank2"])
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL  forced failure: error 2.00e-09 (tol 1e-09, margin -1.00e-09)" in out
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_verify_json_records(capsys, monkeypatch):
    def passing_check():
        return verify.CheckResult("exact", (verify.Measure("count", 0, 0), verify.Measure("error", 1e-12, 1e-9)))

    def nan_check():
        return verify.CheckResult("undefined", (verify.Measure("error", math.nan, 1e-9),))

    monkeypatch.setitem(verify.SUITES, "rank2", (passing_check, nan_check))
    code, out, _ = _run(capsys, ["verify", "rank2", "--json"])
    assert code == EXIT_VERIFY_FAILED
    first, second = (json.loads(line) for line in out.splitlines())
    assert [first["name"], first["passed"], second["name"], second["passed"]] == ["exact", True, "undefined", False]
    assert all(r["elapsed"] >= 0.0 for r in (first, second))
    assert first["measures"] == [
        {"label": "count", "value": 0, "tolerance": 0, "margin": 0},
        {"label": "error", "value": 1e-12, "tolerance": 1e-9, "margin": 1e-9 - 1e-12},
    ]
    assert second["measures"] == [{"label": "error", "value": None, "tolerance": 1e-9, "margin": None}]
    monkeypatch.setitem(verify.SUITES, "rank2", (passing_check,))
    assert _run(capsys, ["verify", "rank2", "--json"])[0] == EXIT_OK


def test_verify_offers_exactly_the_suites_of_verify():
    # the parser names the suites itself, so that building it imports no verify
    assert cli.SUITE_NAMES == ("all", *verify.SUITES)


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == EXIT_USAGE


def test_usage_error_exit_code(tmp_path, capsys):
    path = tmp_path / "state.txt"
    write_density_matrix(path, symmetric_state(0.3))
    # a value argparse cannot convert, and each search option the CLI does
    # not have: the searches run at their own defaults
    for argv in (
        ["ed-curve", "--z-step", "abc"],
        ["min-output", "--n", "7", "--oracle", "--restarts", "5"],
        ["min-output", "--n", "7", "--oracle", "--seed", "1"],
        ["roof-estimate", str(path), "--m", "3"],
        ["roof-estimate", str(path), "--restarts", "5"],
        ["roof-estimate", str(path), "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv
        assert capsys.readouterr().out == "", argv


def test_a_closed_pipe_ends_quietly():
    # a reader that stops after the header closes the pipe while ed-curve
    # is still writing: no traceback, and the exit code says what happened.
    # Without PYTHONUNBUFFERED, as by default: unbuffered text output drops
    # the rest of a write that the closed pipe cut short, and raises nothing
    src = os.path.dirname(os.path.dirname(diagmap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "diagmap.cli", "ed-curve", "--z-step", "1e-5"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait()
    assert first == "z,epsilon,theta_min,ed,region\n"
    assert (code, err) == (EXIT_BROKEN_PIPE, "")
