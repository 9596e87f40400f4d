import csv
import filecmp
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from padic_heat import (
    BallModel,
    GridFunction,
    build_matrix,
    evolve,
    positive_bump,
)
from padic_heat import cli, kernels, linear_solver, pme_solver, vladimirov
from padic_heat.ball_model import freq_abs_table
from padic_heat.cli import main
from padic_heat.vladimirov import multiplier

from tests.conftest import alarm


def read_csv_lines(path):
    return path.read_text().splitlines()


def test_spectrum_task(tmp_path):
    rc = main(["spectrum", "--p", "2", "--N", "0", "--M", "5",
               "--alpha", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_csv_lines(tmp_path / "spectrum.csv")
    assert lines[0] == "k,freq_abs,eigenvalue"
    assert len(lines) == 1 + 32
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["size"] == 32
    assert report["max_multiset_deviation"] < 1e-9
    assert not (tmp_path / "operator_matrix.csv").exists()


@pytest.mark.parametrize("p, N, M, alpha", [
    (2, 0, 0, 1.0), (7, -1, 1, 2.4), (7, 0, 4, 0.35), (3, -2, 6, 1.3), (2, -1, 9, 6.0)])
def test_spectrum_checks_the_dft_of_the_matrix_row(tmp_path, p, N, M, alpha):
    # S = 1, p = 7 and N < 0: the sorted DFT of the operator's first row
    # meets the closed-form multiset, relative to the largest eigenvalue
    assert main(["spectrum", "--p", str(p), "--N", str(N), "--M", str(M),
                 "--alpha", str(alpha), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["size"] == p ** (N + M)
    assert report["max_row_dft_deviation"] < 1e-13


def test_spectrum_fails_on_a_perturbed_matrix_row(tmp_path, capsys, monkeypatch):
    # the symbol's multiset cannot see the row; the DFT check must
    def perturbed(model, alpha):
        row = vladimirov.matrix_row(model, alpha).copy()
        row[0] += 1e-6
        return row

    monkeypatch.setattr(cli, "matrix_row", perturbed)
    assert main(["spectrum", "--p", "2", "--N", "0", "--M", "5", "--alpha", "1.0",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["max_multiset_deviation"] < 1e-9 <= report["max_row_dft_deviation"]
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "consistency" and "first row" in err["message"]


def test_spectrum_matrix_dump(tmp_path):
    rc = main(["spectrum", "--p", "3", "--N", "0", "--M", "2",
               "--alpha", "1.5", "--dump-matrix", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_csv_lines(tmp_path / "operator_matrix.csv")
    assert len(lines) == 9
    got = np.array([[float(v) for v in line.split(",")] for line in lines])
    want = build_matrix(BallModel(3, 0, 2), 1.5)
    assert np.max(np.abs(got - want)) == 0.0


def test_spectrum_matrix_dump_past_the_cap_is_refused_before_any_work(tmp_path, capsys,
                                                                       monkeypatch):
    # S = 8192 passes DEFAULT_MATRIX_CAP: exit 1 with nothing written, and
    # neither the eigenvalue table nor the checks begin
    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum began its work before the refusal")

    monkeypatch.setattr(cli, "spectrum_multiset", forbidden)
    monkeypatch.setattr(cli, "matrix_row", forbidden)
    assert main(["spectrum", "--p", "2", "--N", "0", "--M", "13", "--alpha", "1.0",
                 "--dump-matrix", "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "dense-matrix cap 4096" in err["message"]


def test_spectrum_matrix_dump_forms_no_dense_matrix(tmp_path, monkeypatch):
    # the dump formats one row of the circulant matrix, so its memory is
    # O(S); the dense matrix alone holds 729**2 * 8 bytes, 4.2 MB
    model, alpha = BallModel(3, 0, 6), 1.3
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([cli._fmt(v) for v in row]
                                 for row in build_matrix(model, alpha))

    def forbidden(*args, **kwargs):
        raise AssertionError("the dump formed the dense matrix")

    monkeypatch.setattr(vladimirov, "build_matrix", forbidden)
    monkeypatch.setattr(cli, "build_matrix", forbidden, raising=False)
    argv = ["spectrum", "--p", "3", "--N", "0", "--M", "6", "--alpha", "1.3",
            "--dump-matrix", "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * model.S
    assert ((tmp_path / "out" / "operator_matrix.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def _spectrum_files_per_cell(model, alpha, out):
    """spectrum.csv, spectrum.json and operator_matrix.csv written as the
    spectrum task wrote them before its per-valuation files: ``_fmt`` on
    every CSV cell, ``json.dump`` of one object per row, the matrix from
    ``build_matrix`` row by row."""
    header = ["k", "freq_abs", "eigenvalue"]
    rows = list(zip(range(model.S), freq_abs_table(model).tolist(),
                    multiplier(model, alpha).eigenvalues.tolist()))
    cli._write_table({"out": str(out), "format": "csv"}, "spectrum", header, rows)
    with open(out / "spectrum.json", "w") as fh:
        json.dump([{h: cli._json_cell(v) for h, v in zip(header, row)} for row in rows],
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out / "operator_matrix.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        for row in build_matrix(model, alpha):
            w.writerow([cli._fmt(v) for v in row])


SPECTRUM_PIN_CASES = [(p, N, {2: 6, 3: 4, 5: 3, 7: 2}[p] - N)
                      for p in (2, 3, 5, 7) for N in (-1, 0, 1)] + [(3, 1, -1)]


@pytest.mark.parametrize("case", range(len(SPECTRUM_PIN_CASES)))
def test_spectrum_files_equal_the_per_cell_writer(tmp_path, case):
    p, N, M = SPECTRUM_PIN_CASES[case]
    alpha = (0.35, 0.9, 1.65, 2.4)[case % 4]
    model = BallModel(p, N, M)
    want = tmp_path / "want"
    want.mkdir()
    _spectrum_files_per_cell(model, alpha, want)
    args = ["spectrum", "--p", str(p), "--N", str(N), "--M", str(M),
            "--alpha", repr(alpha)]
    assert main(args + ["--dump-matrix", "--out", str(tmp_path / "csv")]) == 0
    assert main(args + ["--format", "json", "--out", str(tmp_path / "json")]) == 0
    for got in (tmp_path / "csv" / "spectrum.csv",
                tmp_path / "csv" / "operator_matrix.csv",
                tmp_path / "json" / "spectrum.json"):
        assert got.read_bytes() == (want / got.name).read_bytes(), got.name


@pytest.mark.parametrize("p, N, M", [(2, -1, 7), (3, 0, 4), (7, 1, 1), (5, 0, 0)])
def test_spectrum_blocks_join_with_no_bytes_between(tmp_path, monkeypatch, p, N, M):
    # blocks of 5 rows put a block edge after row 0's block, end on a
    # partial block (S = 64, 81, 49) and hold S = 1 in one; the bytes are
    # those of one block holding every row
    args = ["spectrum", "--p", str(p), "--N", str(N), "--M", str(M), "--alpha", "1.3"]
    for fmt in ("csv", "json"):
        assert main(args + ["--format", fmt, "--out", str(tmp_path / "whole")]) == 0
        monkeypatch.setattr(cli, "_CSV_BLOCK", 5)
        assert main(args + ["--format", fmt, "--out", str(tmp_path / "blocks")]) == 0
        monkeypatch.undo()
        name = "spectrum." + fmt
        assert ((tmp_path / "blocks" / name).read_bytes()
                == (tmp_path / "whole" / name).read_bytes())


_PEAK_SCRIPT = """
import sys, tracemalloc
from padic_heat.cli import main
tracemalloc.start()
code = main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""

M14 = ["--p", "2", "--N", "0", "--M", "14", "--alpha", "1.3"]


@pytest.mark.parametrize("argv, per_point", [
    (["spectrum", *M14], 130),
    (["spectrum", *M14, "--format", "json"], 180),
    (["solve-linear", *M14, "--dump-state"], 220),
    (["solve-pme", *M14, "--steps", "2", "--t", "0.02", "--dump-state"], 220),
])
def test_file_writers_peak_per_point(tmp_path, argv, per_point):
    # traced peak of one run at S = 2**14 in a fresh interpreter, so that
    # no cache another test filled is warm.  Measured: 94 and 121 bytes per
    # point for spectrum (CSV, JSON), 151 for solve-linear and 144 for
    # solve-pme; spectrum's writers took 182 and 278 while they formed
    # every row before writing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, *argv, "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < per_point * 2 ** 14


def test_json_table_format(tmp_path):
    rc = main(["spectrum", "--p", "2", "--N", "0", "--M", "3",
               "--alpha", "1.0", "--format", "json", "--out", str(tmp_path)])
    assert rc == 0
    assert not (tmp_path / "spectrum.csv").exists()
    rows = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(rows) == 8
    assert set(rows[0]) == {"k", "freq_abs", "eigenvalue"}

    rc = main(["green", "--p", "2", "--N", "0", "--M", "3", "--alpha", "2.0",
               "--mu", "1.0", "--m-lo", "-4", "--format", "json",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = json.loads((tmp_path / "green_mu_1.json").read_text())
    assert rows[0]["ratio"] is None  # no predecessor for the first sphere
    assert all(r["ratio"] is not None for r in rows[1:])
    report = json.loads((tmp_path / "green_report.json").read_text())
    assert report["tables"][0]["file"] == "green_mu_1.json"


def test_huge_p_at_order_1_is_decided_in_time(tmp_path, capsys):
    # trial division of p = 2**61 - 1 ran for hours at N + M = 0
    argv = ["--N", "0", "--M", "0", "--alpha", "1.0", "--out", str(tmp_path)]
    with alarm(5):
        assert main(["spectrum", "--p", str(2 ** 61 - 1)] + argv) == 0
        assert json.loads((tmp_path / "spectrum_report.json").read_text())["size"] == 1
        assert main(["spectrum", "--p", str(2 ** 61 + 1)] + argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "must be a prime" in json.loads(err[0])["message"]


def test_green_past_float_range_of_its_denominators(tmp_path, capsys):
    # p**(alpha*(1 - m)) passes float range down to the ball integral's
    # m = -40: 1009**(2.8*41) ended in an OverflowError traceback
    out = tmp_path / "out"
    assert main(["green", "--p", "1009", "--N", "0", "--M", "1", "--alpha", "2.8",
                 "--out", str(out)]) == 0
    report = json.loads((out / "green_report.json").read_text())
    assert abs(report["tables"][0]["ball_integral"]) < 1e-10
    assert main(["green", "--p", str(2 ** 61 - 1), "--N", "0", "--M", "0",
                 "--alpha", "1.0", "--out", str(out)]) == 0
    # at alpha < 1 the Green function itself passes float range there
    assert main(["green", "--p", str(2 ** 61 - 1), "--N", "0", "--M", "0",
                 "--alpha", "0.3", "--out", str(tmp_path / "huge")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"


@pytest.mark.parametrize("argv", [
    ["green", "--p", "2", "--N", "0", "--M", "3", "--alpha", "0.01"],
    ["heat-kernel", "--p", "2", "--N", "0", "--M", "3", "--alpha", "0.001", "--times", "1"]])
def test_an_overflow_names_its_task(tmp_path, capsys, argv):
    # at small alpha a sphere weight passes float range; the message was
    # the errno text alone
    with alarm(60):
        assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "validation", "exit_code": 1,
        "message": f"{argv[0]}: a value passed float range: "
                   "(34, 'Numerical result out of range')"}


def test_heat_kernel_refuses_a_kernel_sum_past_float_range(tmp_path, capsys):
    # every term of the sweep's prefix fits in a double but their sum does
    # not; it read inf at x = 0, and the task exited 0
    argv = ["heat-kernel", "--p", "2", "--N", "0", "--M", "3", "--alpha", "0.00585",
            "--times", "1", "--out", str(tmp_path)]
    with alarm(60):
        assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["message"] == (
        "heat-kernel: a value passed float range: (34, 'Numerical result out of range')")


def test_heat_kernel_answers_past_float_range_of_a_sphere_weight(tmp_path):
    # at alpha = 0.01 and t = 0.1 the character sum runs past the sphere
    # weight 2**1024, whose decay does not vanish there; the sweep formed
    # that weight alone and exited 1
    argv = ["heat-kernel", "--p", "2", "--N", "0", "--M", "3", "--alpha", "0.01"]
    with alarm(60):
        assert main(argv + ["--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "heat_kernel_report.json").read_text())
    assert report["worst_rel_diff"] < report["tolerance"]


def test_heat_kernel_over_6001_radii_answers_in_seconds(tmp_path):
    # the series route summed the global kernel one radius per call, each
    # re-adding every sphere above the ball from a cache of 4096: past
    # 900 s here; one sphere list per time answers in seconds
    argv = ["heat-kernel", "--p", "3", "--N", "1", "--M", "2", "--alpha", "0.7",
            "--times", "0.1,1,10", "--m-lo", "-6000", "--out", str(tmp_path)]
    with alarm(30):
        assert main(argv) == 0
    report = json.loads((tmp_path / "heat_kernel_report.json").read_text())
    assert report["worst_rel_diff"] < report["tolerance"]


def test_heat_kernel_refuses_a_radius_sphere_sum_past_the_work_budget(tmp_path, capsys):
    # 20002 spheres, the deepest at 9578 digits: refused before any is formed
    argv = ["heat-kernel", "--p", "3", "--N", "1", "--M", "2", "--alpha", "0.7",
            "--times", "0.1,1,10", "--m-lo", "-20000", "--out", str(tmp_path)]
    with alarm(5):
        assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "work budget" in json.loads(err[0])["message"]


def test_heat_kernel_refuses_a_deep_m_lo_before_any_per_radius_work(tmp_path, capsys):
    # the radius list and three passes over it came before the refusal:
    # 795 MB and 2.1 s at --m-lo -10**7, and growing linearly
    argv = ["heat-kernel", "--p", "3", "--N", "1", "--M", "2", "--alpha", "0.7",
            "--times", "0.1", "--m-lo", str(-10**8), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        with alarm(5):
            assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == ("radius sphere sum: 100000002 terms at 47712161 digits pass "
                              "the work budget of 30000000 digit-terms; use the "
                              "character-sum route instead")


class _SweepStarted(Exception):
    pass


def _record_green_sweeps(monkeypatch):
    """Patch the Green sweep to record its arguments and raise
    ``_SweepStarted`` at its first step, before any radius is formed."""
    calls = []

    def recorder(*args):
        calls.append(args)
        raise _SweepStarted
        yield

    monkeypatch.setattr(kernels, "_green_radial", recorder)
    return calls


@pytest.mark.parametrize("N", [0, -3, 2])
def test_green_refuses_a_sweep_past_the_row_cap(tmp_path, capsys, monkeypatch, N):
    # N - m_lo + 1 radii, unbounded before: --m-lo -10**6 ran 9.2 s and
    # wrote a 59 MB table; past 2**20 radii the call exits 1 before any sweep
    calls = _record_green_sweeps(monkeypatch)
    m_lo = N - 2**20
    with pytest.raises(ValueError, match="1048577 radii"):
        kernels.green_estimates_report(2, N, 1.5, 1.0, (m_lo, N))
    assert main(["green", "--p", "2", "--N", str(N), "--M", "3", "--alpha", "1.5",
                 "--m-lo", str(m_lo), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "past the cap 1048576" in err["message"]
    assert calls == [] and list(tmp_path.iterdir()) == []
    # one radius fewer: the sweep starts
    with pytest.raises(_SweepStarted):
        kernels.green_estimates_report(2, N, 1.5, 1.0, (m_lo + 1, N))
    with pytest.raises(_SweepStarted):
        main(["green", "--p", "2", "--N", str(N), "--M", "3", "--alpha", "1.5",
              "--m-lo", str(m_lo + 1), "--out", str(tmp_path)])
    assert len(calls) == 2


def test_green_sweep_answers_up_to_the_radius_that_overflows(tmp_path):
    # K(-157) = 3.2e306; only the next radius's prefix term passes float
    # range, which the sweep formed before yielding K(-157) and exited 1
    argv = ["green", "--p", "1009", "--N", "-3", "--M", "3", "--alpha", "0.35",
            "--m-lo", "-157", "--m-hi", "-157", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = read_csv_lines(tmp_path / "green_mu_1.csv")
    assert len(lines) == 2 and lines[1].split(",")[:3] == [
        "-157", repr(1009.0 ** -157), repr(3.247559159232082e+306)]


def test_green_default_lowest_radius_lies_at_or_below_the_highest(tmp_path):
    # m_hi defaults to min(N, 0) = -26, and an m_lo of -25 above it exited
    # 1 with "bad m_range (-25, -26)" on a valid model
    argv = ["green", "--p", "2", "--N", "-26", "--M", "26", "--alpha", "1.5",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = read_csv_lines(tmp_path / "green_mu_1.csv")
    assert [line.split(",")[0] for line in lines[1:]] == ["-26"]


def test_heat_kernel_task(tmp_path):
    rc = main(["heat-kernel", "--p", "2", "--N", "0", "--M", "4",
               "--alpha", "1.0", "--times", "0.5,2.0", "--m-lo", "-3",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = read_csv_lines(tmp_path / "heat_kernel.csv")
    assert lines[0] == "m,abs_x,t,z_char_sum,z_series,rel_diff"
    # per time: m = 0..-3 plus the x = 0 row
    assert len(lines) == 1 + 2 * 5
    assert any(line.startswith("zero,") for line in lines[1:])
    report = json.loads((tmp_path / "heat_kernel_report.json").read_text())
    assert report["worst_rel_diff"] < report["tolerance"]


def test_green_task_multiple_mu(tmp_path):
    rc = main(["green", "--p", "2", "--N", "0", "--M", "4", "--alpha", "1.0",
               "--mu", "0.5,2.0", "--m-lo", "-10", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("green_mu_0.5.csv", "green_mu_2.csv"):
        lines = read_csv_lines(tmp_path / name)
        assert lines[0] == "m,abs_x,K,weight,weighted,ratio"
        assert len(lines) == 1 + 11
    report = json.loads((tmp_path / "green_report.json").read_text())
    assert len(report["tables"]) == 2
    for entry in report["tables"]:
        assert abs(entry["ball_integral"]) < 1e-10


@pytest.mark.parametrize("mus", ["1,1", "1.0000001,1.0000002", "0.5,2,0.5"])
def test_green_refuses_two_mu_of_one_table_name(tmp_path, capsys, monkeypatch, mus):
    # each mu's table is green_mu_{mu:g}: two values of one name would
    # write one file twice, so the call exits 1 before any computation
    def forbidden(*args, **kwargs):
        raise AssertionError("green computed before the refusal")

    monkeypatch.setattr(cli, "green_estimates_report", forbidden)
    monkeypatch.setattr(cli, "green_ball_integral", forbidden)
    assert main(["green", "--p", "2", "--N", "0", "--M", "3", "--alpha", "2.0",
                 "--mu", mus, "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "table name" in err["message"]


def test_solve_linear_task(tmp_path):
    rc = main(["solve-linear", "--p", "2", "--N", "0", "--M", "4",
               "--alpha", "1.5", "--times", "0.25,1.0",
               "--initial", '{"kind": "bump", "radius_exp": -1}',
               "--dump-state", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_csv_lines(tmp_path / "linear_series.csv")
    assert lines[0] == "t,mass,l1,l2,linf,path_disagreement"
    assert len(lines) == 3
    report = json.loads((tmp_path / "linear_report.json").read_text())
    assert report["worst_path_disagreement"] < report["tolerance"]
    # the dumped state reproduces an in-library evolution bit for bit
    model = BallModel(2, 0, 4)
    dumped = GridFunction.from_csv(tmp_path / "linear_state_final.csv", model)
    want = evolve(positive_bump(model, 0, -1), 1.5, 1.0)
    assert np.max(np.abs(dumped.values - want.values)) < 1e-15


def test_solve_linear_large_model(tmp_path):
    # S = 2**16: both paths are O(S), so the kernel check runs at this size
    rc = main(["solve-linear", "--p", "2", "--N", "0", "--M", "16",
               "--alpha", "1.3", "--initial", "random", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "linear_report.json").read_text())
    assert report["worst_path_disagreement"] < report["tolerance"]


def test_solve_pme_task(tmp_path):
    rc = main(["solve-pme", "--p", "2", "--N", "0", "--M", "4",
               "--alpha", "1.0", "--t", "0.5", "--steps", "8",
               "--phi", "power:2", "--record-every", "4",
               "--dump-state", "--out", str(tmp_path)])
    assert rc == 0
    lines = read_csv_lines(tmp_path / "pme_trajectory.csv")
    assert lines[0] == ("step,t,mass,l1,l2,sup_norm,newton_iters,"
                        "step_residual,mass_identity_residual")
    assert len(lines) == 1 + 8
    report = json.loads((tmp_path / "pme_report.json").read_text())
    assert report["worst_mass_identity_residual"] < 1e-12
    assert (tmp_path / "pme_state_final.csv").exists()
    assert "crandall_liggett" not in report


@pytest.mark.parametrize("task", ["solve-pme", "solve-linear"])
def test_default_initial_data_at_negative_N(tmp_path, task):
    # the default bump's sub-ball is the whole ball when N < 0; a radius
    # of p**0 there lay outside the ball and exited 1
    rc = main([task, "--p", "3", "--N", "-1", "--M", "4", "--alpha", "1.3",
               "--out", str(tmp_path)])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["solve-linear", "--p", "5", "--N", "2", "--M", "-1", "--alpha", "1.0"],
    ["solve-pme", "--p", "7", "--N", "1", "--M", "-1", "--alpha", "1.0", "--steps", "2"],
])
def test_default_initial_data_at_negative_M(tmp_path, argv):
    # at M < 0 the default bump's sub-ball is one coset; a radius of p**0
    # there lay below the resolution and exited 1
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_solve_pme_with_doubling_report(tmp_path):
    rc = main(["solve-pme", "--p", "2", "--N", "0", "--M", "3",
               "--alpha", "1.0", "--t", "0.5", "--steps", "8",
               "--cl-tol", "1e-3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "pme_report.json").read_text())
    cl = report["crandall_liggett"]
    assert cl["converged"] is True
    assert all(r <= 0.75 for r in cl["ratios"])


def test_verify_task(tmp_path, capsys):
    rc = main(["verify", "--p", "2", "--N", "0", "--M", "5",
               "--alpha", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 8
    assert all(line.startswith("PASS") for line in out)
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 8
    assert all(c["passed"] for c in report["checks"])


def test_verify_step_stopping_at_the_rounding_floor(tmp_path, capsys):
    # Newton's residual stops above newton_tol here; the step is accepted
    # at its rounding floor instead of ending in non-convergence
    rc = main(["verify", "--p", "7", "--N", "0", "--M", "3",
               "--alpha", "2.0", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert "PASS  implicit-step mass identity" in out[-1]


@pytest.mark.parametrize("initial", ["bump", "indicator"])
def test_solve_pme_accepts_the_rounding_floor_only_after_a_small_correction(tmp_path,
                                                                            initial):
    # at alpha = 6 the floor 4*eps*h*e_0*max|Phi(v)| passes 0.2: the first
    # Newton iterate sat below it, 0.225 off the mass identity, and was taken
    rc = main(["solve-pme", "--p", "2", "--N", "0", "--M", "8", "--alpha", "6",
               "--t", "1", "--steps", "1", "--initial", initial, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "pme_report.json").read_text())
    assert abs(report["worst_mass_identity_residual"]) < 1e-12


def test_verify_with_a_negative_N(tmp_path, capsys):
    # "ball kernel two formulas" runs the series route at t = 10
    # (lambda*t = 41); it used to fail there at 6.6e5
    rc = main(["verify", "--p", "3", "--N", "-1", "--M", "5",
               "--alpha", "1.6", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS  ball kernel two formulas" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2", "--N", "-2", "--M", "8", "--alpha", "1.0"],
    ["heat-kernel", "--p", "3", "--N", "-2", "--M", "4", "--alpha", "0.35",
     "--times", "0.1,1,10,20"],
    ["heat-kernel", "--p", "2", "--N", "0", "--M", "3", "--alpha", "0.35", "--times", "20"],
    ["heat-kernel", "--p", "2", "--N", "-2", "--M", "8", "--alpha", "1.0"],
])
def test_series_route_agrees_at_lambda_t_below_30(tmp_path, argv):
    # the series route once summed these in double and exited 2: 1.9e-6
    # off at N = -2, alpha = 1, where c(t) reaches 1e10, and 3.9e-10 at
    # N = 0, t = 20, from the global kernel's tail cut times exp(lambda*t)
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_verify_refuses_models_above_the_matrix_cap(tmp_path, capsys, monkeypatch):
    # S = 2**13 > DEFAULT_MATRIX_CAP: refused before any O(S**2) oracle runs
    def refuse(*args):
        raise AssertionError("verify ran an O(S**2) oracle above the cap")

    monkeypatch.setattr(cli, "apply_hypersingular", refuse)
    rc = main(["verify", "--p", "2", "--N", "0", "--M", "13", "--out", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / "verify_report.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["exit_code"] == 1 and "4096" in payload["message"]


def test_verify_takes_each_model_flag_it_is_given(tmp_path, capsys):
    # p alone ran the default model (2, 0, 6); each of p, N and M has its
    # own default, so --p 7 builds (7, 0, 6), S = 117649, past the cap
    rc = main(["verify", "--p", "7", "--alpha", "1.0", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "group order 117649" in json.loads(err[0])["message"]
    assert main(["verify", "--M", "4", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert (report["p"], report["N"], report["M"], report["passed"]) == (2, 0, 4, True)


def test_verify_runs_no_roll_loop(tmp_path, capsys, monkeypatch):
    # the O(S**2) oracles are circulant matvecs, not S cyclic shifts
    def refuse(*args, **kwargs):
        raise AssertionError("np.roll called")

    monkeypatch.setattr(np, "roll", refuse)
    rc = main(["verify", "--p", "3", "--N", "0", "--M", "5", "--alpha", "1.3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "PASS  representation agreement" in capsys.readouterr().out


def test_verify_fails_on_a_perturbed_matrix_row(tmp_path, capsys, monkeypatch):
    # the symbol's eigenvalues and spectrum_multiset share one evaluation,
    # so the "spectrum multiset" row must read the DFT of the row as well
    def perturbed(model, alpha):
        row = vladimirov.matrix_row(model, alpha).copy()
        row[0] += 1e-6
        return row

    monkeypatch.setattr(cli, "matrix_row", perturbed)
    assert main(["verify", "--p", "2", "--N", "0", "--M", "5", "--alpha", "1.0",
                 "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL  spectrum multiset: ")
    assert all(line.startswith("PASS") for line in out[1:])
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["checks"][0]["error"] >= 1e-9 and report["passed"] is False


def _shift_entry_0(module, name, shift):
    """Patch module.name to add ``shift`` to entry 0 of its result, a
    GridFunction or an array."""
    original = getattr(module, name)

    def perturbed(*args):
        out = original(*args)
        values = np.array(out.values if isinstance(out, GridFunction) else out)
        values[0] += shift
        return GridFunction(out.model, values) if isinstance(out, GridFunction) else values

    return module, name, perturbed


def _shift_green_sweep(module, at_mu):
    """Patch the Green sweep that ``module`` reads at ``at_mu`` to add 1e-6
    to every K: the mean-zero check reads ``kernels``' at mu = 1, the
    resolvent's kernel path ``linear_solver``'s at mu = 0.9."""
    original = module._green_radial

    def perturbed(p, N, alpha, mu):
        sweep = original(p, N, alpha, mu)
        return ((K + 1e-6, mean) for K, mean in sweep) if mu == at_mu else sweep

    return module, "_green_radial", perturbed


def _scale_series():
    original = cli._series_reader

    def perturbed(*args):
        read = original(*args)
        return lambda m: read(m) * (1.0 + 1e-6)

    return cli, "_series_reader", perturbed


# each check and a perturbation of one of the representations it compares
VERIFY_PERTURBATIONS = {
    "representation agreement": lambda: _shift_entry_0(cli, "apply_hypersingular", 1e-6),
    "ball kernel two formulas": _scale_series,
    "Chapman-Kolmogorov": lambda: _shift_entry_0(cli, "ball_kernel_gridfunction", 1e-6),
    "resolvent two paths": lambda: _shift_green_sweep(linear_solver, 0.9),
    "Green kernel mean zero": lambda: _shift_green_sweep(kernels, 1.0),
    "FFT vs direct DFT": lambda: _shift_entry_0(cli, "dft_direct", 1e-3),
    "implicit-step mass identity": lambda: _shift_entry_0(pme_solver, "apply_radial", 1e-6),
}


@pytest.mark.parametrize("check", list(VERIFY_PERTURBATIONS))
def test_verify_fails_on_a_perturbed_representation(tmp_path, capsys, monkeypatch, check):
    monkeypatch.setattr(*VERIFY_PERTURBATIONS[check]())
    assert main(["verify", "--p", "2", "--N", "0", "--M", "5", "--alpha", "1.0",
                 "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert f"FAIL  {check}: " in out and out.count("FAIL") == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == [check] and report["passed"] is False


CACHED_PARSER_RUNS = [
    ["spectrum", "--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0",
     "--dump-matrix"],
    ["heat-kernel", "--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0",
     "--times", "0.5", "--m-lo", "-2"],
    ["green", "--p", "2", "--N", "0", "--M", "3", "--alpha", "2.0",
     "--mu", "1.0", "--m-lo", "-4", "--format", "json"],
    ["solve-linear", "--p", "3", "--N", "0", "--M", "2", "--alpha", "1.5",
     "--times", "0.25", "--path", "kernel", "--dump-state"],
    ["solve-pme", "--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0",
     "--t", "0.5", "--steps", "4", "--record-every", "2", "--dump-state"],
    ["verify", "--p", "2", "--N", "0", "--M", "3", "--alpha", "0.8"],
]


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    # main builds its parser once per process; a usage error and the
    # other tasks' flags must not leak into a later call
    def run(args, out):
        out.mkdir()
        rc = main(args + ["--out", str(out)])
        captured = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        return rc, captured.out, files

    first = []
    for i, args in enumerate(CACHED_PARSER_RUNS):
        cli._build_parser.cache_clear()
        first.append(run(args, tmp_path / f"first{i}"))
    assert [rc for rc, _, _ in first] == [0] * len(CACHED_PARSER_RUNS)
    for i, args in enumerate(CACHED_PARSER_RUNS):
        assert main(["solve-pme", "--steps", "four"]) == 1
        assert main(["no-such-task"]) == 1
        capsys.readouterr()
        assert run(args, tmp_path / f"again{i}") == first[i]


def test_outputs_are_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    args = ["solve-pme", "--p", "2", "--N", "0", "--M", "4", "--alpha", "1.0",
            "--t", "0.5", "--steps", "8", "--dump-state"]
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    for name in ("pme_trajectory.csv", "pme_report.json", "pme_state_final.csv"):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "p": 2, "N": 0, "M": 4, "alpha": 1.0, "out": str(tmp_path)}))
    rc = main(["spectrum", "--config", str(cfg), "--alpha", "2.0"])
    assert rc == 0
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    assert report["alpha"] == 2.0  # the flag wins over the file


def test_validation_failures(tmp_path, capsys):
    # non-prime p
    rc = main(["spectrum", "--p", "4", "--N", "0", "--M", "3",
               "--alpha", "1.0", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert err["exit_code"] == 1
    # missing alpha
    assert main(["spectrum", "--p", "2", "--N", "0", "--M", "3",
                 "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    # unknown config key
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 2, "N": 0, "M": 3, "alpha": 1.0,
                               "wavelength": 7}))
    assert main(["spectrum", "--config", str(cfg)]) == 1
    capsys.readouterr()
    # malformed phi and initial specs
    base = ["solve-pme", "--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0",
            "--out", str(tmp_path)]
    assert main(base + ["--phi", "cubic"]) == 1
    capsys.readouterr()
    assert main(base + ["--initial", '{"kind": "sine"}']) == 1
    capsys.readouterr()
    # record_every below 1: one JSON error line, no traceback, no table
    for value in ("0", "-2"):
        assert main(base + ["--record-every", value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "validation"
        assert "record_every" in err[0]
    assert not (tmp_path / "pme_trajectory.csv").exists()
    # NaN and inf parameters: one JSON error line and exit 1, before any
    # solve (NaN passes every "<= 0" check)
    model_flags = ["--p", "2", "--N", "0", "--M", "3", "--out", str(tmp_path)]
    for argv, key in [
        (["solve-pme", "--alpha", "nan", "--steps", "4"], "alpha"),
        (["solve-pme", "--alpha", "1.0", "--t", "nan", "--steps", "4"], "t"),
        (["solve-pme", "--alpha", "1.0", "--t", "inf", "--steps", "4"], "t"),
        (["solve-pme", "--alpha", "1.0", "--cl-tol", "nan"], "cl_tol"),
        (["verify", "--alpha", "nan"], "alpha"),
        (["verify", "--alpha", "inf"], "alpha"),
        (["solve-linear", "--alpha", "1.0", "--times", "nan"], "times"),
        (["solve-linear", "--alpha", "1.0", "--tol", "nan"], "tol"),
        (["heat-kernel", "--alpha", "1.0", "--times", "0.1,inf"], "times"),
        (["green", "--alpha", "1.0", "--mu", "nan"], "mu"),
    ]:
        assert main(argv + model_flags) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "validation"
        assert f"{key} must be finite" in err[0]
    assert not (tmp_path / "linear_report.json").exists()
    assert not (tmp_path / "verify_report.json").exists()
    # config values of the wrong type: one JSON error line, no traceback
    for bad in ({"alpha": [1]}, {"p": [2]}):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(dict({"p": 2, "N": 0, "M": 3, "alpha": 1.0}, **bad)))
        assert main(["solve-pme", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "validation"
        assert f"{next(iter(bad))} must be a number" in err[0]
    assert not (tmp_path / "pme_trajectory.csv").exists()
    # bad format, bad times, bogus subcommand
    assert main(["spectrum", "--p", "2", "--N", "0", "--M", "3",
                 "--alpha", "1.0", "--format", "xml"]) == 1
    capsys.readouterr()
    assert main(["heat-kernel", "--p", "2", "--N", "0", "--M", "3",
                 "--alpha", "1.0", "--times", "-1.0"]) == 1
    capsys.readouterr()
    assert main(["transmogrify"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


def test_consistency_exit_code(tmp_path, capsys):
    # demand an impossible cross-check tolerance: the run must refuse
    rc = main(["solve-linear", "--p", "2", "--N", "0", "--M", "4",
               "--alpha", "1.0", "--times", "0.5", "--tol", "1e-18",
               "--initial", '{"kind": "random", "seed": 1}',
               "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "consistency"
    assert err["exit_code"] == 2
    # outputs are still written for inspection
    assert (tmp_path / "linear_series.csv").exists()


def test_nonconvergence_exit_code(tmp_path, capsys):
    # lambda*t so extreme the compensated series route refuses: 5.3e4,
    # past its 20000-digit guard (at t = 80 the route now converges)
    rc = main(["heat-kernel", "--p", "2", "--N", "-3", "--M", "5",
               "--alpha", "1.0", "--times", "10000", "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "non-convergence"
    assert err["exit_code"] == 3


@pytest.mark.parametrize("knot", ["[NaN, 1]", "[1, Infinity]", "[-Infinity, -2]"])
def test_non_finite_table_knot_is_a_validation_error(tmp_path, capsys, knot):
    # json reads NaN and Infinity; a NaN knot exited 3 ("Newton failed:
    # residual nan after 0 iterations") and -Infinity was accepted
    cfg = tmp_path / "phi.json"
    cfg.write_text('{"phi": {"kind": "table", "knots": [[-1, -1], [0, 0], %s]}}' % knot)
    assert main(["solve-pme", "--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0",
                 "--steps", "2", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and "finite" in err["message"]
    assert not (tmp_path / "pme_trajectory.csv").exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "padic_heat.cli", "spectrum", "--p", "3",
         "--N", "0", "--M", "3", "--alpha", "2.0", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "spectrum.csv").exists()


TASK_RUNS = [
    ["spectrum", "--p", "3", "--N", "-1", "--M", "4", "--alpha", "1.3"],
    ["heat-kernel", "--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0", "--times", "0.5,50"],
    ["green", "--p", "2", "--N", "0", "--M", "3", "--alpha", "2.0", "--mu", "0.5,2"],
    ["solve-linear", "--p", "5", "--N", "0", "--M", "2", "--alpha", "0.7", "--dump-state"],
    ["solve-pme", "--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0", "--steps", "4",
     "--cl-tol", "1e-2"],
    ["verify", "--p", "3", "--N", "0", "--M", "2", "--alpha", "1.3"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_json_files_hold_the_bytes_of_json_dump(tmp_path, monkeypatch, fmt):
    # ``_write_json`` writes once; every file it writes, the six reports
    # and the JSON tables among them, holds what json.dump writes chunk
    # by chunk
    written = []
    write_json = cli._write_json

    def recording(path, payload):
        write_json(path, payload)
        written.append((path, payload))

    monkeypatch.setattr(cli, "_write_json", recording)
    for argv in TASK_RUNS:
        assert main(argv + ["--format", fmt, "--out", str(tmp_path)]) == 0
    names = {os.path.basename(path) for path, _ in written}
    assert {"spectrum_report.json", "heat_kernel_report.json", "green_report.json",
            "linear_report.json", "pme_report.json", "verify_report.json"} <= names
    assert ("heat_kernel.json" in names) == (fmt == "json")
    for path, payload in written:
        want = io.StringIO()
        json.dump(payload, want, sort_keys=True, indent=2)
        want.write("\n")
        with open(path, "rb") as fh:
            assert fh.read() == want.getvalue().encode(), path


_FRESH_RUNS = """
import os, sys
out, warm = sys.argv[1], sys.argv[2] == "warm"
if warm:
    import mpmath
    mpmath.mp.dps = 50
import padic_heat, padic_heat.cli
from padic_heat.cli import main
runs = {runs!r}
for i, argv in enumerate(runs):
    assert main(argv + ["--out", os.path.join(out, str(i))]) == 0, argv
assert ("mpmath" in sys.modules) == warm
"""


def test_no_task_loads_mpmath(tmp_path):
    # a fresh interpreter runs the float64 tasks, heat-kernel and verify
    # on the series route's fixed-point integers at lambda*t <= 30, and
    # last heat-kernel at t = 50 (lambda*t = 33.3), without importing
    # mpmath.  Every file is the one a process writes that imported
    # mpmath, and set its global precision, first
    runs = [argv for argv in TASK_RUNS if argv[0] not in ("heat-kernel", "verify")]
    heat_kernel = next(argv for argv in TASK_RUNS if argv[0] == "heat-kernel")
    verify = next(argv for argv in TASK_RUNS if argv[0] == "verify")
    assert len(runs) == 4
    runs += [heat_kernel[:-1] + ["0.5"], verify, heat_kernel]
    script = _FRESH_RUNS.format(runs=runs)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for name in ("cold", "warm"):
        (tmp_path / name).mkdir()
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / name), name],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
    files = sorted(path.relative_to(tmp_path / "cold")
                   for path in (tmp_path / "cold").rglob("*") if path.is_file())
    assert len({path.parts[0] for path in files}) == len(runs)
    for path in files:
        assert (tmp_path / "cold" / path).read_bytes() == (tmp_path / "warm" / path).read_bytes()


MODEL_FLAGS = ["--p", "2", "--N", "0", "--M", "3", "--alpha", "1.0"]


def _drop_flag(argv, key):
    """argv without the flag of ``key`` and its value."""
    if "--" + key not in argv:
        return argv
    i = argv.index("--" + key)
    return argv[:i] + argv[i + 2:]

# (task, flags beyond MODEL_FLAGS, config object or None); a config key
# replaces the flag of the same name
MALFORMED_INPUTS = [
    ("spectrum", [], {"p": 2.9}),
    ("solve-pme", ["--steps", "2"], {"steps": 2.7}),
    ("heat-kernel", [], {"m_lo": -2.5}),
    ("solve-pme", [], {"steps": True}),
    ("spectrum", [], {"dump_matrix": "false"}),
    ("spectrum", [], {"out": 5}),
    ("solve-linear", [], {"initial": [1]}),
    ("solve-linear", ["--initial", "7"], None),
    ("solve-linear", ["--initial", '{"kind": "indicator", "center": "a"}'], None),
    ("solve-linear", ["--initial", '{"kind": "random", "seed": "x"}'], None),
    ("solve-pme", ["--steps", "2"], {"phi": {"kind": "table", "knots": 5}}),
    ("spectrum", ["--tol", "0"], None),
    ("spectrum", ["--tol", "-1"], None),
    ("solve-linear", ["--times", "", "--dump-state"], None),
    ("solve-pme", ["--steps", "2", "--cl-tol", "0"], None),
    # initial data: NaN exited 3, center 1.5 and radius_exp -1.5 ran on the
    # zero function or a truncated radius, center true ran as center 1
    ("solve-pme", ["--steps", "2", "--initial", '{"kind": "constant", "value": NaN}'], None),
    ("solve-pme", ["--steps", "2", "--initial", '{"kind": "indicator", "center": 1.5}'], None),
    ("solve-pme", ["--steps", "2", "--initial", '{"kind": "indicator", "radius_exp": -1.5}'],
     None),
    ("solve-pme", ["--steps", "2", "--initial", '{"kind": "indicator", "center": true}'], None),
    # ints past float range ended in an OverflowError traceback, and an N
    # within it hung forming p**(N+M)
    ("spectrum", ["--seed", "1" + "0" * 400], None),
    ("spectrum", [], {"p": 10 ** 400}),
    ("spectrum", ["--N", "9" * 400], None),
    ("spectrum", ["--N", "9" * 300], None),
]


@pytest.mark.parametrize("case", range(len(MALFORMED_INPUTS)))
def test_malformed_input_exits_1_with_one_json_line(tmp_path, capsys, monkeypatch, case):
    # each of these ran with a truncated or truthy value, exited 2, or
    # ended in a traceback
    task, flags, config = MALFORMED_INPUTS[case]
    argv = [task] + MODEL_FLAGS + flags
    if config is not None:
        for key in config:
            argv = _drop_flag(argv, key)
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "run.json")]
    if "out" not in (config or {}):
        argv += ["--out", str(tmp_path / "out")]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "validation"
    assert not list(work.iterdir())
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


# key -> (task, flags beyond MODEL_FLAGS, the key's flag string, its config value)
FLAG_AND_CONFIG = {
    "p": ("spectrum", [], "3", 3),
    "N": ("spectrum", [], "-1", -1),
    "M": ("spectrum", [], "2", 2),
    "alpha": ("spectrum", [], "0.7", 0.7),
    "out": ("spectrum", [], None, None),
    "seed": ("solve-linear", ["--initial", "random"], "7", 7),
    "tol": ("spectrum", [], "1e-8", 1e-8),
    "format": ("spectrum", [], "json", "json"),
    "dump_matrix": ("spectrum", [], None, True),
    "times": ("heat-kernel", [], "0.5,2", [0.5, 2]),
    "m_lo": ("heat-kernel", [], "-3", -3),
    "mu": ("green", [], "0.5,2", [0.5, 2.0]),
    "m_hi": ("green", [], "-1", -1),
    "initial": ("solve-linear", [], '{"kind": "bump", "radius_exp": -1}',
                {"kind": "bump", "radius_exp": -1}),
    "dump_state": ("solve-pme", ["--steps", "2"], None, True),
    "path": ("solve-linear", [], "kernel", "kernel"),
    "t": ("solve-pme", ["--steps", "2"], "0.3", 0.3),
    "steps": ("solve-pme", [], "3", 3),
    "phi": ("solve-pme", ["--steps", "2"], "power:3", {"kind": "power", "exponent": 3}),
    "cl_tol": ("solve-pme", ["--steps", "2"], "1e-2", 0.01),
    "record_every": ("solve-pme", ["--steps", "4"], "2", 2),
}


@pytest.mark.parametrize("key", list(cli.OPTIONS))
def test_flag_and_config_value_give_the_same_files(tmp_path, key):
    task, flags, flag_value, config_value = FLAG_AND_CONFIG[key]
    argv = [task] + _drop_flag(MODEL_FLAGS, key) + flags
    flag = "--" + key.replace("_", "-")
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    if key == "out":
        assert main(argv + [flag, str(by_flag)]) == 0
        config_value = str(by_config)
    else:
        given = [flag] if flag_value is None else [flag, flag_value]
        assert main(argv + given + ["--out", str(by_flag)]) == 0
        argv = argv + ["--out", str(by_config)]
    (tmp_path / "run.json").write_text(json.dumps({key: config_value}))
    assert main(argv + ["--config", str(tmp_path / "run.json")]) == 0
    names = sorted(f.name for f in by_flag.iterdir())
    assert names == sorted(f.name for f in by_config.iterdir())
    for name in names:
        assert (by_flag / name).read_bytes() == (by_config / name).read_bytes(), name


def _cli_mix_argv(seed):
    # the benchmark's in-process CLI calls, from perfbench/workloads.py
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.cli_invocations(seed, 100)


def test_a_task_parser_reads_what_the_full_parse_reads():
    # main hands argv[1:] of a task straight to that task's subparser;
    # it must read every flag as the top-level parse would
    parser = cli._build_parser()
    for argv in CACHED_PARSER_RUNS + _cli_mix_argv(1):
        full = vars(parser.parse_args(argv))
        task = vars(parser._task_parsers[argv[0]].parse_args(argv[1:]))
        assert dict(task, task=argv[0]) == full


@pytest.mark.parametrize("argv", [["solve-pme", "--steps"], ["solve-linear", "--bogus", "1"],
                                  ["no-such-task"], ["--alpha", "1", "spectrum"]])
def test_usage_errors_keep_the_full_parse_message(argv, capsys):
    with pytest.raises(cli.ValidationFailure) as exc:
        cli._build_parser().parse_args(argv)
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "message": str(exc.value), "exit_code": 1}


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: padic-heat "),
                                         (["solve-linear", "--help"],
                                          "usage: padic-heat solve-linear ")])
def test_help_prints_usage_and_exits_0(argv, usage, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(usage)
