import json
import math
import time
import tracemalloc
from pathlib import Path

import pytest

from recwalk import bounds, cli, verify, walk
from recwalk.cli import main
from recwalk.recurrence import PRESETS, SequenceWindow, generate

from expected_values import EXACT_TMIX, SEQUENCE_VALUES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_table_default_presets(capsys):
    code, out, err = run_cli(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "n,G_n[pow2],t_mix[pow2],G_n[pow3],t_mix[pow3],"
        "G_n[fib-odd],t_mix[fib-odd]"
    )
    assert len(lines) == 10
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert cells[0] == str(i)
        assert cells[1] == str(SEQUENCE_VALUES["pow2"][i - 1])
        assert cells[2] == str(EXACT_TMIX["pow2"][i - 1])
        assert cells[3] == str(SEQUENCE_VALUES["pow3"][i - 1])
        assert cells[4] == str(EXACT_TMIX["pow3"][i - 1])
        assert cells[5] == str(SEQUENCE_VALUES["fib-odd"][i - 1])
        assert cells[6] == str(EXACT_TMIX["fib-odd"][i - 1])


def test_table_writes_file_and_manifest(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "table", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("n,G_n[pow2]")
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == "table"
    assert len(manifest["spec_hash"]) == 64
    assert manifest["parameters"]["epsilon"] == "1/4"
    # the sidecar's hash is the one a JSON document embeds for the same --seq
    code, out, _ = run_cli(capsys, "table", "--format", "json", "--nmax", "1")
    assert json.loads(out)["manifest"]["spec_hash"] == manifest["spec_hash"]


def test_table_manifest_embedded_in_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json", "--nmax", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "table"
    rows = doc["table"]["pow2"]
    assert [r["t_mix"] for r in rows] == EXACT_TMIX["pow2"][:3]


def test_table_custom_sequence_json_spec(capsys):
    code, out, _ = run_cli(
        capsys,
        "table",
        "--seq",
        '{"coeffs": [2], "init": [1]}',
        "--nmax",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    (name,) = doc["table"].keys()
    assert [r["t_mix"] for r in doc["table"][name]] == EXACT_TMIX["pow2"][:4]


def test_mix_csv_curve(capsys):
    code, out, _ = run_cli(capsys, "mix", "--seq", "fib-odd", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,tv"
    assert len(lines) == 5  # t = 0..3 plus header
    assert lines[1].split(",")[1] == "0.875"


def test_mix_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, "mix", "--seq", "pow2", "--n", "5", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["t_mix"] == 3
    assert doc["N"] == 16
    assert doc["epsilon"] == "1/4"
    assert doc["tv_curve"][0]["tv"] == pytest.approx(1 - 1 / 16)


def test_mix_requires_exactly_one_sequence(capsys):
    code, _, err = run_cli(capsys, "mix", "--n", "3")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(
        capsys, "mix", "--seq", "pow2", "--seq", "pow3", "--n", "3"
    )
    assert code == 2


def test_mix_epsilon_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "mix", "--seq", "pow2", "--n", "5", "--epsilon", "1/20",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t_mix"] == 5
    assert doc["epsilon"] == "1/20"


def test_mix_rational_tie_is_exact(capsys):
    # TV(2) = 5/16 exactly; the float scan compared 0.3125000000000001
    # with float(5/16) and answered 3
    code, out, _ = run_cli(capsys, "mix", "--seq", "pow2", "--n", "5", "--epsilon", "5/16")
    assert code == 0
    assert out.strip().splitlines()[-1] == "2,0.3125"


def test_mix_epsilon_below_float_band_exits_fast(capsys):
    # fib-odd n = 9 leaves the int64 range after t = 19, where 1e-16 is
    # below the float band; the float scan once ran 10^6 steps here (60 s)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mix", "--seq", "fib-odd", "--n", "9", "--epsilon", "1e-16")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "error band" in err


def test_mix_slow_walk_below_float_band_exits_fast(capsys):
    # steps {1, 0} on Z_128 have SLEM cos(pi/128): TV <= 1e-12 needs about
    # 9.7e4 float steps, where the band is about 1.1e-11, so the scan
    # refuses before its first float step rather than after 10^5 of them.
    # Its t_low = 89,428 is under the row cap, which refuses the slower
    # walks (test_mix_past_row_cap_is_refused_fast).
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "mix", "--seq", '{"coeffs":[1,1],"init":[1,128]}',
        "--n", "2", "--epsilon", "1e-12",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "error band" in err


@pytest.mark.parametrize(
    "N, epsilon, t_low",
    [(4096, "1/4", 2_356_537), (100_000, "1/4", 1_402_025_788), (4096, "1e-9", 68_097_675)],
)
def test_mix_past_row_cap_is_refused_fast(capsys, N, epsilon, t_low):
    # steps {1, 0} on Z_N have TV(t) >= cos(pi/N)^t / 2, so t_mix >= t_low,
    # past the 2^18 rows a curve may hold: refused before any step, where
    # Z_4096 at 1/4 ran for more than a minute and Z_100000 would run for
    # years
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "mix", "--seq", f'{{"coeffs":[1,1],"init":[1,{N}]}}',
        "--n", "2", "--epsilon", epsilon,
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f">= {t_low}, by TV(t) >= |lambda_1|^t / 2" in err
    assert "at most 262144 rows" in err


def test_bad_epsilon_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mix", "--seq", "pow2", "--n", "3", "--epsilon", "3/2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_nan_eta1_rejected(capsys):
    # NaN or infinity would reach the JSON as a bare NaN/Infinity token,
    # which is not JSON
    for eta1 in ("nan", "inf"):
        code, out, err = run_cli(
            capsys, "bounds", "--seq", "pow2", "--n", "4", "--eta1", eta1
        )
        assert code == 2
        assert out == ""
        assert "eta_1 must exceed" in err


def test_state_space_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "mix", "--seq", "pow2", "--n", "26")  # N = 2^25
    assert code == 2
    assert "exceeds" in err


def test_spectrum_top_rows(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--seq", "pow2", "--n", "3", "--top", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,re,im,modulus"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "4"  # trivial eigenvalue leads
    assert float(first[3]) == pytest.approx(1.0)


@pytest.mark.parametrize("top", ["0", "-3"])
def test_spectrum_top_below_one_is_usage_error(capsys, top):
    code, out, err = run_cli(
        capsys, "spectrum", "--seq", "pow2", "--n", "3", "--top", top
    )
    assert code == 2
    assert out == ""
    assert "--top must be at least 1" in err


def test_bounds_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--seq", "pow2", "--n", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    report = doc["report"]
    assert report["exact_t_mix"] == 3
    assert report["c"] == 2
    assert report["ubl_implied_t"] == 3
    assert doc["manifest"]["parameters"]["n"] == 5


def test_bounds_at_tiny_epsilon_reports_first_order_upper(capsys):
    # log(4 eps^2 + 1) rounded to 0 here, and the command exited 2 with
    # "math domain error"
    code, out, _ = run_cli(
        capsys, "bounds", "--seq", "pow2", "--n", "5", "--epsilon", "1/1000000000",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert math.isfinite(report["upper_first_order"])
    assert report["exact_t_mix"] <= report["upper_first_order"]


def test_bounds_csv_two_rows(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--seq", "pow3", "--n", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    values = lines[1].split(",")
    assert len(header) == len(values)
    assert header[0] == "sequence_id"
    assert values[0] == "pow3"


# G_2 = 7 > s G_1 = 3: the spec breaks the hypothesis of the general bounds
UNBOUNDED_SPEC = '{"coeffs":[3,0],"init":[1,7]}'


def test_bounds_csv_absent_values_are_blank_cells(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--seq", UNBOUNDED_SPEC, "--n", "2", "--format", "csv"
    )
    assert code == 0
    header, values = (line.split(",") for line in out.strip().splitlines())
    row = dict(zip(header, values, strict=True))
    assert "None" not in values
    blank = {
        "kappa_general", "upper_general", "lower_general", "c",
        "kappa_first_order", "upper_first_order", "gamma_first_order",
        "lower_first_order",
    }
    assert {key for key, value in row.items() if value == ""} == blank
    assert row["exact_t_mix"] == "9"


def test_verify_names_the_first_unbounded_ratio(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seq", UNBOUNDED_SPEC, "--nmax", "2", "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    named = {
        suite["suite"]: suite["cases"]
        for suite in doc["suites"]
        if suite["suite"] in ("eigmod-bound", "angle-cover")
    }
    assert len(named) == 2
    for suite, (case,) in named.items():
        assert case["ratio_bounded"] is False, suite
        assert case["first_unbounded_j"] == 1, suite


def test_verify_all_suites_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--nmax", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["suites"]) == 5


def test_verify_accepts_the_sweep_windows(capsys):
    # the benchmark's sweep runs `verify --suite all --nmax 12`, which the
    # up-front window checks must accept
    code, out, _ = run_cli(capsys, "verify", "--nmax", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_single_suite_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "lifting", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,passed,metric,worst_slack"
    assert lines[1].startswith("lifting,True,max_error,")


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_without_windows_is_usage_error(capsys):
    assert main(["verify", "--nmax", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no windows" in err


@pytest.mark.parametrize(
    "spec",
    [
        # s = 10^20: (s + 1) r overflowed int64 with a traceback
        '{"coeffs":[100000000000000000000,-199999999999999999000],"init":[1,2]}',
        # s = 10^16, N = 1000: (s + 1) r wrapped silently for r >= 923
        '{"coeffs":[10000000000000000,-19999999999999000],"init":[1,2]}',
    ],
)
def test_angle_cover_past_int64_range_is_usage_error(capsys, spec):
    argv = ["verify", "--seq", spec, "--suite", "angle-cover", "--nmax", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "(s + 1) N" in err


def _no_suite_may_run(monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    for name in verify.SUITE_NAMES:
        monkeypatch.setattr(verify, name.replace("-", "_") + "_suite", no_suite)


@pytest.mark.parametrize(
    "argv, message",
    [
        # pow3 n = 21 has N = 3^20, past the engine's int64 reductions; the
        # suites streamed for 43.6 s before the refusal came mid-run
        (["--nmax", "26"], "int64 reduction range"),
        # only ubl-consistency, the last suite, is capped: pow3 n = 17 has
        # N = 3^16, past 2^24
        (["--nmax", "17"], "dense cap"),
        # angle-cover, the second suite, refuses the n = 3 window, N = 1000
        (
            ["--seq", '{"coeffs":[10000000000000000,-19999999999999000],"init":[1,2]}',
             "--nmax", "3"],
            "(s + 1) N",
        ),
        # eigmod-bound streamed 42.7 s here: pow3 n = 20 alone is
        # (3^19 // 2) 19 engine terms, past the budget
        (["--suite", "eigmod-bound", "--nmax", "20"], "the budget is 2147483648"),
        # angle-cover streamed 60.5 s here
        (["--suite", "angle-cover", "--seq", "pow3", "--nmax", "19"],
         "the budget is 1073741824"),
    ],
)
def test_verify_refuses_windows_before_any_suite(capsys, monkeypatch, argv, message):
    _no_suite_may_run(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert message in err


def test_verify_budget_pass_is_linear_in_nmax(capsys, monkeypatch):
    # G_i = i: every window made from scratch, once for the checks and once
    # for the sum, took 9.2 s to refuse
    _no_suite_may_run(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--seq", '{"coeffs":[2,-1],"init":[1,2]}',
        "--suite", "eigmod-bound", "--nmax", "3000",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "the budget is 2147483648" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # the refusal tried to print the 6,021-digit N and exited on
        # Python's 4300-digit limit for integer string conversion
        (["mix", "--seq", "pow2", "--n", "20000"],
         "G_26 = 33554432 exceeds the dense cap 16777216"),
        (["spectrum", "--seq", "pow2", "--n", "20000", "--top", "3"],
         "G_26 = 33554432 exceeds the dense cap 16777216"),
        # the window alone took 679 MiB before the refusal
        (["mix", "--seq", "pow2", "--n", "100000"], "dense cap"),
        # growth was estimated before the int64 guard: 2.6 s and 59.6 s
        (["bounds", "--seq", "fib-odd", "--n", "8000"],
         "G_24 = 4807526976 exceeds the exact int64 reduction range 3037000499"),
        (["bounds", "--seq", "fib-odd", "--n", "30000"], "int64 reduction range"),
    ],
)
def test_oversized_window_refused_while_generated(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert message in err


def test_engine_tables_past_dense_cap_refused_fast(capsys):
    # G_i = i at n = 2^17: 131,071 root tables of 512 entries, 2^26 complex
    # entries (1 GiB), would be built before the first block
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", "--seq", '{"coeffs":[2,-1],"init":[1,2]}',
                             "--n", "131072", "--top", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "root tables" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # G_i = i: the whole window was made, 3.5 s and 167 MiB (one pinned
        # CPU), before the engine's table check refused it
        (["--seq", '{"coeffs":[2,-1],"init":[1,2]}', "--n", "3000000"],
         "n = 3000000 exceeds 65537, the most steps whose engine root tables"),
        # a window that leaves the int64 range first keeps that refusal
        (["--seq", "pow2", "--n", "100000"],
         "G_33 = 4294967296 exceeds the exact int64 reduction range 3037000499"),
    ],
)
def test_bounds_refuses_steps_past_the_tables_before_the_window(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # G_i = i: the whole window of 2^24 terms was made, 17.9 s and
        # 799 MiB (one pinned CPU), before the engine's table check refused it
        (["--seq", '{"coeffs":[2,-1],"init":[1,2]}', "--n", "16777216", "--top", "1"],
         "n = 16777216 exceeds 65537, the most steps whose engine root tables"),
        # a window that passes the dense cap first keeps that refusal
        (["--seq", "pow2", "--n", "100000", "--top", "3"],
         "G_26 = 33554432 exceeds the dense cap 16777216"),
    ],
)
def test_spectrum_refuses_steps_past_the_tables_before_the_window(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("seq, n", [("pow2", "5"), ("fib-odd", "2")])
@pytest.mark.parametrize("epsilon", ["1/2", "3/4"])
def test_bounds_refuses_epsilon_past_one_half_before_any_spectrum(
    capsys, monkeypatch, seq, n, epsilon
):
    # which bound refused, and with which interval, hung on the spec and n:
    # pow2 n = 5 at 3/4 read "(0, 1/2]", and fib-odd n = 2 first ran the scan
    def nothing_may_run(*args, **kwargs):
        raise AssertionError("a spectrum or scan ran")

    for name in ("half_spectrum", "slem_streaming"):
        monkeypatch.setattr(bounds, name, nothing_may_run)
    monkeypatch.setattr(walk, "mixing_time", nothing_may_run)
    code, out, err = run_cli(capsys, "bounds", "--seq", seq, "--n", n, "--epsilon", epsilon)
    assert (code, out) == (2, "")
    want = "0.5" if epsilon == "1/2" else "0.75"
    assert f"error: epsilon must be in (0, 1/2), got {want}\n" == err


def test_prefix_windows_take_n_from_their_values(capsys, monkeypatch):
    assert SequenceWindow._fields == ("spec", "values")
    seen = []
    scan = walk.mixing_time

    def recording(window, epsilon):
        seen.append(window)
        return scan(window, epsilon)

    monkeypatch.setattr(cli.walk, "mixing_time", recording)
    assert run_cli(capsys, "table", "--nmax", "5")[0] == 0
    assert [w.n for w in seen] == [1, 2, 3, 4, 5] * 3
    prefixes = [w for _, w in verify._preset_windows(dict(PRESETS), 6)]
    assert [w.n for w in prefixes] == [2, 3, 4, 5, 6] * 3
    for window in seen + prefixes:
        assert window.n == len(window.values)
        assert window == generate(window.spec, window.n)


def test_scans_past_int64_take_the_paper_bound_not_the_engine(capsys, monkeypatch):
    # both leave int64 (21^15 > 2^63), and the paper's bound on the SLEM
    # puts epsilon above the float band wherever the scan may need to go;
    # on the steps {1, 0} of Z_7, G_2 = 7 > s G_1 = 3, but s* = 7 off the
    # steps bounds the SLEM all the same
    def no_engine(window):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(walk, "slem_streaming", no_engine)
    for seq, n, t_mix in (("pow2", 21, 224), ('{"coeffs":[3,0],"init":[1,7]}', 2, 217)):
        code, out, _ = run_cli(capsys, "mix", "--seq", seq, "--n", str(n), "--epsilon", "1e-10")
        assert code == 0
        assert out.splitlines()[-1].startswith(f"{t_mix},")
    for name, n, t_mix in (("pow2", 21, 15), ("pow3", 13, 17)):
        code, out, _ = run_cli(capsys, "bounds", "--seq", name, "--n", str(n))
        assert code == 0
        assert json.loads(out)["report"]["exact_t_mix"] == t_mix


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_table_without_rows_is_usage_error(capsys, nmax):
    assert main(["table", "--nmax", nmax]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "no rows" in err


def test_table_past_dense_cap_refused_before_any_scan(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a mixing time was scanned")

    monkeypatch.setattr(cli.walk, "mixing_time", no_scan)
    # pow2 n = 26 has N = 2^25; scanning n = 1..25 first took 8.6 s
    code, out, err = run_cli(capsys, "table", "--nmax", "26")
    assert code == 2
    assert out == ""
    assert "dense cap" in err


@pytest.mark.parametrize("command", ["table", "verify"])
def test_preset_given_twice_is_usage_error(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--seq", "pow2", "--seq", "pow3", "--seq", "pow2",
        "--nmax", "2", "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert "--seq pow2 is given twice" in err


def test_simulate_deterministic_output(capsys):
    argv = (
        "simulate", "--seq", "pow3", "--n", "2",
        "--tmax", "3", "--trajectories", "20000", "--seed", "9",
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.strip().splitlines()
    assert lines[0] == "t,empirical_tv,num_trajectories,seed"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == pytest.approx(2 / 3, abs=1e-12)


def test_simulate_seed_changes_output(capsys):
    base = (
        "simulate", "--seq", "pow3", "--n", "3",
        "--tmax", "4", "--trajectories", "5000",
    )
    _, out_a, _ = run_cli(capsys, *base, "--seed", "1")
    _, out_b, _ = run_cli(capsys, *base, "--seed", "2")
    assert out_a != out_b


def test_generation_failure_maps_to_exit_2(capsys):
    # a sequence that stops increasing, and coefficients that are no integers
    for spec in (
        '{"coeffs": [1], "init": [1]}',
        '{"coeffs": [2.5], "init": [1]}',
        '{"coeffs": [true, true], "init": [1, 2]}',
    ):
        code, out, err = run_cli(capsys, "table", "--seq", spec, "--nmax", "4")
        assert code == 2
        assert out == ""
        assert "error" in err


def test_simulate_trajectories_past_cap_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--seq", "pow3", "--n", "3",
        "--trajectories", str(2**24 + 1),
    )
    assert code == 2
    assert out == ""
    assert "trajectories" in err


def test_simulate_tmax_past_row_limit_is_usage_error(capsys, monkeypatch):
    def no_steps(*args, **kwargs):
        raise AssertionError("the walk was simulated")

    monkeypatch.setattr(cli, "simulate_tv", no_steps)
    code, out, err = run_cli(
        capsys,
        "simulate", "--seq", "pow3", "--n", "3", "--trajectories", "1",
        "--tmax", str(2**18),
    )
    assert code == 2
    assert out == ""
    assert "t_max must be in 0..262143" in err


def test_simulate_work_past_cap_is_usage_error(capsys, monkeypatch):
    # 2^24 trajectories for 2^18 - 1 steps: 4.4e12 trajectory-steps
    def no_steps(*args, **kwargs):
        raise AssertionError("the walk was simulated")

    monkeypatch.setattr(cli, "simulate_tv", no_steps)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "simulate", "--seq", "pow3", "--n", "3",
        "--trajectories", "16777216", "--tmax", "262143",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "trajectories * t_max must be at most 2147483648" in err


def test_simulate_refuses_n_past_limit_while_generating(capsys, monkeypatch):
    # N = 2^62 at n = 63: the window stops there rather than making
    # 100,000 terms, which once took 1.46 s and a 682 MiB peak
    def no_steps(*args, **kwargs):
        raise AssertionError("the walk was simulated")

    monkeypatch.setattr(cli, "simulate_tv", no_steps)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys,
        "simulate", "--seq", "pow2", "--n", "100000", "--trajectories", "10",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert ("G_63 = 4611686018427387904 exceeds the simulation limit "
            "4611686018427387903 on N = G_100000") in err


def test_simulate_limit_is_two_to_the_62_minus_one(capsys):
    spec = '{"coeffs": [1, 1], "init": [1, 4611686018427387903]}'
    code, out, err = run_cli(
        capsys, "simulate", "--seq", spec, "--n", "2", "--tmax", "1",
        "--trajectories", "10",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["0,1.0,10,0", "1,1.0,10,0"]
    code, out, err = run_cli(capsys, "simulate", "--seq", spec, "--n", "3")
    assert code == 2
    assert out == ""
    assert "G_3 = 4611686018427387904 exceeds the simulation limit" in err


@pytest.mark.parametrize("cap", [2**24 + 1, 0])
def test_nmax_states_outside_dense_cap_is_usage_error(capsys, monkeypatch, cap):
    def no_report(*args, **kwargs):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(bounds, "build_report", no_report)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--seq", "pow2", "--n", "3",
                  "--nmax-states", str(cap)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "--nmax-states must be in 1..16777216" in err
    assert peak < 2**20


# The options each command declares, by argparse destination: 35 in all,
# where every command once took seven shared options (52).
DECLARED = {
    "table": {"seq", "out", "format", "epsilon", "nmax"},
    "spectrum": {"seq", "out", "format", "n", "top"},
    "mix": {"seq", "out", "format", "epsilon", "n"},
    "bounds": {"seq", "out", "format", "epsilon", "nmax_states", "n", "eta1"},
    "verify": {"seq", "out", "format", "epsilon", "suite", "nmax"},
    "simulate": {"seq", "out", "format", "n", "tmax", "trajectories", "seed"},
}

# One cheap run of each command; its output in each format is pinned in
# tests/golden byte for byte, the manifest's timestamp line left out.
CHEAP_RUNS = {
    "table": ["--nmax", "2"],
    "spectrum": ["--seq", "pow2", "--n", "3"],
    "mix": ["--seq", "pow2", "--n", "3"],
    "bounds": ["--seq", "pow2", "--n", "3"],
    "verify": ["--suite", "eigmod-bound", "--nmax", "2"],
    "simulate": ["--seq", "pow3", "--n", "2", "--tmax", "2", "--trajectories", "100"],
}
# The simulator's walker measurements, which CHEAP_RUNS's simulate (a
# histogram chain) does not reach: a histogram of the walkers (N <= T) and
# a count of their distinct positions (N > T).
WALKER_RUNS = {
    "simulate-walkers": ["--seq", "pow3", "--n", "9", "--trajectories", "20000",
                         "--tmax", "5"],
    "simulate-sparse": ["--seq", "pow3", "--n", "14", "--trajectories", "3000",
                        "--tmax", "5"],
}
GOLDEN = Path(__file__).parent / "golden"


def _declared_destinations(command):
    (subparsers,) = [
        a for a in cli._build_parser()._actions if a.dest == "command"
    ]
    return {a.dest for a in subparsers.choices[command]._actions} - {"help"}


@pytest.mark.parametrize("command", sorted(DECLARED))
def test_each_command_declares_only_what_it_reads(command):
    assert _declared_destinations(command) == DECLARED[command]


@pytest.mark.parametrize("command", sorted(DECLARED))
def test_manifest_parameters_are_the_declared_options(capsys, command):
    code, out, _ = run_cli(capsys, command, *CHEAP_RUNS[command], "--format", "json")
    assert code == 0
    params = json.loads(out)["manifest"]["parameters"]
    assert set(params) == {"sequences"} | DECLARED[command] - {"seq", "out"}


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--eta1", "3"],
        ["table", "--seed", "1"],
        ["table", "--nmax-states", "5"],
        ["spectrum", "--seq", "pow2", "--n", "3", "--epsilon", "1/8"],
        ["spectrum", "--seq", "pow2", "--n", "3", "--eta1", "3"],
        ["spectrum", "--seq", "pow2", "--n", "3", "--seed", "1"],
        ["spectrum", "--seq", "pow2", "--n", "3", "--nmax-states", "5"],
        ["mix", "--seq", "pow2", "--n", "3", "--eta1", "3"],
        ["mix", "--seq", "pow2", "--n", "3", "--seed", "1"],
        ["mix", "--seq", "pow2", "--n", "3", "--nmax-states", "5"],
        ["bounds", "--seq", "pow2", "--n", "3", "--seed", "1"],
        ["verify", "--eta1", "3"],
        ["verify", "--seed", "1"],
        ["verify", "--nmax-states", "5"],
        ["simulate", "--seq", "pow3", "--n", "2", "--epsilon", "1/8"],
        ["simulate", "--seq", "pow3", "--n", "2", "--eta1", "3"],
        ["simulate", "--seq", "pow3", "--n", "2", "--nmax-states", "5"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_option_the_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"unrecognized arguments: {argv[-2]}" in err


def test_spectrum_listing_past_row_limit_needs_top(capsys, monkeypatch):
    def no_spectrum(*args, **kwargs):
        raise AssertionError("the spectrum was computed")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "full_spectrum", no_spectrum)
        # N = 2^19 rows, and a --top above 2^18 asks for as many
        for extra in ([], ["--top", str(2**18 + 1)]):
            code, out, err = run_cli(
                capsys, "spectrum", "--seq", "pow2", "--n", "20", *extra
            )
            assert code == 2
            assert out == ""
            assert "--top" in err
    code, out, _ = run_cli(capsys, "spectrum", "--seq", "pow2", "--n", "20", "--top", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 6


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(CHEAP_RUNS))
def test_output_bytes_are_pinned(capsys, command, fmt):
    _assert_pinned(capsys, [command, *CHEAP_RUNS[command]], command, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(WALKER_RUNS))
def test_walker_output_bytes_are_pinned(capsys, name, fmt):
    _assert_pinned(capsys, ["simulate", *WALKER_RUNS[name]], name, fmt)


def _assert_pinned(capsys, argv, name, fmt):
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    lines = out.splitlines(keepends=True)
    kept = [line for line in lines if '"timestamp": ' not in line]
    assert len(lines) - len(kept) == (fmt == "json")
    assert "".join(kept) == (GOLDEN / f"{name}.{fmt}").read_text()


@pytest.mark.parametrize("fmt, per_row", [("csv", 96), ("json", 512)])
def test_spectrum_listing_memory_per_row(tmp_path, fmt, per_row):
    # N = 2^14 rows into a file: CSV rows are written as they are formatted
    # (37 bytes a row), JSON holds one dict a row for the encoder but not
    # the document (333); as one string they took 388 and 1273
    argv = ["spectrum", "--seq", "pow2", "--format", fmt, "--out", str(tmp_path / "eig")]
    assert main([*argv, "--n", "3"]) == 0  # imports and caches, unmeasured
    tracemalloc.start()
    try:
        assert main([*argv, "--n", "15"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < per_row * 2**14


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seq", "pow3", "--n", "3", "--trajectories", "1", "--tmax", "16383"],
        ["mix", "--seq", '{"coeffs":[1,1],"init":[1,200]}', "--n", "2", "--epsilon", "1/2"],
    ],
)
def test_csv_curve_memory_per_row(tmp_path, argv):
    # 2^14 and 2392 rows into a file: the curve is held (116 and 105 bytes
    # a row) and its CSV rows are written as they are formatted; building
    # the JSON dicts too took 307 and 277
    out = tmp_path / "curve"
    assert main([*argv, "--out", str(out)]) == 0  # imports and caches, unmeasured
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = len(out.read_text().splitlines()) - 1
    assert peak < 192 * rows


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--seq", "pow2", "--n", "15"],
        ["simulate", "--seq", "pow3", "--n", "3", "--trajectories", "1", "--tmax", "16383"],
        ["mix", "--seq", '{"coeffs":[1,1],"init":[1,200]}', "--n", "2", "--epsilon", "1/2"],
    ],
)
def test_json_listing_memory_per_row(tmp_path, argv):
    # 2^14, 2^14 and 2392 rows into a file: each row's dict is made as the
    # encoder reads it (40, 128 and 164 bytes a row, the curves held);
    # a list of the dicts took 334, 319 and 350
    out = tmp_path / "listing"
    argv = [*argv, "--format", "json", "--out", str(out)]
    assert main(argv) == 0  # imports and caches, unmeasured
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    doc = json.loads(out.read_text())
    rows = len(doc.get("eigenvalues") or doc.get("curve") or doc["tv_curve"])
    assert peak < 192 * rows
