import json
import time

import numpy as np
import pytest

from zcdft import cli, transform
from zcdft.cli import main
from zcdft.pattern import export_pattern, flip_conjugate, flip_dft, make_pattern
from zcdft.sequences import ZcParams
from zcdft.transform import IDFT, execute, plan, zc_time
from zcdft.verify import ALL_CHECKS

from test_gauss import BRUTE_13_3


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv_sequence(text):
    lines = text.strip().split("\n")
    assert lines[0] == "k,re,im"
    ks, values = [], []
    for line in lines[1:]:
        k, re, im = line.split(",")
        ks.append(int(k))
        values.append(complex(float(re), float(im)))
    assert ks == list(range(len(ks)))
    return np.asarray(values)


def test_gen_csv_first_row(capsys):
    code, out = run_cli(capsys, "gen", "--p", "13", "--u", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,re,im"
    assert lines[1] == "0,1,0"
    assert len(lines) == 14


def test_gen_csv_round_trips_bit_exactly(capsys):
    _, out = run_cli(capsys, "gen", "--p", "61", "--u", "7", "--ts", "5")
    parsed = parse_csv_sequence(out)
    assert np.array_equal(parsed, zc_time(ZcParams(p=61, u=7, ts=5)))


def test_gen_json_round_trips_bit_exactly(capsys):
    _, out = run_cli(capsys, "gen", "--p", "13", "--u", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["p"] == 13 and payload["u"] == 3 and payload["ts"] == 0
    parsed = np.asarray([complex(re, im) for re, im in payload["samples"]])
    assert np.array_equal(parsed, zc_time(ZcParams(p=13, u=3)))


def test_gen_rejects_composite_length(capsys):
    # 2147483659 is prime but not below the 2**31 cap: a usage error, not a traceback
    for p in ("4", "2147483659"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--p", p, "--u", "1"])
        assert exc.value.code == 2


def test_gen_rejects_out_of_range_root(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--p", "13", "--u", "13"])
    assert exc.value.code == 2


def test_gen_writes_file(tmp_path, capsys):
    out_file = tmp_path / "seq.csv"
    code, out = run_cli(capsys, "gen", "--p", "13", "--u", "3", "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text().startswith("k,re,im\n0,1,0\n")


def test_dft_fast_bin0(capsys):
    _, out = run_cli(capsys, "dft", "--p", "13", "--u", "3", "--method", "fast")
    parsed = parse_csv_sequence(out)
    assert parsed[0] == pytest.approx(BRUTE_13_3, abs=1e-12)


@pytest.mark.parametrize("method", ["reference", "naive"])
def test_dft_methods_agree_with_fast(capsys, method):
    _, fast = run_cli(capsys, "dft", "--p", "13", "--u", "3")
    _, other = run_cli(capsys, "dft", "--p", "13", "--u", "3", "--method", method)
    delta = np.abs(parse_csv_sequence(fast) - parse_csv_sequence(other)).max()
    assert delta <= 1e-9 * np.sqrt(13)


def test_naive_method_rejects_a_length_past_the_oracle_limit(capsys):
    # 39209, the first prime past the oracle's PMAX = 39205: a usage error
    # before any sample is made
    for command in ("dft", "idft"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--p", "39209", "--u", "25", "--method", "naive"])
        assert exc.value.code == 2
        assert "p <= 39205" in capsys.readouterr().err


def test_idft_normalize_divides_by_p(capsys):
    _, raw = run_cli(capsys, "idft", "--p", "13", "--u", "3")
    _, normed = run_cli(capsys, "idft", "--p", "13", "--u", "3", "--normalize")
    assert np.array_equal(parse_csv_sequence(normed), parse_csv_sequence(raw) / 13)


@pytest.mark.parametrize("method", ["reference", "naive"])
def test_idft_naive_matches_fast(capsys, method):
    _, fast = run_cli(capsys, "idft", "--p", "29", "--u", "11", "--ts", "3")
    _, other = run_cli(capsys, "idft", "--p", "29", "--u", "11", "--ts", "3", "--method", method)
    delta = np.abs(parse_csv_sequence(fast) - parse_csv_sequence(other)).max()
    assert delta <= 1e-9 * np.sqrt(29)


def test_pattern_default_matches_library(capsys):
    _, out = run_cli(capsys, "pattern", "--p", "13", "--u", "3")
    assert out == export_pattern(make_pattern(13, -3))
    assert out.startswith("t,f,orientation\n0,0,obverse\n1,-3,obverse\n")


def test_pattern_flip_dft_is_reverse_side(capsys):
    _, out = run_cli(capsys, "pattern", "--p", "13", "--u", "3", "--flip", "dft")
    assert out == export_pattern(flip_dft(make_pattern(13, -3)))
    assert ",reverse" in out


def test_pattern_flip_composition(capsys):
    _, out = run_cli(capsys, "pattern", "--p", "13", "--u", "3", "--flip", "dft,conj")
    assert out == export_pattern(flip_conjugate(flip_dft(make_pattern(13, -3))))
    assert ",obverse" in out


def test_pattern_rejects_unknown_flip(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pattern", "--p", "13", "--u", "3", "--flip", "rotate"])
    assert exc.value.code == 2


def test_verify_small_grid_passes(capsys):
    code, out = run_cli(capsys, "verify", "--pmax", "31")
    assert code == 0
    families = [line for line in out.splitlines() if line.startswith("[PASS]")]
    assert len(families) >= 12
    assert "[FAIL]" not in out


def test_verify_json_lists_every_family_with_its_time(capsys):
    code, out = run_cli(capsys, "verify", "--pmax", "13", "--json")
    assert code == 0
    results = json.loads(out)
    names = [c.__name__.removeprefix("check_").replace("_", "-") for c in ALL_CHECKS]
    assert [r["name"] for r in results] == names
    for r in results:
        assert list(r) == ["name", "passed", "max_error", "detail", "seconds"]
        assert r["passed"] is True and r["seconds"] > 0
    code, out = run_cli(capsys, "verify", "--pmax", "13", "--inject-fault", "--json")
    assert code == 1
    failed = [r["name"] for r in json.loads(out) if not r["passed"]]
    assert failed == ["fast-dft-vs-naive"]


def test_verify_rejects_grid_without_both_branches(capsys):
    for pmax in ("3", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--pmax", pmax])
        assert exc.value.code == 2


def test_verify_rejects_grid_past_the_oracle_limit(capsys):
    # the transform families run the O(p^2) oracle at every prime up to --pmax
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--pmax", "39209"])
    assert exc.value.code == 2
    assert "at most 39205" in capsys.readouterr().err


def test_verify_detects_injected_fault(capsys):
    code, out = run_cli(capsys, "verify", "--pmax", "13", "--inject-fault")
    assert code == 1
    assert "[FAIL] fast-dft-vs-naive" in out


def test_verify_pmax61_under_ten_seconds(capsys):
    start = time.perf_counter()
    code, _ = run_cli(capsys, "verify", "--pmax", "61")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0


def test_bench_report_schema_and_counts(capsys, monkeypatch):
    # naive_ns and naive_build_ns are timed up to cli._NAIVE_PMAX, so 8209
    # has them; a store bounded to 139's entry keeps 139 and leaves 8209
    # factored, one block, with no entry_bytes or entry_build_ns; gather_ns
    # times the counted path's blocked gather (_gather_phases) at both, and
    # zc_time_ns takes the kept route at 139 and the formula route at 8209
    store = transform._LengthStore(transform._entry_bytes(139))
    monkeypatch.setattr(transform, "_STORE", store)
    code, out = run_cli(capsys, "bench", "--p", "139", "--p", "8209", "--u", "25", "--reps", "2")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["p"] for r in reports] == [139, 8209]
    for report in reports:
        p = report["p"]
        assert list(report) == [
            "p",
            "u",
            "reps",
            "params_ns",
            "plan_ns",
            "fast_ns",
            "phase_ns",
            "gather_ns",
            "reference_ns",
            "naive_ns",
            "additions",
            "modulo_reductions",
            "exp_evaluations",
            "table_bytes",
            "entry_bytes",
            "entry_build_ns",
            "naive_build_ns",
            "naive_faults",
            "fast_faults",
            "zc_time_ns",
            "fft_ns",
        ]
        assert report["u"] == 25 and report["reps"] == 2
        assert report["additions"] == 2 * (p - 1)
        assert report["modulo_reductions"] == 2 * (p - 1)
        assert report["exp_evaluations"] == p
        assert 0 < report["fast_ns"] < report["naive_ns"]
        assert report["phase_ns"] > 0 and report["gather_ns"] > 0
        assert report["params_ns"] > 0 and report["plan_ns"] > 0
        assert report["zc_time_ns"] > 0 and report["fft_ns"] > 0
    m = transform._split(8209)
    assert [r["table_bytes"] for r in reports] == [400, 16 * (m + -(-8209 // m))]
    assert [r["entry_bytes"] for r in reports] == [transform._entry_bytes(139), None]
    assert reports[0]["entry_build_ns"] > 0 and reports[1]["entry_build_ns"] is None
    assert all(r["naive_build_ns"] > 0 for r in reports)
    assert all(r["naive_faults"] >= 0 and r["fast_faults"] >= 0 for r in reports)


def test_build_keys_are_the_fastest_of_reps_builds(monkeypatch):
    # three builds of 30, 10 and 50 ns on a fake clock
    clock = iter([0, 30, 100, 110, 200, 250])
    monkeypatch.setattr(cli.time, "perf_counter_ns", lambda: next(clock))
    built = []
    assert cli._build_ns(built.append, 139, 3) == 10
    assert built == [139] * 3


def test_bench_default_root_fits_every_length(capsys):
    # the default root is min(25, p - 1) per --p, so lengths below 26 run
    code, out = run_cli(capsys, "bench", "--p", "5", "--p", "13", "--reps", "1")
    assert code == 0
    assert [json.loads(line)["u"] for line in out.splitlines()] == [4, 12]


def test_bench_report_keeps_naive_key_as_null_above_its_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_NAIVE_PMAX", 100)
    code, out = run_cli(capsys, "bench", "--p", "97", "--p", "139", "--reps", "1")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    for key in ("naive_ns", "naive_build_ns"):
        assert reports[0][key] > 0 and reports[1][key] is None
    assert reports[0]["naive_faults"] >= 0 and reports[1]["naive_faults"] is None


def test_cli_outputs_are_deterministic(capsys):
    _, first = run_cli(capsys, "dft", "--p", "61", "--u", "9", "--ts", "2")
    _, second = run_cli(capsys, "dft", "--p", "61", "--u", "9", "--ts", "2")
    assert first == second
    _, pat1 = run_cli(capsys, "pattern", "--p", "61", "--u", "9", "--flip", "idft")
    _, pat2 = run_cli(capsys, "pattern", "--p", "61", "--u", "9", "--flip", "idft")
    assert pat1 == pat2


def test_file_output_equals_stdout_and_memory(tmp_path, capsys):
    out_file = tmp_path / "dft.csv"
    run_cli(capsys, "dft", "--p", "13", "--u", "3", "--out", str(out_file))
    parsed = parse_csv_sequence(out_file.read_text())
    in_memory = execute(plan(ZcParams(p=13, u=3), "dft"))
    assert np.array_equal(parsed, in_memory)


def test_idft_file_round_trip(tmp_path, capsys):
    out_file = tmp_path / "idft.csv"
    run_cli(capsys, "idft", "--p", "13", "--u", "3", "--normalize", "--out", str(out_file))
    parsed = parse_csv_sequence(out_file.read_text())
    expected = execute(plan(ZcParams(p=13, u=3), IDFT)) / 13
    assert np.array_equal(parsed, expected)
