import argparse
import csv
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dfsqst import cli
from dfsqst.cli import _build_parser, parse_config, main
from dfsqst.fidelity import RegisterElements


def _option_values(action):
    """Values of one option's own type, floats including nan, +-inf and extremes."""
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is int:
        # sizes kept small so that a valid sweep stays cheap
        top = 4 if action.dest == "ratio_steps" else 21
        return st.one_of(st.sampled_from([1, 2, 3]), st.integers(-3, top))
    extremes = [0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e-3, 0.5, 1.0, 1e300,
                1.7976931348623157e308, -1.0, math.nan, math.inf, -math.inf]
    floats = st.one_of(st.sampled_from(extremes), st.floats())
    if action.dest == "time":
        return st.one_of(st.just("tau"), st.just("soon"), floats)
    return floats


def _argv(command, required=()):
    """(argv, config) pairs from the parser's own options of `command`.

    argv holds the `required` flags and some others, with values of the
    flag's type; config is a --config object whose values are of the
    option's type or any JSON type.
    """
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    options = {a.dest: a for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config", "output_path")}

    def values(action):
        if action.nargs == 0:
            return st.booleans()
        if action.nargs == "+":
            return st.lists(_option_values(action), min_size=1, max_size=2)
        return _option_values(action)

    def flag(action):
        if action.nargs == 0:
            return st.just([action.option_strings[0]])
        return values(action).map(lambda v: [action.option_strings[0], *map(
            str, v if isinstance(v, list) else [v])])

    others = sorted(set(options) - set(required))
    flags = st.lists(st.sampled_from(others), unique=True, max_size=3).flatmap(
        lambda dests: st.tuples(*(flag(options[d]) for d in [*required, *dests])))
    junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 21), st.just(10 ** 400),
                     st.floats(), st.text(max_size=3), st.lists(st.integers(-3, 21), max_size=3))
    config = st.lists(st.sampled_from(sorted(options)), unique=True, max_size=2).flatmap(
        lambda keys: st.fixed_dictionaries(
            {k: st.one_of(values(options[k]), junk) for k in keys}))
    return st.tuples(flags, config).map(
        lambda fc: ([command] + [tok for f in fc[0] for tok in f], fc[1]))


def _run(argv, config, call):
    """Call `call(argv)` with `config` written to a --config file, output captured."""
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = argv + ["--config", path]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                return call(argv), out.getvalue()
            except SystemExit as exc:
                return exc, out.getvalue()


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["sweep"])
        assert cfg.command == "sweep"
        assert cfg.n == 2
        assert cfg.channel_lengths == [101, 151, 201]
        assert cfg.ratio_min == 1e-3 and cfg.ratio_max == 1.0
        assert cfg.ratio_steps == 40
        assert cfg.encoding == "both"
        assert cfg.time == "tau"
        assert cfg.sigma_lambda == 0.0
        assert cfg.shots == 200
        assert cfg.seed == 42
        assert cfg.format == "csv"

    def test_flags(self):
        cfg = parse_config(["sweep", "--channel-lengths", "101",
                            "--ratio-steps", "10"])
        assert cfg.channel_lengths == [101]
        assert cfg.ratio_steps == 10

    def test_even_channel_length_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--channel-lengths", "100"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_time_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--time", "soon"])
        assert exc.value.code == 2

    def test_explicit_time_parsed(self):
        cfg = parse_config(["sweep", "--time", "12.5"])
        assert cfg.time == 12.5

    def test_config_file_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"ratio_steps": 7, "seed": 9}))
        cfg = parse_config(["sweep", "--config", str(cfg_file)])
        assert cfg.ratio_steps == 7 and cfg.seed == 9
        # explicit flag wins over the file
        cfg = parse_config(["sweep", "--config", str(cfg_file), "--seed", "3"])
        assert cfg.ratio_steps == 7 and cfg.seed == 3

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_sweep_register_size_other_than_2_rejected(self, n):
        # the sweep's fidelity formulas are the n = 2 ones
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", n, "--channel-lengths", "3", "--ratio-steps", "2"])
        assert exc.value.code == 2

    def test_single_shot_rejected(self):
        # one shot has no standard error, so the NDFS tolerance would be NaN
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--shots", "1"])
        assert exc.value.code == 2

    def test_empty_qst_threads_means_unset(self, tmp_path, monkeypatch):
        args = ["sweep", "--channel-lengths", "3", "--ratio-steps", "2", "--output"]
        unset, empty = tmp_path / "unset.csv", tmp_path / "empty.csv"
        monkeypatch.delenv("QST_THREADS", raising=False)
        assert main(args + [str(unset)]) == 0
        monkeypatch.setenv("QST_THREADS", "")
        assert main(args + [str(empty)]) == 0
        assert empty.read_bytes() == unset.read_bytes()

    def test_non_integer_qst_threads_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("QST_THREADS", "two")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channel-lengths", "3", "--ratio-steps", "2"])
        assert exc.value.code == 2
        assert "QST_THREADS" in capsys.readouterr().err

    def test_config_file_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--config", str(cfg_file)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--ratio-min", "nan"],
        ["sweep", "--ratio-max", "inf"],
        ["sweep", "--ratio-steps", "1", "--ratio-max", "0"],
        ["sweep", "--time", "nan", "--format", "json"],
        ["verify", "--tolerance-scale", "nan"],
        ["verify", "--sigma-lambda", "inf"],
        ["verify", "--sigma-lambda", "nan"],
        ["verify", "--seed", "-1"],
    ])
    def test_non_finite_or_out_of_range_flag_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", [
        {"shots": "5"}, {"n": 2.0}, {"channel_lengths": 5}, {"linear": "no"},
        {"time": "soon"}, {"encoding": "all"}, {"output_path": 5}, [1, 2],
        {"time": 10 ** 400}, {"ratio_max": 10 ** 400},
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, content):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--config", str(cfg_file)])
        assert exc.value.code == 2

    @settings(max_examples=100, deadline=None)
    @given(args=st.sampled_from(["sweep", "verify", "oracle", "phases"]).flatmap(_argv))
    def test_finite_config_or_usage_error(self, args):
        cfg, _ = _run(*args, parse_config)
        if isinstance(cfg, SystemExit):
            assert cfg.code == 2
            return
        floats = [cfg.ratio_min, cfg.ratio_max, cfg.sigma_lambda, cfg.tolerance_scale]
        if cfg.time != "tau":
            floats.append(cfg.time)
        assert all(math.isfinite(v) for v in floats)


class TestSweepCommand:
    def test_default_grid_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,n,ratio,time,encoding,fidelity"
        assert len(lines) == 1 + 3 * 40 * 2  # header + 240 rows
        for line in lines[1:]:
            fid = float(line.split(",")[5])
            assert -1e-9 <= fid <= 1 + 1e-9

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--channel-lengths", "5", "--ratio-steps", "5"]
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        from dfsqst.fidelity import sweep_fidelity, default_ratio_grid
        out = tmp_path / "s.csv"
        main(["sweep", "--channel-lengths", "5", "--ratio-steps", "6",
              "--output", str(out)])
        rows = out.read_text().splitlines()[1:]
        expected = sweep_fidelity(2, [5], default_ratio_grid(1e-3, 1.0, 6)).rows
        assert len(rows) == len(expected)
        for line, row in zip(rows, expected):
            N, n, ratio, t, enc, fid = line.split(",")
            assert (int(N), int(n), float(ratio), float(t), enc, float(fid)) == \
                (row.N, row.n, row.ratio, row.t, row.encoding, row.fidelity)

    def test_json_format(self, tmp_path):
        out = tmp_path / "s.json"
        main(["sweep", "--channel-lengths", "3", "--ratio-steps", "3",
              "--format", "json", "--output", str(out)])
        objs = json.loads(out.read_text())
        assert len(objs) == 6
        assert set(objs[0]) == {"N", "n", "ratio", "time", "encoding", "fidelity"}

    def test_single_encoding(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--channel-lengths", "3", "--ratio-steps", "2",
              "--encoding", "dfs", "--output", str(out)])
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 2
        assert all(line.split(",")[4] == "dfs" for line in lines)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        out = tmp_path / "s.csv"
        other = tmp_path / "s.csv.tmp"  # a concurrent writer's file is left alone
        other.write_text("other run")
        rc = main(["sweep", "--channel-lengths", "3", "--ratio-steps", "2",
                   "--output", str(out)])
        assert rc == 0
        assert sorted(os.listdir(tmp_path)) == ["s.csv", "s.csv.tmp"]
        assert other.read_text() == "other run"
        other.unlink()
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        # the temp file is written, then replacing the target (a directory) fails
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channel-lengths", "3", "--ratio-steps", "2",
                  "--output", str(target)])
        assert exc.value.code == 1
        assert sorted(os.listdir(tmp_path)) == ["s.csv", "taken"]
        assert os.listdir(target) == []

    @pytest.mark.parametrize("ratios,bad", [
        (["--ratio-min", "1e-320", "--ratio-max", "1e-300"], "g_I = 1e-320 at N = 3"),
        (["--ratio-max", "1e300"], "at N = 3, ratio = 1e+300"),
    ])
    def test_out_of_range_point_exits_1_without_output(self, tmp_path, capsys, ratios, bad):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--channel-lengths", "3", "--ratio-steps", "2",
                   "--output", str(out), *ratios])
        assert rc == 1
        assert not out.exists()
        assert bad in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(args=_argv("sweep", required=("channel_lengths", "ratio_steps")))
    def test_strict_output_or_exit_1_or_2(self, args):
        rc, text = _run(*args, main)
        if isinstance(rc, SystemExit):
            assert rc.code == 2
            return
        assert rc in (0, 1)
        if rc == 1:
            assert text == ""
            return
        if text.startswith("["):
            def reject(token):
                raise AssertionError(f"non-strict JSON constant {token}")
            rows = json.loads(text, parse_constant=reject)
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("ratio", "time", "fidelity"))

    def test_overflowing_point_prints_only_the_error(self, capsys):
        # the spectral sums overflow at this ratio; numpy stays silent and
        # the one error line is all that reaches stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sweep", "--channel-lengths", "3", "--ratio-steps", "2",
                       "--ratio-max", "1e300"])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite result") and err.count("\n") == 1

    def test_io_failure_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channel-lengths", "3", "--ratio-steps", "2",
                  "--output", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        assert exc.value.code == 1


class TestVerifyCommand:
    def test_passes_on_correct_build(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--shots", "100", "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["overall_pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"mirror_inversion", "closed_form_match", "unitarity",
                "kappa_parity_invariance", "formula_vs_oracle",
                "dephasing_dfs_invariance", "dephasing_ndfs_suppression"} == names
        for c in report["checks"]:
            assert set(c) == {"name", "max_error", "tolerance", "pass"}
            assert c["pass"] is True

    def test_zero_tolerance_fails(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--shots", "50", "--tolerance-scale", "0",
                   "--output", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())  # report still written
        assert report["overall_pass"] is False


    def test_formula_vs_oracle_checks_the_sweep_engine(self, tmp_path, monkeypatch):
        # break the engine the sweep runs: formula_vs_oracle fails, while the
        # dense reference path keeps passing its own checks
        monkeypatch.setattr(cli, "register_elements",
                            lambda omega, t: RegisterElements(0j, 0j, 0j, 0j))
        out = tmp_path / "report.json"
        assert main(["verify", "--shots", "50", "--output", str(out)]) == 1
        passed = {c["name"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
        assert passed.pop("formula_vs_oracle") is False
        assert all(passed.values())

    @pytest.mark.parametrize("argv", [
        ["verify", "--sigma-lambda", "1e308", "--shots", "10"],
        ["verify", "--tolerance-scale", "1.7976931348623157e308", "--shots", "2"],
    ])
    def test_overflowing_option_is_usage_error(self, tmp_path, capsys, argv):
        # the dephasing phases lambda * t, or a tolerance, leave the float range
        out = tmp_path / "report.json"
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_strong_dephasing_gives_finite_report(self, tmp_path):
        # sigma^2 t^2 overflows but every phase is finite: predicted
        # suppression 0, measured the mean of effectively random phases
        out = tmp_path / "report.json"
        assert main(["verify", "--sigma-lambda", "1e300", "--shots", "10",
                     "--output", str(out)]) in (0, 1)
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["dephasing_dfs_invariance"]["pass"] is True
        assert math.isfinite(checks["dephasing_ndfs_suppression"]["max_error"])

    @settings(max_examples=60, deadline=None)
    @given(args=st.sampled_from(["verify", "oracle"]).flatmap(_argv))
    def test_strict_json_or_exit_1_or_2(self, args):
        rc, text = _run(*args, main)
        if isinstance(rc, SystemExit):
            assert rc.code == 2
            return
        assert rc in (0, 1, 2)
        if rc == 2:
            assert text == ""
            return

        def reject(token):
            raise AssertionError(f"non-strict JSON constant {token}")
        report = json.loads(text, parse_constant=reject)
        assert isinstance(report["overall_pass"], bool)
        assert report["overall_pass"] == (rc == 0)


class TestPhasesCommand:
    def test_n2_table(self, tmp_path):
        out = tmp_path / "phases.csv"
        rc = main(["phases", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pattern,predicted,measured,match"
        assert len(lines) == 1 + 32
        vac = lines[1].split(",")
        assert vac == ["00000", "+1", "+1", "true"]
        assert all(line.endswith("true") for line in lines[1:])

    def test_size_cap_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["phases", "--n", "4"])
        assert exc.value.code == 2


class TestOracleCommand:
    def test_runs_clean(self, tmp_path):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["overall_pass"] is True
        assert report["swap_check"]["pass"] is True
        assert report["formula_vs_oracle"]["max_error"] <= 1e-8

    def test_size_cap_is_usage_error(self):
        # the effective swap check is capped like `phases`; n = 4 used to run as n = 3
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--n", "4"])
        assert exc.value.code == 2
