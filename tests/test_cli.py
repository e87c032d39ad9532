import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


# a valid value of every option, and the flags that give it
OPTION_SAMPLES = {
    "n": (2, ["--n", "2"]),
    "channel_lengths": ([3], ["--channel-lengths", "3"]),
    "ratio_min": (0.01, ["--ratio-min", "0.01"]),
    "ratio_max": (0.5, ["--ratio-max", "0.5"]),
    "ratio_steps": (2, ["--ratio-steps", "2"]),
    "linear": (True, ["--linear"]),
    "encoding": ("dfs", ["--encoding", "dfs"]),
    "time": (1.5, ["--time", "1.5"]),
    "sigma_lambda": (0.1, ["--sigma-lambda", "0.1"]),
    "seed": (3, ["--seed", "3"]),
    "output_path": ("out.txt", ["--output", "out.txt"]),
    "format": ("json", ["--format", "json"]),
    "tolerance_scale": (2.0, ["--tolerance-scale", "2"]),
}


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


def _reference_is_number(value, integer: bool = False) -> bool:
    """The number rule `cli` kept for itself before it called `model`'s
    predicates, as it stood then: the reference `_reference_valid` uses."""
    kinds = int if integer else (int, float)
    if not isinstance(value, kinds) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range is fine only where ints go
        return integer


def _reference_valid(key: str, value) -> bool:
    """`cli._valid` as it stood with `_reference_is_number`."""
    default = cli._DEFAULTS[key]
    if key == "time":
        return value == "tau" or _reference_is_number(value)
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, list):
        return isinstance(value, list) and all(_reference_is_number(v, integer=True)
                                               for v in value)
    if key in cli._CHOICES:
        return value in cli._CHOICES[key]
    if isinstance(default, (bool, str)):
        return type(value) is type(default)
    return _reference_is_number(value, integer=isinstance(default, int))


def _config_exit_code(command: str, key: str, text: str) -> int:
    """0 if `parse_config` accepts a --config file holding {key: text}, else its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            fh.write(f'{{"{key}": {text}}}')
        try:
            with redirect_stderr(io.StringIO()):
                parse_config([command, "--config", path])
        except SystemExit as exc:
            return exc.code
        return 0


# JSON text of every kind: ints of any size (past the float range, and past
# the interpreter's 4300-digit limit on int literals), floats with 1e400 and
# the NaN/Infinity that json reads, bools, null, strings, arrays and objects
_BIG_INTS = ["1" + "0" * 400, "-1" + "0" * 400, "3" + "0" * 400 + "1", "1" * 5000]
_JSON_SCALARS = st.one_of(
    st.integers(-3, 21).map(str), st.integers().map(str), st.sampled_from(_BIG_INTS),
    st.floats().map(json.dumps), st.sampled_from(["1e400", "-1e400", "3.0", "1e-3"]),
    st.sampled_from(["true", "false", "null", "{}", '{"a": 1}']),
    st.sampled_from(["tau", "2.5", "3", "soon", ""]).map(json.dumps))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2).map(
    lambda items: "[" + ", ".join(items) + "]"))


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

    def test_bad_time_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(["sweep", "--time", "soon"])
        assert exc.value.code == 2
        # a numeric string in --config is not a number, for time as for every
        # other option; it used to run as its value
        cfg_file, out = tmp_path / "run.json", tmp_path / "out.csv"
        cfg_file.write_text(json.dumps({"time": "2.5"}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channel-lengths", "3", "--config", str(cfg_file),
                  "--output", str(out)])
        assert exc.value.code == 2
        assert not out.exists() and capsys.readouterr().out == ""

    def test_explicit_time_parsed(self, tmp_path):
        cfg = parse_config(["sweep", "--time", "12.5"])
        assert cfg.time == 12.5
        cfg_file, out = tmp_path / "run.json", tmp_path / "out.csv"
        for config, flags, time in [({"time": 2.5}, [], 2.5), ({"time": "tau"}, [], "tau"),
                                    ({}, ["--time", "2.5"], 2.5)]:
            cfg_file.write_text(json.dumps(config))
            argv = ["sweep", "--channel-lengths", "3", "--ratio-steps", "1",
                    "--config", str(cfg_file), *flags, "--output", str(out)]
            assert parse_config(argv).time == time
            assert main(argv) == 0

    def test_config_file_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"ratio_steps": 7, "ratio_min": 0.01}))
        cfg = parse_config(["sweep", "--config", str(cfg_file)])
        assert cfg.ratio_steps == 7 and cfg.ratio_min == 0.01
        # explicit flag wins over the file
        cfg = parse_config(["sweep", "--config", str(cfg_file), "--ratio-min", "0.02"])
        assert cfg.ratio_steps == 7 and cfg.ratio_min == 0.02

    @pytest.mark.parametrize("n", ["1", "3"])
    def test_sweep_register_size_other_than_2_rejected(self, n):
        # the sweep's fidelity formulas are the n = 2 ones
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", n, "--channel-lengths", "3", "--ratio-steps", "2"])
        assert exc.value.code == 2

    # parse_config only: a sweep at or past the work budget never starts here
    @settings(max_examples=60, deadline=None)
    @given(cap=st.sampled_from(["length", "points"]), count=st.integers(1, 4),
           past=st.booleans(), in_config=st.booleans())
    def test_sweep_budget_edges(self, cap, count, past, in_config):
        if cap == "length":  # the next odd length is the first one past the cap
            lengths, steps = [3] * (count - 1) + [cli.MAX_CHANNEL_LENGTH + 2 * past], 1
        else:  # (cap // count + 1) * count > cap for every count
            lengths, steps = [3] * count, cli.MAX_GRID_POINTS // count + past
        config = {"channel_lengths": lengths, "ratio_steps": steps} if in_config else {}
        argv = ["sweep"] if in_config else [
            "sweep", "--channel-lengths", *map(str, lengths), "--ratio-steps", str(steps)]
        cfg, _ = _run(argv, config, parse_config)
        if past:
            assert isinstance(cfg, SystemExit) and cfg.code == 2
        else:
            assert (cfg.channel_lengths, cfg.ratio_steps) == (lengths, steps)

    @pytest.mark.parametrize("argv,config", [
        (["sweep", "--channel-lengths", "3", "--ratio-steps", str(10 ** 20)], {}),
        (["sweep"], {"ratio_steps": 10 ** 400}),
    ], ids=["flag", "config"])
    def test_huge_ratio_steps_is_usage_error(self, argv, config):
        # numpy raised "Maximum allowed size exceeded" for the flag and an
        # OverflowError for the 401-digit config integer, both as tracebacks
        rc, out = _run(argv, config, main)
        assert isinstance(rc, SystemExit) and rc.code == 2 and out == ""

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
        ["oracle", "--n", "0"],
        ["phases", "--n", "0"],
    ])
    def test_non_finite_or_out_of_range_flag_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("content", [
        {"seed": "5"}, {"n": 2.0}, {"channel_lengths": 5}, {"linear": "no"},
        {"time": "soon"}, {"encoding": "all"}, {"output_path": 5}, [1, 2],
        {"time": 10 ** 400}, {"ratio_max": 10 ** 400},
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, content):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            parse_config(["verify" if "seed" in content else "sweep", "--config", str(cfg_file)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["sweep", "verify", "oracle", "phases"])
    def test_only_the_options_a_command_reads(self, tmp_path, command):
        # each option, as a flag and as a config key, parses exactly for the
        # commands that read it; 19 of the 52 (command, option) pairs
        assert sum(map(len, cli._OPTIONS.values())) == 19
        assert set(OPTION_SAMPLES) == set(cli._DEFAULTS)
        cfg_file = tmp_path / "run.json"
        for key, (value, argv) in OPTION_SAMPLES.items():
            cfg_file.write_text(json.dumps({key: value}))
            for extra in (argv, ["--config", str(cfg_file)]):
                if key in cli._OPTIONS[command]:
                    assert getattr(parse_config([command, *extra]), key) == value
                else:
                    with pytest.raises(SystemExit) as exc:
                        parse_config([command, *extra])
                    assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["phases", "--format", "json"],
        ["verify", "--n", "3"],
        ["verify", "--channel-lengths", "7"],
        ["verify", "--linear"],
        ["sweep", "--tolerance-scale", "0"],
        ["sweep", "--shots", "2"],
        ["verify", "--shots", "10"],
        ["oracle", "--channel-lengths", "9"],
    ])
    def test_option_the_command_ignores_is_usage_error(self, capsys, argv):
        # each used to be accepted and ignored: phases wrote CSV for
        # --format json, and verify wrote the default report; the usage
        # line is the command's own, which lists the options it takes
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"usage: dfsqst {argv[0]} " in err
        assert f"dfsqst {argv[0]}: error: unrecognized arguments: {argv[1]}" in err

    def test_one_parser_serves_every_call(self, monkeypatch, tmp_path, capsys):
        # the parser is built once a process; a usage error after it has
        # served a call still prints the subcommand's own usage line
        parsers = []
        parse = argparse.ArgumentParser.parse_known_args

        def recorded(self, *args, **kwargs):
            if self.prog == "dfsqst":
                parsers.append(self)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recorded)
        for _ in range(2):
            assert main(["phases", "--n", "1", "--output", str(tmp_path / "p.csv")]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        with pytest.raises(SystemExit) as exc:
            main(["phases", "--format", "json"])
        assert exc.value.code == 2 and parsers[2] is parsers[0]
        err = capsys.readouterr().err
        assert err.startswith("usage: dfsqst phases [-h] [--config CONFIG] [--n N]")
        assert "dfsqst phases: error: unrecognized arguments: --format json" in err

    @settings(max_examples=100, deadline=None)
    @given(args=st.sampled_from(["sweep", "verify", "oracle", "phases"]).flatmap(_argv))
    @example(args=(["verify", "--tolerance-scale", "-1"], {}))
    @example(args=(["verify"], {"tolerance_scale": -0.5}))
    def test_finite_config_or_usage_error(self, args):
        cfg, _ = _run(*args, parse_config)
        if isinstance(cfg, SystemExit):
            assert cfg.code == 2
            return
        floats = [cfg.ratio_min, cfg.ratio_max, cfg.sigma_lambda, cfg.tolerance_scale]
        if cfg.time != "tau":
            floats.append(cfg.time)
        assert all(math.isfinite(v) for v in floats)
        assert max(cfg.channel_lengths) <= cli.MAX_CHANNEL_LENGTH
        assert len(cfg.channel_lengths) * cfg.ratio_steps <= cli.MAX_GRID_POINTS
        assert cfg.tolerance_scale >= 0  # a negative tolerance can never pass


    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from([("verify", "seed"), ("sweep", "ratio_min"), ("sweep", "time"),
                                 ("sweep", "channel_lengths")]),
           text=_JSON_VALUES)
    @example(case=("sweep", "ratio_min"), text="NaN")
    @example(case=("sweep", "ratio_min"), text=_BIG_INTS[0])
    @example(case=("sweep", "time"), text="1e400")
    @example(case=("verify", "seed"), text=_BIG_INTS[0])
    @example(case=("sweep", "channel_lengths"), text=f"[3, {_BIG_INTS[2]}]")
    def test_number_rule_verdicts_match_the_reference(self, case, text):
        # `model`'s predicates give every --config value the accept-or-exit-2
        # verdict of the rule `cli` kept for itself before
        got = _config_exit_code(*case, text)
        with mock.patch.object(cli, "_valid", _reference_valid):
            expected = _config_exit_code(*case, text)
        assert got == expected and got in (0, 2)


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
        rc = main(["verify", "--output", str(out)])
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
        rc = main(["verify", "--tolerance-scale", "0", "--output", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())  # report still written
        assert report["overall_pass"] is False

    @pytest.mark.parametrize("seed", ["42", "1", "7"])
    def test_passes_at_small_dephasing(self, tmp_path, seed):
        # at sigma * tau ~ 5e-9 the shot values are 1 to within an eps, so
        # 3 standard errors alone fell below the float resolution
        out = tmp_path / "report.json"
        assert main(["verify", "--sigma-lambda", "1e-10", "--seed", seed,
                     "--output", str(out)]) == 0

    def test_wrong_ndfs_suppression_fails(self, tmp_path, monkeypatch):
        # the dephasing field left out: every NDFS shot keeps its coherence,
        # while the DFS check cannot tell
        monkeypatch.setattr(cli.orc, "_dephasing_phases",
                            lambda lams, t, sz: np.ones((len(lams), len(sz)), dtype=complex))
        out = tmp_path / "report.json"
        assert main(["verify", "--output", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        ndfs = checks.pop("dephasing_ndfs_suppression")
        assert ndfs["max_error"] > 10 * ndfs["tolerance"]
        assert all(c["pass"] for c in checks.values())

    @pytest.mark.parametrize("seed", ["42", "1", "7"])
    @pytest.mark.parametrize("speed", [-1.0, 1.5, 2.0], ids=["conjugated", "1.5x", "2x"])
    def test_wrong_dephasing_phase_fails(self, tmp_path, monkeypatch, seed, speed):
        # a per-shot phase conjugated or too fast; the 3-standard-error test
        # of the shot mean this check used to be let all nine pass
        phases = cli.orc._dephasing_phases
        monkeypatch.setattr(cli.orc, "_dephasing_phases",
                            lambda lams, t, sz: phases(lams, speed * t, sz))
        out = tmp_path / "report.json"
        assert main(["verify", "--seed", seed, "--output", str(out)]) == 1
        failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]]
        assert failed == ["dephasing_ndfs_suppression"]

    def test_formula_vs_oracle_checks_the_sweep_engine(self, tmp_path, monkeypatch):
        # break the engine the sweep runs: every check that runs it fails,
        # while the checks of the dense propagator alone keep passing
        monkeypatch.setattr(cli, "register_elements",
                            lambda omega, t: RegisterElements(0j, 0j, 0j, 0j))
        out = tmp_path / "report.json"
        assert main(["verify", "--output", str(out)]) == 1
        failed = [c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]]
        assert failed == ["closed_form_match", "unitarity", "formula_vs_oracle"]

    @pytest.mark.parametrize("mutation", ["d_r1l1", "d_r2l2", "d_r1l2", "d_r2l1", "conjugate"])
    def test_wrong_sweep_engine_element_fails(self, tmp_path, monkeypatch, mutation):
        # one element's sign flipped, or all four conjugated; conjugation
        # leaves both fidelity formulas unchanged, so only the element checks see it
        engine = cli.register_elements

        def mutated(omega, t):
            e = engine(omega, t)
            if mutation == "conjugate":
                return RegisterElements(*np.conj(list(vars(e).values())))
            return dataclasses.replace(e, **{mutation: -getattr(e, mutation)})

        monkeypatch.setattr(cli, "register_elements", mutated)
        out = tmp_path / "report.json"
        assert main(["verify", "--output", str(out)]) == 1
        passed = {c["name"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
        assert not passed["closed_form_match"] and not passed["unitarity"]
        assert passed["mirror_inversion"] and passed["kappa_parity_invariance"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--sigma-lambda", "1e308"],
        ["verify", "--sigma-lambda", "1e306"],  # sigma finite, lambda tau dz past the range
    ])
    def test_overflowing_option_is_usage_error(self, tmp_path, capsys, argv):
        # the dephasing phases lambda * t leave the float range
        out = tmp_path / "report.json"
        assert main(argv + ["--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_strong_dephasing_gives_finite_report(self, tmp_path):
        # sigma^2 t^2 overflows but every phase is finite, and each shot's
        # coherence factor is still exactly exp(4 i lambda tau)
        out = tmp_path / "report.json"
        assert main(["verify", "--sigma-lambda", "1e300", "--output", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        assert checks["dephasing_dfs_invariance"]["pass"] is True
        assert math.isfinite(checks["dephasing_ndfs_suppression"]["max_error"])

    @settings(max_examples=60, deadline=None)
    @given(args=st.sampled_from(["verify", "oracle"]).flatmap(_argv))
    # every tolerance is at most 1e-8 times the scale, so even this one is finite
    @example(args=(["verify", "--tolerance-scale", "1.7976931348623157e308"], {}))
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


def _skeleton(report):
    """A JSON report with every float replaced by the word "float"."""
    if isinstance(report, dict):
        return {k: _skeleton(v) for k, v in report.items()}
    if isinstance(report, list):
        return [_skeleton(v) for v in report]
    return "float" if isinstance(report, float) else report


class TestGoldenOutputs:
    """The default outputs every change must keep: `phases` byte for byte,
    and the check names and pass flags of `oracle` and `verify`."""

    # a phases table holds only bit patterns, signs and booleans, so its
    # bytes do not depend on the platform's floating-point rounding
    @pytest.mark.parametrize("n,digest", [
        ("1", "ce996dc1cb07baecafb19bd01ae03eb56cef5a6df350b6f1c5009655f2880284"),
        ("2", "4918d870cb3f44154881c3ce788784811dc0af544c59628aabe8646d26c40f0d"),
        ("3", "dd0ebb8f180facf647529d09e8bcc740d6984ed6682699208812ef5aec62bce9"),
    ], ids=["n1", "n2", "n3"])
    def test_phases_bytes(self, tmp_path, n, digest):
        out = tmp_path / "phases.csv"
        assert main(["phases", "--n", n, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_oracle_checks(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--output", str(out)]) == 0
        assert _skeleton(json.loads(out.read_text())) == {
            "swap_check": {"n": 2, "max_amplitude_error": "float", "pass": True},
            "formula_vs_oracle": {"max_error": "float", "tolerance": "float", "pass": True},
            "overall_pass": True,
        }

    def test_verify_checks(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--output", str(out)]) == 0
        check = {"max_error": "float", "tolerance": "float", "pass": True}
        assert _skeleton(json.loads(out.read_text())) == {
            "checks": [{"name": name, **check} for name in (
                "mirror_inversion", "closed_form_match", "unitarity",
                "kappa_parity_invariance", "formula_vs_oracle",
                "dephasing_dfs_invariance", "dephasing_ndfs_suppression")],
            "overall_pass": True,
        }
