import copy
import io
import json
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bcsi import cli
from bcsi.cli import main


NOISELESS = {
    "x_size": 2, "y1_size": 2, "y2_size": 2,
    "kernel": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
}
AUX_COMPLEMENTARY = {"u_sizes": [2, 1, 1], "joint": ["1/2", "1/2"], "gamma": [0, 1]}
UX_UNIFORM = {"u_size": 1, "x_size": 2, "joint": ["1/2", "1/2"]}
BAD_CHANNEL = {"x_size": 1, "y1_size": 2, "y2_size": 1, "kernel": [[0.9, 0.3]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, data in (("channel", NOISELESS), ("aux", AUX_COMPLEMENTARY),
                       ("ux", UX_UNIFORM), ("bad", BAD_CHANNEL)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    paths["region"] = str(tmp_path / "region.json")
    assert main(["region", "--theorem", "t2", "--channel", paths["channel"],
                 "--scheme", paths["ux"], "--out", paths["region"]]) == 0
    return paths


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_good_inputs(self, files, capsys):
        code, out, _ = run_cli(["validate", "--channel", files["channel"],
                                "--scheme", files["aux"]], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_bad_kernel_row_exit_1(self, files, capsys):
        code, _, err = run_cli(["validate", "--channel", files["bad"]], capsys)
        assert code == 1
        assert "row 0" in err

    def test_nan_kernel_exit_1(self, files, capsys):
        path = files["tmp"] / "nan.json"
        path.write_text('{"x_size": 2, "y1_size": 2, "y2_size": 2, "kernel": '
                        '[[NaN, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]]}')
        code, out, err = run_cli(["validate", "--channel", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert "mass[0] = nan is not finite" in err

    def test_missing_file_exit_1(self, files, capsys):
        code, _, _ = run_cli(["validate", "--channel",
                              str(files["tmp"] / "nope.json")], capsys)
        assert code == 1


# Probability entries at the parse boundary: each is judged on its exact
# value (or rejected as unparsable) in every loader, and ends in exit 1,
# beside exact entries (channel) and beside a JSON float (aux, ux), where a
# float of 1e400 would overflow.
_BOUNDARY_ENTRIES = {"1e400": "1e400", "-1e-400": "-1e-400", "400 digits": 10 ** 399,
                     "true": True, "1/0": "1/0"}
_BOUNDARY_LOADERS = {
    "channel": ({"x_size": 2, "y1_size": 2, "y2_size": 1, "kernel": [["{e}", "0"], ["0", "1"]]},
                ["validate", "--channel", "{file}"]),
    "aux": ({"u_sizes": [2, 1, 1], "joint": ["{e}", 0.5], "gamma": [0, 1]},
            ["validate", "--channel", "{channel}", "--scheme", "{file}"]),
    "ux": ({"u_size": 1, "x_size": 2, "joint": ["{e}", 0.5]},
           ["region", "--theorem", "t2", "--channel", "{channel}", "--scheme", "{file}"]),
}


@pytest.mark.parametrize("entry", list(_BOUNDARY_ENTRIES.values()), ids=list(_BOUNDARY_ENTRIES))
@pytest.mark.parametrize("loader", list(_BOUNDARY_LOADERS))
def test_parse_boundary_entry_exit_1(files, capsys, loader, entry):
    spec, argv = _BOUNDARY_LOADERS[loader]
    text = json.dumps(spec).replace('"{e}"', json.dumps(entry))
    target = files["tmp"] / f"boundary_{loader}.json"
    target.write_text(text)
    code, out, err = run_cli([a.format(file=target, **files) for a in argv], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


# Entries whose decimal exponent Fraction would expand into a ten-million-
# digit integer: each ends in well under a second with the verdict of its
# exact value, in the channel, scheme and region-file loaders.
_FAR_EXPONENTS = {"1e-9999999": (0, 0, 1), "-1e-9999999": (1, 1, 1), "1e9999999": (1, 1, 1)}
_FAR_EXPONENT_LOADERS = {
    "channel": ("channel", ["kernel", 0], ["{e}", "0", "0", "1"],
                ["validate", "--channel", "{file}"]),
    "scheme": ("aux", ["joint"], ["{e}", "1"],
               ["validate", "--channel", "{channel}", "--scheme", "{file}"]),
    "region": ("region", ["inequalities", 0, "coeffs"], {"R1": "{e}", "R2": "1"},
               ["compare", "{file}", "{file}"]),
}


@pytest.mark.parametrize("entry", list(_FAR_EXPONENTS))
@pytest.mark.parametrize("loader", list(_FAR_EXPONENT_LOADERS))
def test_far_exponent_entry_parses_in_bounded_time(files, capsys, loader, entry):
    kind, path, value, argv = _FAR_EXPONENT_LOADERS[loader]
    specs = {"channel": NOISELESS, "aux": AUX_COMPLEMENTARY,
             "region": json.loads(Path(files["region"]).read_text())}
    value = json.loads(json.dumps(value).replace("{e}", entry))
    target = files["tmp"] / f"far_{kind}.json"
    target.write_text(json.dumps(_mutated(specs[kind], path, value)))
    start = time.perf_counter()
    code, _, err = run_cli([a.format(file=target, **files) for a in argv], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == _FAR_EXPONENTS[entry][list(_FAR_EXPONENT_LOADERS).index(loader)]
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["-1e-400", "-1e-9999999"])
def test_negative_entry_message_is_one_bounded_line(files, capsys, entry):
    """A tiny negative entry is named as written, not as its exact value
    with a denominator of hundreds of digits."""
    target = files["tmp"] / "negative.json"
    target.write_text(json.dumps(_mutated(NOISELESS, ["kernel", 0], [entry, "0", "0", "1"])))
    code, out, err = run_cli(["validate", "--channel", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert entry in err


class TestRegion:
    def test_t1_noiseless_region(self, files, capsys):
        code, out, _ = run_cli(["region", "--theorem", "t1",
                                "--channel", files["channel"],
                                "--scheme", files["aux"]], capsys)
        assert code == 0
        data = json.loads(out)
        rhs = sorted(i["rhs"] for i in data["inequalities"])
        assert rhs == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_t2_takes_ux_joint(self, files, capsys):
        code, out, _ = run_cli(["region", "--theorem", "t2",
                                "--channel", files["channel"],
                                "--scheme", files["ux"]], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["provenance"]["kind"] == "t2"

    def test_oversized_channel_hits_guard(self, files, capsys):
        big = {"x_size": 4000, "y1_size": 4000, "y2_size": 1, "kernel": []}
        p = files["tmp"] / "big.json"
        p.write_text(json.dumps(big))
        code, _, err = run_cli(["validate", "--channel", str(p)], capsys)
        assert code == 2
        assert "cap" in err


class TestRawProject:
    def test_equality_verdict_true(self, files, capsys):
        code, out, _ = run_cli(["raw-project", "--channel", files["channel"],
                                "--scheme", files["aux"]], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["equal"] is True
        assert len(data["raw_system"]["inequalities"]) == 14  # 5 + 9 nonneg

    def test_zero_covering_constant_prints_no_negative_zero(self, files, capsys):
        """With trivial U1 and U2, I(U1;U2|U0) is an exact 0, and the covering
        row -Rp1 - Rp2 <= -I(U1;U2|U0) states it as 0.0, not -0.0."""
        code, out, _ = run_cli(["raw-project", "--channel", files["channel"],
                                "--scheme", files["aux"]], capsys)
        assert code == 0
        assert "-0.0" not in out
        covering = json.loads(out)["raw_system"]["inequalities"][0]
        assert covering["coeffs"] == {"Rp1": "-1", "Rp2": "-1"}
        assert covering["rhs"] == 0.0


class TestCompare:
    def test_region_equals_itself(self, files, capsys):
        code, out, _ = run_cli(["region", "--theorem", "t1",
                                "--channel", files["channel"],
                                "--scheme", files["aux"],
                                "--out", str(files["tmp"] / "r.json")], capsys)
        assert code == 0
        code, out, _ = run_cli(["compare", str(files["tmp"] / "r.json"),
                                str(files["tmp"] / "r.json")], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["equal"] is True
        assert data["a_subset_b"] is True


    @pytest.mark.parametrize("content", [b"not a region\n", b"\xff\xfe"])
    def test_non_json_file_exit_1(self, files, capsys, content):
        path = files["tmp"] / "notes.txt"
        path.write_bytes(content)
        code, _, err = run_cli(["compare", str(path), str(path)], capsys)
        assert code == 1
        assert "is not valid JSON" in err

    def test_directory_exit_1(self, files, capsys):
        code, _, err = run_cli(["compare", str(files["tmp"]), str(files["tmp"])], capsys)
        assert code == 1
        assert "cannot read" in err


class TestOptimize:
    def test_deterministic_output(self, files, capsys):
        args = ["optimize", "--channel", files["channel"], "--theorem", "t1",
                "--weights", "0,0,0,1,0", "--aux-sizes", "2,1,1",
                "--resolution", "3", "--seed", "4"]
        code, out1, _ = run_cli(args, capsys)
        assert code == 0
        code, out2, _ = run_cli(args, capsys)
        assert out1 == out2
        assert json.loads(out1)["best_value"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("weight", ["1e-13", "5e-324"])
    def test_tiny_weight_keeps_its_value(self, files, capsys, weight):
        """The support value is scale-free: one bit at weight w is worth w,
        not the rate box bound 64 * w, however small w is."""
        code, out, _ = run_cli(["optimize", "--channel", files["channel"],
                                "--theorem", "t2", "--weights", f"{weight},0,0,0,0",
                                "--aux-sizes", "2,1,1", "--resolution", "2"], capsys)
        assert code == 0
        assert json.loads(out)["best_value"] == float(weight)


    def test_bad_weight_exit_1(self, files, capsys):
        code, out, err = run_cli(["optimize", "--channel", files["channel"],
                                  "--theorem", "t1", "--weights", "1,1,1,1,x"], capsys)
        assert code == 1
        assert out == ""
        assert "bad weight 'x'" in err


class TestSlice:
    def test_csv_output(self, files, capsys):
        out_path = files["tmp"] / "slice.csv"
        code, _, _ = run_cli(["slice", "--channel", files["channel"],
                              "--theorem", "t1", "--free", "R2,R3",
                              "--fixed", "R1=0,R4=0,R5=0",
                              "--aux-sizes", "2,2,2", "--resolution", "3",
                              "--directions", "5",
                              "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "angle_deg,R2,R3,scheme_id"
        assert len(lines) == 6
        assert (files["tmp"] / "slice.csv.schemes.json").exists()

    def test_negative_zero_coordinates_print_as_zero(self, files, capsys, monkeypatch):
        point = {"angle_deg": -0.0, "R2": 1.0, "R3": -0.0, "scheme_id": 0}
        monkeypatch.setattr(cli, "union_slice_2d", lambda *a, **k: ([point], []))
        code, out, _ = run_cli(["slice", "--channel", files["channel"], "--theorem", "t1",
                                "--free", "R2,R3", "--fixed", "R1=0,R4=0,R5=0"], capsys)
        assert code == 0
        assert out == "angle_deg,R2,R3,scheme_id\n0,1,0,0\n"


class TestSimulate:
    def test_report_and_progress(self, files, capsys):
        code, out, err = run_cli(["simulate", "--channel", files["channel"],
                                  "--scheme", files["aux"], "--rates", "R1=0.5",
                                  "--n", "8", "--trials", "120", "--seed", "3"],
                                 capsys)
        assert code == 0
        report = json.loads(out)
        assert report["trials"] == 120
        assert 0.0 <= report["pe_estimate"] <= 1.0
        assert "trials=100" in err
        line = err.splitlines()[-1]
        assert re.fullmatch(r"trials=100 errors=\d+ elapsed_s=\d+\.\d\d trials_per_s=\d+", line)

    def test_byte_identical_reruns(self, files, capsys):
        args = ["simulate", "--channel", files["channel"], "--scheme",
                files["aux"], "--rates", "R1=0.5", "--n", "6",
                "--trials", "80", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("rates", ["R2=1,R21=0.75", "R22=0.5,R2=1", "R3=1,R31=0.75",
                                       "R32=0.1,R3=0.2,Rp1=0.1"])
    def test_whole_rate_with_its_parts_exit_1(self, files, capsys, rates):
        # R2 = 1 with R21 = 0.75 once ran at R2 = 1.25, R22 taking R2 / 2
        code, out, err = run_cli(["simulate", "--channel", files["channel"],
                                  "--scheme", files["aux"], "--rates", rates,
                                  "--n", "4", "--trials", "2"], capsys)
        assert code == 1
        assert out == ""
        assert "not both" in err

    def test_parts_alone_set_the_split(self, files, capsys):
        code, out, _ = run_cli(["simulate", "--channel", files["channel"],
                                "--scheme", files["aux"], "--rates", "R21=0.75,R3=0.5",
                                "--n", "4", "--trials", "2"], capsys)
        assert code == 0
        nominal = json.loads(out)["nominal_rates"]
        assert (nominal["r21"], nominal["r22"], nominal["r31"], nominal["r32"]) == \
            (0.75, 0.0, 0.25, 0.25)

    def test_desk_guard_exit_2(self, files, capsys):
        code, _, err = run_cli(["simulate", "--channel", files["channel"],
                                "--scheme", files["aux"], "--rates", "R1=2.0",
                                "--n", "12", "--trials", "10"], capsys)
        assert code == 2
        assert "cap" in err


_SLICE = ["slice", "--channel", "{channel}", "--theorem", "t1", "--free", "R2,R3",
          "--fixed", "R1=0,R4=0,R5=0", "--aux-sizes", "2,1,1", "--resolution", "2",
          "--directions", "3"]
_SIMULATE = ["simulate", "--channel", "{channel}", "--scheme", "{aux}",
             "--rates", "R1=0.5", "--n", "4", "--trials", "2"]
_OPTIMIZE = ["optimize", "--channel", "{channel}", "--theorem", "t1",
             "--weights", "0,0,0,1,0", "--aux-sizes", "2,1,1", "--resolution", "2"]


def _with(argv, flag, value):
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


_BAD_ARGV = {
    "optimize aux size x": _with(_OPTIMIZE, "--aux-sizes", "2,x"),
    "slice aux size x": _with(_SLICE, "--aux-sizes", "2,x"),
    "slice directions -1": _with(_SLICE, "--directions", "-1"),
    "slice directions 0": _with(_SLICE, "--directions", "0"),
    "slice fixed nan": _with(_SLICE, "--fixed", "R1=nan,R4=0,R5=0"),
    "slice fixed R1 twice": _with(_SLICE, "--fixed", "R1=0,R1=5,R4=0,R5=0"),
    "simulate rate R1 twice": _with(_SIMULATE, "--rates", "R1=0.5,R1=0.2"),
    "simulate rate nan": _with(_SIMULATE, "--rates", "R1=nan"),
    "simulate rate inf": _with(_SIMULATE, "--rates", "R1=inf"),
    "optimize weight nan": _with(_OPTIMIZE, "--weights", "0,nan,1,0,0"),
    "validate out dir": ["validate", "--channel", "{channel}", "--out", "{tmp}"],
    "classify out dir": ["classify", "--channel", "{channel}", "--resolution", "4",
                         "--out", "{tmp}"],
    "region out dir": ["region", "--theorem", "t2", "--channel", "{channel}",
                       "--scheme", "{ux}", "--out", "{tmp}"],
    "raw-project out dir": ["raw-project", "--channel", "{channel}", "--scheme", "{aux}",
                            "--out", "{tmp}"],
    "optimize out dir": _OPTIMIZE + ["--out", "{tmp}"],
    "slice out dir": _SLICE + ["--out", "{tmp}"],
    "simulate out dir": _SIMULATE + ["--out", "{tmp}"],
    "compare out dir": ["compare", "{region}", "{region}", "--out", "{tmp}"],
    # usage errors: argparse's message on stderr, exit 1 like any malformed input
    "unknown option": ["validate", "--channel", "{channel}", "--bogus", "1"],
    "missing channel": ["validate", "--scheme", "{aux}"],
    "missing verb": [],
    "theorem t4": _with(_OPTIMIZE, "--theorem", "t4"),
    "weights read as an option": _with(_OPTIMIZE, "--weights", "-1,1,1,1,1"),
    "resolution x": _with(_OPTIMIZE, "--resolution", "x"),
    "slice restarts": _SLICE + ["--restarts", "2"],  # slice has no restarts option
}


@pytest.mark.parametrize("argv", list(_BAD_ARGV.values()), ids=list(_BAD_ARGV))
def test_bad_option_or_out_directory_exit_1(files, capsys, argv):
    argv = [a.format(**files) for a in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def _mutated(spec, path, value):
    out = copy.deepcopy(spec)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# Inputs that once ended in a Python traceback or ran out of memory: (file
# kind, path in the file, value) or None, the argv, and the exit code they
# must end in.
_KERNEL_400 = [[["1e400", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]
_MALFORMED = {
    "kernel not a list": (("channel", ["kernel"], 5), ["validate", "--channel", "{file}"], 1),
    "probability 1e400": (("channel", ["kernel"], _KERNEL_400),
                          ["validate", "--channel", "{file}"], 1),
    "coefficient 1e400": (("region", ["inequalities", 0, "coeffs"], {"R1": "1e400"}),
                          ["compare", "{file}", "{file}"], 1),
    "gamma x": (("aux", ["gamma", 1], "x"),
                ["validate", "--channel", "{channel}", "--scheme", "{file}"], 1),
    "gamma dict": (("aux", ["gamma", 1], {"x": 1}),
                   ["validate", "--channel", "{channel}", "--scheme", "{file}"], 1),
    "gamma null": (("aux", ["gamma", 1], None),
                   ["validate", "--channel", "{channel}", "--scheme", "{file}"], 1),
    "gamma 1.5": (("aux", ["gamma", 1], 1.5),
                  ["validate", "--channel", "{channel}", "--scheme", "{file}"], 1),
    "rhs nan": (("region", ["inequalities", 0, "rhs"], "nan"), ["compare", "{file}", "{file}"], 1),
    "rhs -inf": (("region", ["inequalities", 0, "rhs"], "-inf"),
                 ["compare", "{file}", "{file}"], 1),
    "coeffs list": (("region", ["inequalities", 0, "coeffs"], ["R1"]),
                    ["compare", "{file}", "{file}"], 1),
    "u_sizes 67M": (("aux", ["u_sizes", 0], 67103744),  # found by the fuzz test below
                    ["validate", "--channel", "{channel}", "--scheme", "{file}"], 2),
    "u_sizes 0": (("aux", ["u_sizes", 0], 0),
                  ["validate", "--channel", "{channel}", "--scheme", "{file}"], 1),
    "rate 1e9": (None, _with(_SIMULATE, "--rates", "R1=1e9"), 2),
    "n 3000": (None, _with(_SIMULATE, "--n", "3000"), 2),
    "simulate seed -1": (None, _SIMULATE + ["--seed", "-1"], 1),
    "optimize seed -1": (None, _OPTIMIZE + ["--seed", "-1"], 1),
    "slice seed -1": (None, _SLICE + ["--seed", "-1"], 1),
    "weights 1e308": (None, _with(_OPTIMIZE, "--weights", "1e308,1e308,1,1,1"), 1),
}


@pytest.mark.parametrize("case", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_input_exit_code(files, capsys, case):
    edit, argv, want = case
    specs = {"channel": NOISELESS, "aux": AUX_COMPLEMENTARY,
             "region": json.loads(Path(files["region"]).read_text())}
    target = ""
    if edit is not None:
        kind, path, value = edit
        target = files["tmp"] / f"mutated_{kind}.json"
        target.write_text(json.dumps(_mutated(specs[kind], path, value)))
    code, out, err = run_cli([a.format(file=target, **files) for a in argv], capsys)
    assert code == want
    assert ("error:" if want == 1 else "guard:") in err
    assert "Traceback" not in err


# ---- fuzzing: mutated fixture files and option values ------------------------

FUZZ_EXAMPLES = 60
_FUZZ_ARGV = {
    "validate": ["validate", "--channel", "{channel}", "--scheme", "{aux}"],
    "classify": ["classify", "--channel", "{channel}", "--resolution", "3", "--u-size", "2"],
    "region t1": ["region", "--theorem", "t1", "--channel", "{channel}", "--scheme", "{aux}"],
    "region t3": ["region", "--theorem", "t3", "--channel", "{channel}", "--scheme", "{ux}"],
    "raw-project": ["raw-project", "--channel", "{channel}", "--scheme", "{aux}"],
    "optimize": ["optimize", "--channel", "{channel}", "--theorem", "t1",
                 "--weights", "1,1,1,1,1", "--aux-sizes", "2,1,2", "--resolution", "3",
                 "--restarts", "1", "--seed", "1"],
    "optimize t2": ["optimize", "--channel", "{channel}", "--theorem", "t2",
                    "--weights", "0,1,1,0,0", "--aux-sizes", "2,1,1", "--resolution", "3"],
    "slice": ["slice", "--channel", "{channel}", "--theorem", "t1", "--free", "R2,R3",
              "--fixed", "R1=0,R4=0,R5=0", "--aux-sizes", "2,2,1", "--resolution", "3",
              "--directions", "3", "--seed", "2"],
    "simulate": ["simulate", "--channel", "{channel}", "--scheme", "{aux}",
                 "--rates", "R1=0.5", "--n", "6", "--trials", "20", "--eps", "0.3",
                 "--seed", "3"],
    "compare": ["compare", "{region}", "{region}"],
}
# option values: small counts, so that every run stays small, and edge cases
_OPTION_VALUES = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["", "x", ",", "nan", "inf", "-inf", "1e300", "1e400", "-1e-300", "0.5",
                     "1,1,1,1,1e300", "0,0,0,0,0", "1,-1,1,1,1", "1,1,1,1", "2,2,2", "0,1,1",
                     "3,2,x", "R1=1e9", "R1=-1", "R9=1", "R1", "R2,R2", "R1,R4", "Rp1=0.5",
                     "R22=0.5,Rp2=1e300", "R1=0,R4=0", "t4"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1e400", "-1e400", "1e-400", "x", "1/0", "1/2", "nan", "-inf", "0", "1",
                     "-1", "0.5"]),
    st.lists(st.sampled_from([0, 1, "1/2", -1, 2.5]), max_size=4),
    st.dictionaries(st.sampled_from(["R1", "R2", "X", "rhs"]), st.sampled_from([0, 1, "1e400"]),
                    max_size=2))


def _paths(node, prefix=()):
    """Every path to a value inside a JSON tree, the root's children first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_inputs_end_in_an_exit_code(files, data):
    specs = {"channel": NOISELESS, "aux": AUX_COMPLEMENTARY, "ux": UX_UNIFORM,
             "region": json.loads(Path(files["region"]).read_text())}
    name = data.draw(st.sampled_from(sorted(_FUZZ_ARGV)), label="verb")
    argv = list(_FUZZ_ARGV[name])
    with tempfile.TemporaryDirectory() as tmp:
        paths = dict(files)
        used = [kind for kind in specs if any("{" + kind + "}" in a for a in argv)]
        for kind in used:
            spec = specs[kind]
            if data.draw(st.booleans(), label=f"mutate {kind}"):
                path = data.draw(st.sampled_from(list(_paths(spec))), label=f"{kind} path")
                spec = _mutated(spec, path, data.draw(_JSON_VALUES, label="value"))
            paths[kind] = str(Path(tmp) / f"{kind}.json")
            Path(paths[kind]).write_text(json.dumps(spec))
        values = [i + 1 for i, a in enumerate(argv[:-1]) if a.startswith("--")]
        for i in data.draw(st.lists(st.sampled_from(values), max_size=2), label="options") \
                if values else ():
            argv[i] = data.draw(_OPTION_VALUES, label=argv[i - 1])
        argv = [a.format(**paths) for a in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if "usage:" in err.getvalue():  # argparse rejected an option value
        assert code == 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out


class TestParserReuse:
    """One parser serves every main call of a process."""

    def test_patched_command_is_the_one_called(self, files, capsys, monkeypatch):
        argv = ["validate", "--channel", files["channel"]]
        assert run_cli(argv, capsys)[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_validate", lambda args: calls.append(args.channel) or 7)
        assert run_cli(argv, capsys)[0] == 7
        assert calls == [files["channel"]]

    def test_interleaved_calls_print_what_fresh_parsers_print(self, files, capsys):
        out_file = str(files["tmp"] / "validate.json")
        runs = [
            ["validate", "--channel", files["channel"], "--scheme", files["aux"],
             "--out", out_file],
            ["validate", "--channel", files["channel"]],
            ["region", "--theorem", "t2", "--channel", files["channel"],
             "--scheme", files["ux"]],
            ["compare", files["region"], files["region"], "--out", out_file],
            ["compare", files["region"], files["region"]],
            ["validate", "--channel", files["channel"], "--scheme", files["aux"]],
            ["raw-project", "--channel", files["channel"], "--scheme", files["aux"]],
            ["validate", "--channel", files["channel"], "--bogus"],
            ["validate", "--channel", files["channel"]],
        ]
        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        reused = [run_cli(argv, capsys) for argv in runs]
        assert [(code, out) for code, out, _ in reused] == [(code, out) for code, out, _ in fresh]
        assert [out for _, out, _ in fresh].count("") == 3  # two --out runs, one usage error


class TestConsoleScript:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # the LP layer is imported on the first solve
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, bcsi.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_subprocess_entry_point(self, files):
        out = subprocess.run(
            [sys.executable, "-m", "bcsi.cli", "classify",
             "--channel", files["channel"], "--resolution", "4"],
            capture_output=True, text=True)
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert data["deterministic"]["holds"] is True
