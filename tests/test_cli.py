import json
import subprocess
import sys

import pytest

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

    def test_byte_identical_reruns(self, files, capsys):
        args = ["simulate", "--channel", files["channel"], "--scheme",
                files["aux"], "--rates", "R1=0.5", "--n", "6",
                "--trials", "80", "--seed", "9"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

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
}


@pytest.mark.parametrize("argv", list(_BAD_ARGV.values()), ids=list(_BAD_ARGV))
def test_bad_option_or_out_directory_exit_1(files, capsys, argv):
    region = files["tmp"] / "region.json"
    assert main(["region", "--theorem", "t2", "--channel", files["channel"],
                 "--scheme", files["ux"], "--out", str(region)]) == 0
    argv = [a.format(region=region, **files) for a in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


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
