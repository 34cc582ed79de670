import json
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import skdlab
from skdlab import cli, experiment
from skdlab.capacity import bac_capacity, qsc_capacity
from skdlab.cli import _experiment_config, _ini_schema, _load_ini, main
from skdlab.data import generate_synthetic, split_dataset
from skdlab.experiment import VARIANTS, ExperimentConfig
from skdlab.network import init_network, save_checkpoint
from skdlab.training import student_train_config, train_student, train_teacher

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_INI = """\
[data]
task = SL22
samples_per_subclass = 12,12,26,26
difficulty = 0.2,0.8,0.2,0.8
seed = 77

[teacher]
epochs = 4

[student]
epochs = 3

[experiment]
n_seeds = 2
"""


@pytest.fixture()
def tiny_config(tmp_path):
    p = tmp_path / "tiny.ini"
    p.write_text(TINY_INI)
    return p


@pytest.fixture()
def data_dir(tmp_path, tiny_config):
    out = tmp_path / "data"
    assert main(["generate", "-c", str(tiny_config), "-o", str(out)]) == 0
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a subclass-level checkpoint and the data it does not fit: a 3-feature network on 2-D
# SL22 data, or an SL22 subclass network (4 outputs) on SL21 data (3 subclasses)
MISFITS = {
    "input-width": (TINY_INI, (3, 8, 4)),
    "output-width": (
        "[data]\ntask = SL21\nsamples_per_subclass = 12,12,26\ndifficulty = 0.2,0.8,0.2\n",
        (2, 8, 4),
    ),
}


def misfit_checkpoint(tmp_path, misfit):
    ini_text, layer_dims = MISFITS[misfit]
    ini = tmp_path / "misfit.ini"
    ini.write_text(ini_text)
    data = tmp_path / "misfit_data"
    assert main(["generate", "-c", str(ini), "-o", str(data)]) == 0
    ckpt = tmp_path / "misfit.json"
    save_checkpoint(init_network(layer_dims, seed=0), ckpt, extra={"label_level": "subclass"})
    return ckpt, data


class TestCapacityCommand:
    def test_symmetric_channel(self, capsys):
        code, out, _ = run(capsys, "capacity", "--qsc", "4", "0.7")
        assert code == 0 and out == "0.643220\n"

    def test_binary_asymmetric(self, capsys):
        code, out, _ = run(capsys, "capacity", "--bac", "0.9", "0.9")
        assert code == 0 and out == "0.531004\n"

    def test_z_channel(self, capsys):
        code, out, _ = run(capsys, "capacity", "--z", "0.5")
        assert code == 0 and out == "0.321928\n"

    def test_explicit_matrix(self, capsys, tmp_path):
        m = tmp_path / "chan.csv"
        m.write_text("0.9,0.1\n0.2,0.8\n")
        code, out, _ = run(capsys, "capacity", "--matrix", str(m))
        assert code == 0 and out == "0.397754\n"  # equals the (0.9, 0.8) closed form

    def test_near_chance_matrix(self, capsys, tmp_path):
        m = tmp_path / "confusion.csv"
        m.write_text("600,400\n597,403\n")
        code, out, _ = run(capsys, "capacity", "--matrix", str(m))
        assert code == 0 and out == "0.000007\n"  # bac_capacity(0.6, 0.403) = 6.754e-06

    @pytest.mark.parametrize("text", ["5e-324,1\n0,1\n", "5e-324,1\n0,1\n0,1\n"], ids=["2x2", "3x2"])
    def test_column_that_underflows_carries_no_bits(self, capsys, tmp_path, text):
        m = tmp_path / "tiny.csv"
        m.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "capacity", "--matrix", str(m))
        assert (code, out, err) == (0, "0.000000\n", "")

    def test_non_integer_size_rejected(self, capsys):
        code, _, err = run(capsys, "capacity", "--qsc", "4.5", "0.7")
        assert code == 2 and "error:" in err

    def test_whole_float_size_reads_as_its_int(self, capsys):
        assert run(capsys, "capacity", "--qsc", "3.0", "0.7") == (0, "0.403672\n", "")
        assert run(capsys, "capacity", "--qsc", "3", "0.7") == (0, "0.403672\n", "")

    def test_fractional_size_names_the_whole_number_rule(self, capsys):
        code, out, err = run(capsys, "capacity", "--qsc", "2.5", "0.7")
        assert (code, out, err) == (2, "", "error: alphabet size must be a whole number, got 2.5\n")

    def test_missing_matrix_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "capacity", "--matrix", str(tmp_path / "nope.csv"))
        assert code == 2 and "not found" in err

    def test_ragged_matrix(self, capsys, tmp_path):
        m = tmp_path / "bad.csv"
        m.write_text("0.9,0.1\n1.0\n")
        code, _, err = run(capsys, "capacity", "--matrix", str(m))
        assert code == 2 and "ragged" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_matrix_cell(self, capsys, tmp_path, cell):
        m = tmp_path / "bad.csv"
        m.write_text(f"1.0,0.0\n{cell},0.5\n")
        code, out, err = run(capsys, "capacity", "--matrix", str(m))
        assert code == 2 and out == "" and "bad.csv:2: non-finite" in err

    def test_overflowing_matrix_row(self, capsys, tmp_path):
        # every cell is finite, but the first row sums to inf: refused with its line, unwarned
        m = tmp_path / "big.csv"
        m.write_text("1,1\n1e308,1e308\n")
        code, out, err = run(capsys, "capacity", "--matrix", str(m))
        message = f"error: {m}:2: confusion counts must sum to a finite number in every row\n"
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "text, message",
        [("0.9,x\n0.1,0.9\n", "bad.csv:1: could not convert string to float"),
         ("\n \n,\n", "bad.csv: no rows")],
        ids=["non-number", "blank-lines"],
    )
    def test_malformed_matrix_is_named(self, capsys, tmp_path, text, message):
        m = tmp_path / "bad.csv"
        m.write_text(text)
        code, out, err = run(capsys, "capacity", "--matrix", str(m))
        assert code == 2 and out == "" and err.startswith(f"error: {tmp_path / message}"), err

    def test_channel_selection_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["capacity"])


class TestBitsCommand:
    FLAGS = [
        "--p-h0", "0.9", "--p-h1", "0.9", "--n-s", "2", "--p-s", "0.85",
        "--n-h0", "2162", "--n-h1", "990",
    ]

    def test_parameter_route(self, capsys):
        code, out, _ = run(capsys, "bits", *self.FLAGS)
        assert code == 0
        assert out.splitlines() == [
            "class_bits=0.531004",
            "subclass_bits=0.122544",
            "total_bits=0.653548",
        ]

    def test_parameter_route_writes_reports(self, capsys, tmp_path):
        out_dir = tmp_path / "bits"
        code, _, _ = run(capsys, "bits", *self.FLAGS, "--task", "demo", "-o", str(out_dir))
        assert code == 0
        assert (out_dir / "bits.csv").read_bytes() == (
            b"task,class_bits,subclass_bits,total_bits\r\n"
            b"demo,0.531004,0.122544,0.653548\r\n"
        )
        assert (out_dir / "bits.json").read_bytes() == textwrap.dedent("""\
            [
              {
                "task": "demo",
                "class_bits": 0.5310044064107189,
                "subclass_bits": 0.12254381292219656,
                "total_bits": 0.6535482193329154,
                "fitted": {
                  "p_h0": 0.9,
                  "p_h1": 0.9,
                  "n_s": 2,
                  "p_s": 0.85
                },
                "empirical": {},
                "counts": {
                  "n_h0": 2162,
                  "n_h1": 990
                }
              }
            ]
            """).encode()

    def test_missing_parameters_listed(self, capsys):
        code, _, err = run(capsys, "bits", "--p-h0", "0.9", "--p-s", "0.85")
        assert code == 2
        assert err == "error: missing --p-h1 --n-s --n-h0 --n-h1 (or use --from-confusion)\n"

    def test_single_subclass_alternative_needs_no_p_s(self, capsys, tmp_path):
        flags = ["--p-h0", "0.9", "--p-h1", "0.8", "--n-s", "1", "--n-h0", "100", "--n-h1", "50"]
        code, out, _ = run(capsys, "bits", *flags, "-o", str(tmp_path))
        assert code == 0
        assert out.splitlines()[:2] == ["class_bits=0.397754", "total_bits=0.397754"]
        fitted = json.loads((tmp_path / "bits.json").read_text())[0]["fitted"]
        assert fitted == {"p_h0": 0.9, "p_h1": 0.8, "n_s": 1, "p_s": 1.0}

    def test_p_s_with_single_subclass_alternative_rejected(self, capsys, tmp_path):
        flags = ["--p-h0", "0.9", "--p-h1", "0.8", "--n-s", "1", "--p-s", "0.3"]
        code, out, err = run(capsys, "bits", *flags, "--n-h0", "100", "--n-h1", "50",
                             "-o", str(tmp_path / "bits"))
        assert (code, out) == (2, "")
        assert err == "error: --p-s applies only when --n-s is above 1\n"
        assert not (tmp_path / "bits").exists()

    def test_confusion_route(self, capsys, tmp_path):
        hier = tmp_path / "hierarchy.json"
        hier.write_text(json.dumps({"subclasses_per_class": [1, 2]}))
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n20,80\n")
        sub_csv = tmp_path / "sub.csv"
        sub_csv.write_text("40,10\n10,40\n")
        code, out, _ = run(
            capsys, "bits", "--from-confusion", str(class_csv),
            "--subclass-confusion", str(sub_csv), "--hierarchy", str(hier),
        )
        assert code == 0
        expected = bac_capacity(0.9, 0.8) + 0.5 * qsc_capacity(2, 0.8)
        assert f"total_bits={expected:.6f}" in out.splitlines()

    def test_confusion_route_needs_hierarchy(self, capsys, tmp_path):
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n20,80\n")
        code, _, err = run(capsys, "bits", "--from-confusion", str(class_csv))
        assert code == 2 and "--hierarchy" in err

    def test_confusion_route_counts_subclass_files(self, capsys, tmp_path):
        hier = tmp_path / "hierarchy.json"
        hier.write_text(json.dumps({"subclasses_per_class": [1, 2]}))
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n20,80\n")
        code, _, err = run(
            capsys, "bits", "--from-confusion", str(class_csv), "--hierarchy", str(hier)
        )
        assert code == 2 and "1 --subclass-confusion" in err

    def test_confusion_route_checks_class_confusion_shape(self, capsys, tmp_path):
        hier = tmp_path / "hierarchy.json"
        hier.write_text(json.dumps({"subclasses_per_class": [2, 1]}))
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n")
        sub_csv = tmp_path / "sub.csv"
        sub_csv.write_text("40,10\n10,40\n")
        code, _, err = run(
            capsys, "bits", "--from-confusion", str(class_csv),
            "--subclass-confusion", str(sub_csv), "--hierarchy", str(hier),
        )
        assert code == 2 and "class.csv: class confusion must be 2x2" in err

    @pytest.mark.parametrize(
        "value, message",
        [(3, "subclasses_per_class must be a list of integers"),
         ([1.5, 2], "subclass count must be a whole number, got 1.5")],
        ids=["3", "value1"],
    )
    def test_confusion_route_rejects_malformed_hierarchy(self, capsys, tmp_path, value, message):
        hier = tmp_path / "hierarchy.json"
        hier.write_text(json.dumps({"subclasses_per_class": value}))
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n20,80\n")
        code, _, err = run(
            capsys, "bits", "--from-confusion", str(class_csv), "--hierarchy", str(hier)
        )
        assert (code, err) == (2, f"error: {hier}: {message}\n")

    @pytest.mark.parametrize(
        "text",
        ["{bad", '{"subclasses_per_class": [0, 2]}', '{"subclasses_per_class": []}',
         '{"subclasses": [1, 2]}', '{"subclasses_per_class": [true, 2]}'],
    )
    def test_bad_hierarchy_file_is_named(self, capsys, tmp_path, text):
        hier = tmp_path / "hierarchy.json"
        hier.write_text(text)
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n20,80\n")
        code, _, err = run(
            capsys, "bits", "--from-confusion", str(class_csv), "--hierarchy", str(hier)
        )
        assert code == 2 and err.startswith(f"error: {hier}: "), err

    @pytest.mark.parametrize("name", ["directory", "missing.json"])
    def test_hierarchy_must_be_a_file(self, capsys, tmp_path, name):
        (tmp_path / "directory").mkdir()
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n20,80\n")
        code, _, err = run(
            capsys, "bits", "--from-confusion", str(class_csv),
            "--hierarchy", str(tmp_path / name),
        )
        assert code == 2 and f"hierarchy not found: {tmp_path / name}" in err, err

    @pytest.mark.parametrize(
        "bad, text, message",
        [
            ("sub", "1,0,0\n0,1,0\n0,0,1\n", "sub.csv: class 0 subclass confusion must be 2x2"),
            ("sub", "40,-1\n10,40\n", "sub.csv:1: negative cell"),
            ("class", "90,-10\n20,80\n", "class.csv:1: negative cell"),
            ("class", "90,10\n0,0\n", "class.csv:2: all-zero row"),
            ("sub", "0,0\n10,40\n", "sub.csv:1: all-zero row"),
            ("class", "90,10\n20,80.7\n", "class.csv:2: confusion counts must be whole numbers"),
            ("sub", "40,10\n10,39.5\n", "sub.csv:2: confusion counts must be whole numbers"),
            ("sub", "30,10\n10,10\n",
             "sub.csv: class 0 subclass confusion holds 60 samples, its class confusion row 100"),
            # each cell finite, a row or the total past DBL_MAX: refused without numpy's warning
            ("class", "1e308,1e308\n20,80\n",
             "class.csv:1: confusion counts must sum to a finite number in every row"),
            ("sub", "40,10\n1e308,1e308\n",
             "sub.csv:2: confusion counts must sum to a finite number in every row"),
            ("sub", "1e308,0\n0,1e308\n",
             "sub.csv: class 0 subclass confusion holds inf samples, its class confusion row 100"),
        ],
        ids=[
            "sub-shape", "sub-negative", "class-negative", "class-zero-row", "sub-zero-row",
            "class-fraction", "sub-fraction", "sub-total", "class-overflow", "sub-overflow",
            "sub-total-overflow",
        ],
    )
    def test_bad_confusion_file_is_named(self, capsys, tmp_path, bad, text, message):
        hier = tmp_path / "hierarchy.json"
        hier.write_text(json.dumps({"subclasses_per_class": [2, 1]}))
        files = {"class": "90,10\n20,80\n", "sub": "40,10\n10,40\n", bad: text}
        for name, content in files.items():
            (tmp_path / f"{name}.csv").write_text(content)
        code, _, err = run(
            capsys, "bits", "--from-confusion", str(tmp_path / "class.csv"),
            "--subclass-confusion", str(tmp_path / "sub.csv"), "--hierarchy", str(hier),
        )
        assert code == 2 and err.startswith(f"error: {tmp_path / message}"), err

    def test_confusion_route_rejects_non_finite_cell(self, capsys, tmp_path):
        hier = tmp_path / "hierarchy.json"
        hier.write_text(json.dumps({"subclasses_per_class": [1, 1]}))
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,inf\n20,80\n")
        code, _, err = run(
            capsys, "bits", "--from-confusion", str(class_csv), "--hierarchy", str(hier)
        )
        assert code == 2 and "class.csv:1: non-finite" in err


class TestGenerateCommand:
    def test_writes_three_files(self, capsys, tiny_config, tmp_path):
        out = tmp_path / "gen"
        code, stdout, _ = run(capsys, "generate", "-c", str(tiny_config), "-o", str(out))
        assert code == 0
        for name in ("hierarchy.json", "train.csv", "test.csv"):
            assert (out / name).is_file()
        assert "(38 samples)" in stdout  # 76 total at the 0.5 default fraction

    def test_byte_identical_reruns(self, capsys, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "generate", "-c", str(tiny_config), "-o", str(a))
        run(capsys, "generate", "-c", str(tiny_config), "-o", str(b))
        for name in ("hierarchy.json", "train.csv", "test.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "-c", str(tmp_path / "no.ini"), "-o", str(tmp_path))
        assert code == 2 and "config not found" in err

    def test_unknown_task(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[data]\ntask = SL99\n")
        code, _, err = run(capsys, "generate", "-c", str(bad), "-o", str(tmp_path / "x"))
        assert code == 2 and "unknown task" in err

    def test_bad_value_names_section_and_key(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[teacher]\nepochs = pony\n")
        code, _, err = run(capsys, "generate", "-c", str(bad), "-o", str(tmp_path / "x"))
        assert code == 2 and "[teacher] epochs" in err

    @pytest.mark.parametrize(
        "text, named",
        [("[techer]\n", "[techer]: unknown section"),
         ("[teacher]\nepoch = 4\n", "[teacher] epoch: unknown key"),
         ("[student]\nweight_decay = -1\n",
          "[student] weight_decay: weight_decay must be finite and non-negative"),
         ("[distill]\ntau_kd = nan\n", "[distill] tau_kd: tau must be finite and positive"),
         ("[distill]\ntau_skd = 4\ntau_kd = nan\nlam = 0.4\n", "[distill] tau_kd: tau must"),
         ("[experiment]\nn_seeds = 1\n", "[experiment] n_seeds: n_seeds must be at least 2"),
         ("[data]\nseed = -1\n", "[data] seed: seed must be non-negative"),
         ("[data]\nsamples_per_subclass = 1,12,26,26\n",
          "[data] samples_per_subclass: a subclass of 1 sample cannot split"),
         ("epochs = 4\n", "bad.ini: File contains no section headers"),
         ("[teacher]\nepochs = pony\n", "error: [teacher] epochs = 'pony': not a number\n"),
         ("[data]\ndifficulty = 0.2,0.8\n",
          "error: [data] difficulty: difficulty has 2 entries, expected 4\n"),
         ("[data]\ndifficulty = 0.2,-0.1,0.2,0.8\n",
          "error: [data] difficulty: difficulty must lie in [0, 1]\n"),
         ("[data]\ndifficulty = 0.2,0.8,1.1,0.8\n",
          "error: [data] difficulty: difficulty must lie in [0, 1]\n"),
         ("[data]\ndifficulty = 0.2,0.8,0.2,nan\n",
          "error: [data] difficulty: difficulty must lie in [0, 1]\n")],
    )
    def test_unknown_section_or_key_is_named(self, capsys, tmp_path, text, named):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        code, _, err = run(capsys, "generate", "-c", str(bad), "-o", str(tmp_path / "x"))
        assert code == 2 and named in err
        assert "<string>" not in err, err

    def test_count_arity_checked(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[data]\ntask = SL22\nsamples_per_subclass = 10,10\n")
        code, _, err = run(capsys, "generate", "-c", str(bad), "-o", str(tmp_path / "x"))
        assert code == 2 and "needs 4" in err


class TestTrainCommand:
    def test_teacher_then_students(self, capsys, tiny_config, data_dir, tmp_path):
        tdir = tmp_path / "teacher"
        code, stdout, _ = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tdir),
        )
        assert code == 0
        assert (tdir / "checkpoint.json").is_file()
        report = json.loads((tdir / "metrics.json").read_text())
        assert report["config_ini"] == TINY_INI
        assert report["label_level"] == "subclass"
        assert len(report["loss_per_epoch"]) == 4
        assert "binary_f1=" in stdout

        sdir = tmp_path / "student"
        code, stdout, _ = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "student", "--mode", "skd",
            "--teacher", str(tdir / "checkpoint.json"), "-o", str(sdir),
        )
        assert code == 0
        meta = json.loads((sdir / "metrics.json").read_text())
        assert meta["mode"] == "skd" and meta["label_level"] == "subclass"
        assert len(meta["loss_per_epoch"]) == 3

    def test_train_outputs_deterministic(self, capsys, tiny_config, data_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(
                capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
                "--role", "teacher", "--labels", "class", "-o", str(out),
            )
            assert code == 0
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    def test_student_needs_mode(self, capsys, tiny_config, data_dir, tmp_path):
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "student", "-o", str(tmp_path / "s"),
        )
        assert code == 2 and "requires --mode" in err

    def test_teacher_rejects_student_flags(self, capsys, tiny_config, data_dir, tmp_path):
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "--mode", "skd", "-o", str(tmp_path / "t"),
        )
        assert code == 2 and "only to --role student" in err

    def test_skd_needs_teacher_flag(self, capsys, tiny_config, data_dir, tmp_path):
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "student", "--mode", "skd", "-o", str(tmp_path / "s"),
        )
        assert code == 2 and "requires --teacher" in err

    def test_missing_teacher_checkpoint(self, capsys, tiny_config, data_dir, tmp_path):
        missing = tmp_path / "no_teacher" / "checkpoint.json"
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "student", "--mode", "skd", "--teacher", str(missing),
            "-o", str(tmp_path / "s"),
        )
        assert code == 2 and str(missing) in err
        assert not (tmp_path / "s").exists()

    def test_baseline_rejects_teacher_flag(self, capsys, tiny_config, data_dir, tmp_path):
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "student", "--mode", "baseline",
            "--teacher", "whatever.json", "-o", str(tmp_path / "s"),
        )
        assert code == 2 and "takes no --teacher" in err

    def test_student_rejects_labels(self, capsys, tiny_config, data_dir, tmp_path):
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "student", "--mode", "baseline", "--labels", "class",
            "-o", str(tmp_path / "s"),
        )
        assert code == 2 and "--labels applies only to --role teacher" in err
        assert not (tmp_path / "s").exists()

    def test_kd_rejects_subclass_teacher(self, capsys, tiny_config, data_dir, tmp_path):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "--labels", "subclass", "-o", str(tdir),
        )
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "student", "--mode", "kd",
            "--teacher", str(tdir / "checkpoint.json"), "-o", str(tmp_path / "s"),
        )
        assert code == 2
        assert "teacher level mismatch" in err and "'subclass'" in err

    @pytest.mark.parametrize("misfit", list(MISFITS))
    def test_teacher_that_does_not_fit_the_data_is_named(self, capsys, tiny_config, tmp_path, misfit):
        ckpt, data = misfit_checkpoint(tmp_path, misfit)
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data),
            "--role", "student", "--mode", "skd", "--teacher", str(ckpt), "-o", str(tmp_path / "s"),
        )
        assert code == 2 and err.startswith(f"error: {ckpt}: ") and "width" in err, err
        assert not (tmp_path / "s").exists()

    def test_teacher_without_level_is_read_at_its_width(self, capsys, tiny_config, data_dir, tmp_path):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tdir),
        )
        payload = json.loads((tdir / "checkpoint.json").read_text())
        del payload["label_level"]
        (tdir / "no_level.json").write_text(json.dumps(payload))
        students = {}
        for name in ("checkpoint.json", "no_level.json"):
            code, _, err = run(
                capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
                "--role", "student", "--mode", "skd",
                "--teacher", str(tdir / name), "-o", str(tmp_path / name),
            )
            assert code == 0, err
            students[name] = (tmp_path / name / "checkpoint.json").read_bytes()
        assert students["no_level.json"] == students["checkpoint.json"]

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_feature_is_an_input_error(self, capsys, tiny_config, data_dir, tmp_path, cell):
        train_csv = data_dir / "train.csv"
        lines = train_csv.read_text().splitlines()
        lines[3] = ",".join([cell] + lines[3].split(",")[1:])
        train_csv.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tmp_path / "t"),
        )
        assert code == 2 and "train.csv:4: non-finite feature" in err
        assert not (tmp_path / "t").exists()  # rejected before training

    @pytest.mark.parametrize(
        "text, message",
        [("", "train.csv: no samples"),
         ("f0,f1,sub,class\n0.5,0.5,0,0\n", "train.csv: malformed header"),
         ("x0,f1,subclass,class\n0.5,0.5,0,0\n", "train.csv: malformed feature columns"),
         ("f0,f1,subclass,class\n0.5,0.5,0\n", "train.csv:2: expected 4 fields, got 3"),
         ("f0,f1,subclass,class\n0.5,0.5,4,1\n", "train.csv:2: subclass index 4 out of range")],
        ids=["empty", "header", "feature-columns", "field-count", "subclass-range"],
    )
    def test_malformed_data_csv_is_named(
        self, capsys, tiny_config, data_dir, tmp_path, text, message
    ):
        (data_dir / "train.csv").write_text(text)
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tmp_path / "t"),
        )
        assert code == 2 and err.startswith(f"error: {data_dir / message}"), err
        assert not (tmp_path / "t").exists()

    def test_missing_data_dir_file(self, capsys, tiny_config, data_dir, tmp_path):
        (data_dir / "test.csv").unlink()
        code, _, err = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tmp_path / "t"),
        )
        assert code == 2 and "missing" in err


class TestTrainingKeywords:
    """perfbench's tracer names each training span from the label_level and cfg keywords.

    A call that passed them by position would be counted under another variant's name.
    """

    @staticmethod
    def record_calls(monkeypatch, module, calls):
        for name in ("train_teacher", "train_student"):
            def recorder(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append((_name, args, kwargs))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, recorder)

    @staticmethod
    def span_name(name, kwargs):
        """The variant a span is counted under, read from the keywords alone."""
        if name == "train_teacher":
            return f"teacher_{kwargs['label_level']}"
        return f"student_{kwargs['cfg'].distill.mode}"

    def test_train_variants_passes_keywords(self, monkeypatch):
        calls = []
        self.record_calls(monkeypatch, experiment, calls)
        cfg = replace(
            ExperimentConfig(samples_per_subclass=(12, 12, 26, 26)),
            teacher=replace(ExperimentConfig.teacher, epochs=1),
            student=replace(ExperimentConfig.student, epochs=1),
        )
        train_set, _ = split_dataset(generate_synthetic(cfg.data_spec(5)), cfg.train_fraction, 5)
        experiment.train_variants(cfg, 5, train_set)
        assert all(args == (train_set,) for _, args, _ in calls)
        assert [self.span_name(name, kwargs) for name, _, kwargs in calls] == list(VARIANTS)

    @pytest.mark.parametrize(
        "flags, variant",
        [(["--role", "teacher", "--labels", "class"], "teacher_class"),
         (["--role", "student", "--mode", "subclass"], "student_subclass")],
        ids=["teacher", "student"],
    )
    def test_cmd_train_passes_keywords(
        self, capsys, monkeypatch, tiny_config, data_dir, tmp_path, flags, variant
    ):
        calls = []
        self.record_calls(monkeypatch, cli, calls)
        code, _, _ = run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir), *flags,
            "-o", str(tmp_path / "out"),
        )
        assert code == 0
        [(name, args, kwargs)] = calls
        assert len(args) == 1 and self.span_name(name, kwargs) == variant

    @pytest.mark.parametrize("train", [train_teacher, train_student])
    def test_positional_cfg_rejected(self, data_dir, train):
        train_set, _ = cli._load_data_dir(data_dir)
        with pytest.raises(TypeError):
            train(train_set, student_train_config(epochs=1))


class TestEvaluateCommand:
    def test_matches_training_metrics(self, capsys, tiny_config, data_dir, tmp_path):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tdir),
        )
        trained = json.loads((tdir / "metrics.json").read_text())["metrics"]
        out_json = tmp_path / "eval.json"
        code, stdout, _ = run(
            capsys, "evaluate", "--checkpoint", str(tdir / "checkpoint.json"),
            "--data", str(data_dir), "-o", str(out_json),
        )
        assert code == 0
        assert f"binary_f1={trained['binary_f1']:.6f}" in stdout
        payload = json.loads(out_json.read_text())
        assert payload["split"] == "test"
        assert payload["metrics"]["binary_f1"] == trained["binary_f1"]

    def test_train_split_selectable(self, capsys, tiny_config, data_dir, tmp_path):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tdir),
        )
        code, stdout, _ = run(
            capsys, "evaluate", "--checkpoint", str(tdir / "checkpoint.json"),
            "--data", str(data_dir), "--split", "train",
        )
        assert code == 0 and stdout.startswith("binary_f1=")

    def test_label_level_contradicting_width(self, capsys, tiny_config, data_dir, tmp_path):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "--labels", "subclass", "-o", str(tdir),
        )
        ckpt = tdir / "checkpoint.json"
        ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "label_level": "class"}))
        code, _, err = run(
            capsys, "evaluate", "--checkpoint", str(ckpt), "--data", str(data_dir)
        )
        assert code == 2 and "width" in err

    def test_unknown_label_level_names_the_checkpoint(
        self, capsys, tiny_config, data_dir, tmp_path
    ):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tdir),
        )
        ckpt = tdir / "checkpoint.json"
        ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "label_level": "coarse"}))
        code, _, err = run(
            capsys, "evaluate", "--checkpoint", str(ckpt), "--data", str(data_dir)
        )
        assert code == 2 and "checkpoint.json" in err and "'coarse'" in err

    @pytest.mark.parametrize("labels", ["class", "subclass"])
    def test_checkpoint_without_level_is_read_at_its_width(
        self, capsys, tiny_config, data_dir, tmp_path, labels
    ):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "--labels", labels, "-o", str(tdir),
        )
        ckpt = tdir / "checkpoint.json"
        payload = json.loads(ckpt.read_text())
        del payload["label_level"]
        ckpt.write_text(json.dumps(payload))
        out_json = tmp_path / "eval.json"
        code, _, _ = run(
            capsys, "evaluate", "--checkpoint", str(ckpt), "--data", str(data_dir),
            "-o", str(out_json),
        )
        assert code == 0
        result = json.loads(out_json.read_text())
        assert result["label_level"] == labels
        assert result["metrics"] == json.loads((tdir / "metrics.json").read_text())["metrics"]

    def test_checkpoint_without_level_on_a_class_level_tree(self, capsys, tmp_path):
        ini = tmp_path / "classlevel.ini"
        ini.write_text("[data]\ntask = ClassLevel\nsamples_per_subclass = 12,26\ndifficulty = 0.2,0.8\n")
        assert main(["generate", "-c", str(ini), "-o", str(tmp_path / "data")]) == 0
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(init_network((2, 3, 2), seed=0), ckpt)
        out_json = tmp_path / "eval.json"
        code, _, _ = run(
            capsys, "evaluate", "--checkpoint", str(ckpt), "--data", str(tmp_path / "data"),
            "-o", str(out_json),
        )
        assert code == 0
        result = json.loads(out_json.read_text())
        assert result["label_level"] == "class" and "subclass_confusion" not in result["metrics"]

    @pytest.mark.parametrize("misfit", list(MISFITS))
    def test_checkpoint_that_does_not_fit_the_data_is_named(self, capsys, tmp_path, misfit):
        ckpt, data = misfit_checkpoint(tmp_path, misfit)
        code, _, err = run(capsys, "evaluate", "--checkpoint", str(ckpt), "--data", str(data))
        assert code == 2 and err.startswith(f"error: {ckpt}: ") and "width" in err, err

    def test_truncated_checkpoint_is_an_input_error(self, capsys, tiny_config, data_dir, tmp_path):
        tdir = tmp_path / "teacher"
        run(
            capsys, "train", "-c", str(tiny_config), "--data", str(data_dir),
            "--role", "teacher", "-o", str(tdir),
        )
        ckpt = tdir / "checkpoint.json"
        truncated = json.loads(ckpt.read_text())
        truncated["weights"].pop()
        truncated["biases"].pop()
        non_number = {
            "format": "skdlab-net-v1", "layer_dims": [2, 2], "weights": [{"a": 1}], "biases": [[0, 0]]
        }
        non_finite = []
        for value in (float("nan"), float("inf")):  # json writes these as NaN and Infinity
            payload = json.loads(ckpt.read_text())
            payload["weights"][0][0][0] = value
            non_finite.append(payload)
        stacked = json.loads(ckpt.read_text())  # a stack of one network is not a checkpoint
        for key in ("weights", "biases"):
            stacked[key] = [[array] for array in stacked[key]]
        payloads = [
            json.dumps(p)
            for p in (truncated, {"format": "skdlab-net-v1"}, [1, 2], non_number, *non_finite, stacked)
        ]
        for text in (*payloads, "{bad"):
            ckpt.write_text(text)
            for command in (
                ["evaluate", "--checkpoint", str(ckpt)],
                ["train", "-c", str(tiny_config), "--role", "student", "--mode", "skd",
                 "--teacher", str(ckpt), "-o", str(tmp_path / "student")],
            ):
                code, _, err = run(capsys, *command, "--data", str(data_dir))
                assert code == 2 and "checkpoint.json" in err, (command[0], text)

    def test_failed_write_is_a_runtime_error(self, capsys, data_dir, tmp_path):
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(init_network((2, 3, 2), seed=0), ckpt)
        code, out, err = run(
            capsys, "evaluate", "--checkpoint", str(ckpt), "--data", str(data_dir),
            "-o", str(tmp_path / "missing" / "e.json"),
        )
        assert code == 1 and out.splitlines()[-1].startswith("binary_f1=") and "e.json" in err, err

    def test_missing_checkpoint(self, capsys, data_dir):
        code, _, err = run(
            capsys, "evaluate", "--checkpoint", "missing.json", "--data", str(data_dir)
        )
        assert code == 2 and "checkpoint not found" in err


class TestExperimentCommand:
    def test_end_to_end_and_determinism(self, capsys, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        code, stdout, _ = run(
            capsys, "experiment", "-c", str(tiny_config), "-o", str(a)
        )
        assert code == 0
        variant_lines = [l for l in stdout.splitlines() if "binary_f1" in l]
        assert len(variant_lines) == 6
        for name in ("report.json", "summary.csv", "per_seed.csv", "run.log"):
            assert (a / name).is_file()
        report = json.loads((a / "report.json").read_text())
        assert report["config_ini"] == TINY_INI
        assert len(report["per_seed"]) == 2

        code, _, _ = run(
            capsys, "experiment", "-c", str(tiny_config), "-o", str(b), "--jobs", "2"
        )
        assert code == 0
        # reports carry no timestamps, so parallel reruns match byte for byte
        for name in ("report.json", "summary.csv", "per_seed.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize(
        "section", ["[distill]\nlam = 1.5\n", "[distill]\ntau_kd = 0\n",
                    "[data]\ndifficulty = 0.2,0.8\n", "[data]\ntrain_fraction = 1.5\n",
                    "[teacher]\nhidden_layers = 0\n", "[teacher]\nepoch = 4\n",
                    "[techer]\nepochs = 1\n", "[DEFAULT]\nepochs = 4\n",
                    "[distill]\ntau_kd = nan\n", "[teacher]\nlearning_rate = nan\n",
                    "[teacher]\nlearning_rate = -0.5\n", "[data]\ntask = SL%22\n",
                    "[data]\nfeature_dim = 1\n", "[experiment]\nn_seeds = 1\n",
                    "[data]\nseed = -1\n", "[data]\nsamples_per_subclass = 1,12,26,26\n"],
    )
    def test_bad_config_rejected_before_training(self, capsys, tmp_path, monkeypatch, section):
        import skdlab.experiment

        def no_training(*args, **kwargs):
            raise AssertionError("a seed trained before the config was checked")

        monkeypatch.setattr(skdlab.experiment, "run_single_seed", no_training)
        bad = tmp_path / "bad.ini"
        bad.write_text(section)
        code, _, err = run(capsys, "experiment", "-c", str(bad), "-o", str(tmp_path / "x"))
        assert code == 2 and err.startswith("error: ")

    def test_unsplittable_subclass_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[data]\nsamples_per_subclass = 1,12,26,26\n")
        code, _, err = run(capsys, "experiment", "-c", str(bad), "-o", str(tmp_path / "x"))
        assert code == 2 and "[data] samples_per_subclass" in err and "cannot split" in err

    def test_bad_jobs_value(self, capsys, tiny_config, tmp_path):
        code, _, err = run(
            capsys, "experiment", "-c", str(tiny_config), "-o", str(tmp_path / "x"),
            "--jobs", "0",
        )
        assert (code, err) == (2, "error: jobs must be at least 1\n")

    def test_failed_seed_is_reported(self, capsys, tmp_path, monkeypatch):
        import skdlab.experiment

        real = skdlab.experiment.run_single_seed

        def flaky(cfg, seed):
            if seed == 78:
                raise FloatingPointError("synthetic failure")
            return real(cfg, seed)

        monkeypatch.setattr(skdlab.experiment, "run_single_seed", flaky)
        ini = tmp_path / "three.ini"
        ini.write_text(TINY_INI.replace("n_seeds = 2", "n_seeds = 3"))
        code, _, err = run(capsys, "experiment", "-c", str(ini), "-o", str(tmp_path / "x"))
        assert code == 0 and "1 seed(s) failed; see report.json" in err
        report = json.loads((tmp_path / "x" / "report.json").read_text())
        assert [e["seed"] for e in report["per_seed"]] == [77, 79]
        assert report["failures"] == [{"seed": 78, "error": "FloatingPointError: synthetic failure"}]

    def test_every_seed_failing_is_a_runtime_error(self, capsys, tiny_config, tmp_path, monkeypatch):
        import skdlab.experiment

        def broken(cfg, seed):
            raise FloatingPointError("synthetic failure")

        monkeypatch.setattr(skdlab.experiment, "run_single_seed", broken)
        code, _, err = run(capsys, "experiment", "-c", str(tiny_config), "-o", str(tmp_path / "x"))
        assert code == 1 and "fewer than two seeds completed" in err


TRAIN_KEYS = [
    ("hidden_layers", "5,3", (5, 3)),
    ("epochs", "4", 4),
    ("batch_size", "16", 16),
    ("learning_rate", "0.01", 0.01),
    ("weight_decay", "0", 0.0),
    ("lr_decay", "0.5", 0.5),
]

# (section, INI lines, the config fields they set); a dict value holds TrainConfig fields.
# The first key of each entry is the one it covers: a task needs counts and difficulties to match.
KEY_SETTINGS = [
    ("data", "task = SL12\nsamples_per_subclass = 9,20,20\ndifficulty = 0.2,0.2,0.8",
     {"task": "SL12", "samples_per_subclass": (9, 20, 20), "difficulty": (0.2, 0.2, 0.8)}),
    ("data", "samples_per_subclass = 9 9 20 20", {"samples_per_subclass": (9, 9, 20, 20)}),
    ("data", "difficulty = 0.1,0.9,0.3,0.7", {"difficulty": (0.1, 0.9, 0.3, 0.7)}),
    ("data", "feature_dim = 3", {"feature_dim": 3}),
    ("data", "train_fraction = 0.25", {"train_fraction": 0.25}),
    ("data", "seed = 7", {"base_seed": 7}),
    ("experiment", "n_seeds = 4", {"n_seeds": 4}),
    *[(role, f"{key} = {raw}", {role: {key: value}})
      for role in ("teacher", "student") for key, raw, value in TRAIN_KEYS],
    ("distill", "tau_skd = 2.5", {"tau_skd": 2.5}),
    ("distill", "tau_kd = 64", {"tau_kd": 64.0}),
    ("distill", "lam = 0.3", {"lam": 0.3}),
]


def covered_key(section, lines):
    return section, lines.split(" =")[0]


class TestConfigKeys:
    def test_accepted_keys_are_exactly_the_covered_ones(self):
        accepted = {(s, k) for s, (_, keys) in _ini_schema(ExperimentConfig()).items() for k in keys}
        assert accepted == {covered_key(section, lines) for section, lines, _ in KEY_SETTINGS}
        assert len(accepted) == 22

    @pytest.mark.parametrize(
        "section, lines, changes", KEY_SETTINGS,
        ids=["{}.{}".format(*covered_key(s, l)) for s, l, _ in KEY_SETTINGS],
    )
    def test_each_key_sets_its_field(self, tmp_path, section, lines, changes):
        ini = tmp_path / "one.ini"
        ini.write_text(f"[{section}]\n{lines}\n")
        base = ExperimentConfig()
        expected = replace(base, **{
            name: replace(getattr(base, name), **value) if isinstance(value, dict) else value
            for name, value in changes.items()
        })
        assert expected != base
        assert _experiment_config(_load_ini(ini)[0]) == expected

    def test_readme_ini_block_is_the_defaults(self, tmp_path):
        ini = tmp_path / "documented.ini"
        ini.write_text(README.read_text().split("```ini\n", 1)[1].split("```", 1)[0])
        assert _experiment_config(_load_ini(ini)[0]) == ExperimentConfig()


class TestWholeNumberAtEachBoundary:
    """Every count that enters from outside is judged by whole_number: 2.0 gives what 2
    gives, 2.5 exits 2 naming the key, flag or file, and an integer literal stays exact."""

    def train_teacher(self, capsys, data_dir, tmp_path, name, ini_text):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(ini_text)
        out = tmp_path / name
        code, _, err = run(
            capsys, "train", "-c", str(ini), "--data", str(data_dir), "--role", "teacher",
            "-o", str(out),
        )
        return code, err, out

    @pytest.mark.parametrize(
        "section, key, whole, as_float",
        [("teacher", "epochs", "2", "2.0"), ("data", "seed", "1000", "1e3")],
    )
    def test_ini_value(self, capsys, data_dir, tmp_path, section, key, whole, as_float):
        outs = []
        for name, raw in (("whole", whole), ("float", as_float)):
            code, err, out = self.train_teacher(
                capsys, data_dir, tmp_path, name, f"[{section}]\n{key} = {raw}\n"
            )
            assert code == 0, err
            metrics = json.loads((out / "metrics.json").read_text())
            del metrics["config_ini"]  # the raw text, which differs by design
            outs.append(((out / "checkpoint.json").read_bytes(), metrics))
        assert outs[0] == outs[1]

        code, err, out = self.train_teacher(
            capsys, data_dir, tmp_path, "fraction", f"[{section}]\n{key} = 2.5\n"
        )
        message = f"error: [{section}] {key}: {key} must be a whole number, got 2.5\n"
        assert (code, err) == (2, message)
        assert not out.exists()

    # the nearest float to 2**53 + 1 is 2**53, and 10**400 has none
    @pytest.mark.parametrize("seed", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_ini_integer_literal_is_exact(self, capsys, data_dir, tmp_path, seed):
        code, err, out = self.train_teacher(
            capsys, data_dir, tmp_path, "big", f"[data]\nseed = {seed}\n[teacher]\nepochs = 1\n"
        )
        assert code == 0, err
        assert json.loads((out / "metrics.json").read_text())["seed"] == seed

    def test_jobs_flag(self, capsys, tiny_config, tmp_path):
        reports = []
        for jobs in ("2", "2.0"):
            out = tmp_path / jobs
            code, _, err = run(capsys, "experiment", "-c", str(tiny_config), "-o", str(out),
                               "--jobs", jobs)
            assert code == 0, err
            names = ("report.json", "summary.csv", "per_seed.csv")
            reports.append([(out / n).read_bytes() for n in names])
        assert reports[0] == reports[1]

        out = tmp_path / "fraction"
        code, _, err = run(capsys, "experiment", "-c", str(tiny_config), "-o", str(out),
                           "--jobs", "2.5")
        assert (code, err) == (2, "error: jobs must be a whole number, got 2.5\n")
        assert not out.exists()

    def test_count_flags(self, capsys, tmp_path):
        flags = ["--p-h0", "0.9", "--p-h1", "0.9", "--p-s", "0.85", "--n-h1", "990"]
        outs = []
        for n_s, n_h0 in (("2", "2162"), ("2.0", "2162.0")):
            out = tmp_path / n_h0
            code, stdout, err = run(capsys, "bits", *flags, "--n-s", n_s, "--n-h0", n_h0,
                                    "-o", str(out))
            assert code == 0, err
            outs.append((stdout.replace(str(out), "OUT"), (out / "bits.json").read_bytes(),
                         (out / "bits.csv").read_bytes()))
        assert outs[0] == outs[1]

        code, out, err = run(capsys, "bits", *flags, "--n-s", "2.5", "--n-h0", "2162")
        assert (code, out, err) == (2, "", "error: n_s must be a whole number, got 2.5\n")
        code, out, err = run(capsys, "bits", *flags, "--n-s", "2", "--n-h0", "2162.5")
        message = "error: n_h0: counts must be whole nonnegative numbers, got 2162.5\n"
        assert (code, out, err) == (2, "", message)

    def test_count_flags_name_the_numeral_parser(self, capsys, tiny_config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "-c", str(tiny_config), "-o", str(tmp_path), "--jobs", "abc"])
        assert exc.value.code == 2
        assert "argument --jobs: invalid number value: 'abc'" in capsys.readouterr().err

    def test_checkpoint_layer_dims(self, capsys, data_dir, tmp_path):
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(init_network((2, 3, 2), seed=0), ckpt, extra={"label_level": "class"})
        payload = json.loads(ckpt.read_text())
        capsys.readouterr()  # the data_dir fixture's output
        outs = []
        for dims in ([2, 3, 2], [2.0, 3, 2.0]):
            ckpt.write_text(json.dumps({**payload, "layer_dims": dims}))
            code, stdout, err = run(capsys, "evaluate", "--checkpoint", str(ckpt),
                                    "--data", str(data_dir), "-o", str(tmp_path / "eval.json"))
            assert code == 0, err
            outs.append((stdout, (tmp_path / "eval.json").read_bytes()))
        assert outs[0] == outs[1]

        for bad in (2.5, True, None):
            ckpt.write_text(json.dumps({**payload, "layer_dims": [bad, 3, 2]}))
            code, out, err = run(capsys, "evaluate", "--checkpoint", str(ckpt),
                                 "--data", str(data_dir))
            assert (code, out) == (2, "")
            assert err == f"error: {ckpt}: layer dimension must be a whole number, got {bad!r}\n"

    def test_hierarchy_json(self, capsys, tmp_path):
        class_csv = tmp_path / "class.csv"
        class_csv.write_text("90,10\n20,80\n")
        sub_csv = tmp_path / "sub.csv"
        sub_csv.write_text("40,10\n10,40\n")
        outs = []
        for name, spc in (("whole", [1, 2]), ("float", [1.0, 2.0])):
            hier = tmp_path / f"{name}.json"
            hier.write_text(json.dumps({"subclasses_per_class": spc}))
            outs.append(run(capsys, "bits", "--from-confusion", str(class_csv),
                            "--subclass-confusion", str(sub_csv), "--hierarchy", str(hier)))
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_data_csv_labels(self, capsys, tiny_config, data_dir, tmp_path):
        code, err, whole = self.train_teacher(capsys, data_dir, tmp_path, "whole", TINY_INI)
        assert code == 0, err
        train_csv = data_dir / "train.csv"
        header, *rows = train_csv.read_text().splitlines()
        as_floats = [",".join(r.split(",")[:-2] + [f"{int(v)}.0" for v in r.split(",")[-2:]])
                     for r in rows]
        train_csv.write_text("\n".join([header, *as_floats]) + "\n")
        code, err, floats = self.train_teacher(capsys, data_dir, tmp_path, "float", TINY_INI)
        assert code == 0, err
        for name in ("checkpoint.json", "metrics.json"):
            assert (whole / name).read_bytes() == (floats / name).read_bytes()

        train_csv.write_text(f"{header}\n0.5,0.5,0,0\n0.5,0.5,1.5,0\n")
        code, err, out = self.train_teacher(capsys, data_dir, tmp_path, "fraction", TINY_INI)
        assert (code, err) == (2, f"error: {train_csv}:3: label must be a whole number, got 1.5\n")
        assert not out.exists()


def test_import_does_not_load_the_process_pool():
    # only `experiment --jobs` above 1 uses the pool; every other start skips its import
    src = str(Path(skdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, skdlab.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
