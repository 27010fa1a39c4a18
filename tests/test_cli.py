import json
from pathlib import Path

import pytest

from grouptree.cli import main
from grouptree.datasets import monks, to_csv
from grouptree.mps import parse_mps

TOY_CSV = """shade,shape,grade
dark,round,good
dark,square,good
pale,round,bad
pale,square,bad
dark,round,good
pale,round,bad
dark,square,good
pale,square,bad
dark,round,bad
pale,square,good
"""


@pytest.fixture
def toy(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(TOY_CSV, encoding="utf-8")
    return path


@pytest.fixture
def monks3(tmp_path):
    path = tmp_path / "monks3.csv"
    path.write_text(to_csv(monks(3)), encoding="utf-8")
    return path


def test_encode(toy, tmp_path, capsys):
    out = tmp_path / "enc.json"
    code = main(["encode", "--data", str(toy), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["matrix"]) == 10
    assert payload["schema"]["groups"][0]["column"] == "shade"


def test_train_and_eval_round_trip(toy, tmp_path):
    out = tmp_path / "run.json"
    code = main(
        ["train", "--data", str(toy), "--topology", "depth2", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["solve"]["status"] == "optimal"
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(payload["tree"]), encoding="utf-8")
    eval_out = tmp_path / "eval.json"
    code = main(
        ["eval", "--data", str(toy), "--tree", str(tree_path), "--out", str(eval_out)]
    )
    assert code == 0
    metrics = json.loads(eval_out.read_text())["metrics"]
    # the tree was trained on 9 of 10 rows; re-evaluating on the training side
    # only is covered in the experiments tests, here the whole file is scored
    assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] == 10


def test_export_round_trips(toy, tmp_path):
    out = tmp_path / "model.mps"
    code = main(["export", "--data", str(toy), "--topology", "depth2", "--out", str(out)])
    assert code == 0
    model = parse_mps(out.read_text())
    assert any(v.name.startswith("Z_1_") for v in model.variables)
    lp_out = tmp_path / "model.lp"
    assert main(["export", "--data", str(toy), "--emit", "lp", "--out", str(lp_out)]) == 0
    assert lp_out.read_text().startswith("\\ written by grouptree")


def test_oracle_matches_train_objective(toy, tmp_path):
    train_out = tmp_path / "train.json"
    oracle_out = tmp_path / "oracle.json"
    # train on the full file by using the oracle's view: compare objectives on
    # the same 90% split is not possible via CLI, so check the full-data
    # oracle dominates the split objective
    assert main(["train", "--data", str(toy), "--seed", "1", "--out", str(train_out)]) == 0
    assert main(["oracle", "--data", str(toy), "--out", str(oracle_out)]) == 0
    train_obj = json.loads(train_out.read_text())["solve"]["objective"]
    oracle_obj = json.loads(oracle_out.read_text())["objective"]
    assert oracle_obj + 1 >= train_obj  # holdout differs by one sample here


def test_cv_runs(toy, tmp_path):
    out = tmp_path / "cv.json"
    code = main(
        ["cv", "--data", str(toy), "--topologies", "depth2,depth2_5",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["chosen"] in ("depth2", "depth2_5")


def test_cv_refuses_two_parenthesis_shapes(toy, tmp_path, capsys):
    # both shapes are named "custom", so their validation accuracies would
    # share one row
    out = tmp_path / "cv.json"
    code = main(
        ["cv", "--data", str(toy), "--topologies", "((# #) (# #)),(((# #) (# #)) ((# #) (# #)))",
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: two topologies are named 'custom'")
    assert not out.exists()


def test_sweep(toy, tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        ["sweep", "--data", str(toy), "--min-specificity", "0.5,1.0",
         "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["min_specificity"] for r in rows] == ["1/2", "1"]
    assert all(r["train_tnr"] >= float(eval(r["min_specificity"])) - 1e-12 for r in rows)


def test_sweep_requires_floors(toy):
    assert main(["sweep", "--data", str(toy)]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_missing_column_is_reported(toy, capsys):
    code = main(["train", "--data", str(toy), "--label-col", "missing"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--time-limit", "nan"), ("--time-limit", "-1"),
                                         ("--node-limit", "-1")])
def test_invalid_limit_is_reported(toy, capsys, flag, value):
    code = main(["train", "--data", str(toy), "--label-col", "grade", flag, value])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# 1e400 and 1e-400 do not fit in a float; 1e308 and 1e-308 do, but the
# weighted sums over the toy data's classes do not
@pytest.mark.parametrize("weight", ["1e400", "1e-400", "1e308", "1e-308"])
def test_class_weight_beyond_a_float_is_reported(toy, capsys, weight):
    code = main(["train", "--data", str(toy), "--label-col", "grade", "--class-weight", weight])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: class_weight")


@pytest.mark.parametrize("command", ["train", "oracle"])
@pytest.mark.parametrize("floor", ["--min-specificity", "--min-sensitivity"])
def test_class_weight_with_a_floor_is_reported(toy, capsys, floor, command):
    # the floored modes never read a class weight: refuse it, do not echo it
    argv = [command, "--data", str(toy), "--label-col", "grade"]
    code = main(argv + ["--class-weight", "3/2", floor, "1/2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: class_weight")
    assert main(argv + ["--class-weight", "1", floor, "1/2"]) == 0


def test_oracle_reads_forbid_trivial(tmp_path, capsys):
    # four positives over two categories: the empty subset is forbidden, so
    # the stump sends one category to its negative leaf
    path = tmp_path / "stump.csv"
    path.write_text("c1,y\na,1\nb,1\na,1\nb,1\n", encoding="utf-8")
    argv = ["oracle", "--data", str(path), "--label-positive", "1", "--topology", "(# #)"]
    for flags, objective in (([], 4.0), (["--forbid-trivial"], 2.0)):
        assert main(argv + flags) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == objective
        assert payload["config"]["build"]["forbid_trivial_branch"] == bool(flags)


def test_infeasible_training_is_reported(tmp_path, capsys):
    # one category and trivial tests forbidden: no tree exists
    path = tmp_path / "one.csv"
    path.write_text("a,class\n" + "".join(f"x,{i % 2}\n" for i in range(11)), encoding="utf-8")
    code = main(["train", "--data", str(path), "--label-col", "class", "--forbid-trivial"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "status infeasible" in err


@pytest.mark.parametrize("argv", [
    ["train", "--topology", "depth4"],
    ["train", "--topology", "nosuch"],
    ["cv", "--topologies", "depth2,nosuch"],
    ["export", "--topology", "depth4"],
])
def test_unknown_topology_is_reported(toy, capsys, argv):
    # text without "(" names a preset, so a mistyped one lists the presets
    # instead of failing to parse as a shape
    assert main(argv[:1] + ["--data", str(toy), "--label-col", "grade"] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown topology") and "depth2_5" in err


def test_node_limit_exit_code(monks3, tmp_path):
    out = tmp_path / "limited.json"
    code = main(
        ["train", "--data", str(monks3), "--label-col", "class",
         "--topology", "depth3", "--node-limit", "4", "--seed", "1",
         "--out", str(out)]
    )
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["solve"]["status"] == "feasible_time_limit"
    assert payload["solve"]["objective"] is not None


def test_byte_identical_reruns(monks3, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}.json"
        mps = tmp_path / f"model_{tag}.mps"
        assert main(
            ["train", "--data", str(monks3), "--label-col", "class",
             "--topology", "depth2", "--seed", "11", "--out", str(out)]
        ) == 0
        assert main(
            ["export", "--data", str(monks3), "--label-col", "class",
             "--topology", "depth2", "--out", str(mps)]
        ) == 0
        outs.append((out.read_bytes(), mps.read_bytes()))
    assert outs[0] == outs[1]


def test_simple_branching_flag(toy, tmp_path):
    out = tmp_path / "enc2.json"
    code = main(["encode", "--data", str(toy), "--simple-branching", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["schema"]["groups"]) == 4  # 2 + 2 original bits
    assert all(g["categories"] == ["1", "0"] for g in payload["schema"]["groups"])


def test_table_emission(toy, capsys):
    code = main(["train", "--data", str(toy), "--seed", "2", "--emit", "table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "train" in out and "leaf" in out


def test_oracle_table_emission(toy, capsys):
    code = main(["oracle", "--data", str(toy), "--emit", "table"])
    assert code == 0
    assert "objective" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--class-weight", "abc"],
        ["train", "--class-weight", "1/0"],
        ["train", "--min-specificity", "abc"],
        ["train", "--min-sensitivity", "0.9x"],
        ["sweep", "--min-specificity", "0.5,abc"],
    ],
    ids=["weight", "weight-zero-denominator", "specificity", "sensitivity", "sweep-floor"],
)
def test_bad_rational_is_usage_error(toy, argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--data", str(toy)])
    assert err.value.code == 2
    assert "not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cv", "sweep", "export", "oracle"])
def test_floor_flags_are_mutually_exclusive(toy, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--data", str(toy), "--min-specificity", "0.9",
              "--min-sensitivity", "0.9"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["train", "cv", "export", "oracle"])
def test_floor_list_only_in_sweep(toy, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--data", str(toy), "--min-specificity", "0.5,0.9"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["train", "cv", "sweep"])
@pytest.mark.parametrize("emit", ["mps", "lp"])
def test_model_formats_only_in_export(toy, command, emit):
    with pytest.raises(SystemExit) as err:
        main([command, "--data", str(toy), "--min-specificity", "0.5", "--emit", emit])
    assert err.value.code == 2


def test_missing_data_file_is_reported(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "missing.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.csv" in err


def test_undecodable_data_file_is_reported(tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"a,b\n\xff\xfe,1\n")
    assert main(["encode", "--data", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    ["not json", '{"shape": "((# #) (# #))"}'],
    ids=["not-json", "no-tests"],
)
def test_malformed_tree_file_is_reported(toy, tmp_path, capsys, text):
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(text, encoding="utf-8")
    assert main(["eval", "--data", str(toy), "--tree", str(tree_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_deeply_nested_topology_is_reported(toy, capsys):
    assert main(["train", "--data", str(toy), "--topology", "(" * 3000]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "deeper than" in err


def test_tree_with_foreign_group_is_rejected(monks3, tmp_path, capsys):
    run_path = tmp_path / "run.json"
    assert main(["train", "--data", str(monks3), "--label-col", "class", "--seed", "1",
                 "--out", str(run_path)]) == 0
    tree = json.loads(run_path.read_text())["tree"]
    tree["tests"]["1"]["group"] = 17
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(tree), encoding="utf-8")
    code = main(["eval", "--data", str(monks3), "--label-col", "class",
                 "--tree", str(tree_path)])
    assert code == 1
    assert "group 17" in capsys.readouterr().err
