import json

import pytest

from treeboundary.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_word(capsys):
    code, out, _ = run(capsys, "measure", "--s", "3", "--t", "0", "--word", "a1 a2")
    assert code == 0
    assert out == "1/6\n"


def test_measure_union(capsys):
    code, out, _ = run(capsys, "measure", "--s", "3", "--t", "0", "--union", '["a1 a2", "a1 a3"]')
    assert code == 0
    assert out == "1/3\n"


def test_measure_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "measure", "--s", "3", "--t", "0")
    assert code == 2
    assert "exactly one" in err


def test_group_sphere_count(capsys):
    code, out, _ = run(capsys, "group", "sphere", "--s", "3", "--t", "0", "--m", "2", "--count")
    assert code == 0
    assert out == "6\n"


def test_group_sphere_words_json(capsys):
    code, out, _ = run(capsys, "group", "sphere", "--s", "3", "--t", "0", "--m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["a1", "a2", "a3"]


def test_group_sphere_resource_bound(capsys):
    code, _, err = run(capsys, "group", "sphere", "--s", "3", "--t", "0", "--m", "50")
    assert code == 3
    assert "resource bound" in err


def test_ck_matrix(capsys):
    code, out, _ = run(capsys, "group", "ck-matrix", "--s", "0", "--t", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["letters"] == ["b1", "b1'", "b2", "b2'"]
    assert data["matrix"][0][1] == 0 and data["matrix"][2][3] == 0


def test_act_on_cylinder(capsys):
    code, out, _ = run(capsys, "act", "--s", "3", "--t", "0", "--g", "a1", "--word", "a1", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["a2", "a3"]


def test_act_on_point(capsys):
    code, out, _ = run(capsys, "act", "--s", "3", "--t", "0", "--g", "a1", "--point", "a1 | a2 a3")
    assert code == 0
    assert out == "e | a2 a3\n"


def test_rn_table(capsys):
    code, out, _ = run(capsys, "rn", "--s", "3", "--t", "0", "--g", "a1", "--depth", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    values = {row["cell"]: row["value"] for row in rows}
    assert values["a1 a2"] == "2" and values["a2 a1"] == "1/2"


def test_kmap_build_verify_apply(capsys):
    code, out, _ = run(capsys, "kmap", "build", "--s", "3", "--t", "0",
                       "--x", "a1", "--y", "a2", "--max-step", "2", "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert table["residual_measure"] == "1/12"

    code, out, _ = run(capsys, "kmap", "verify", "--s", "3", "--t", "0",
                       "--x", "a1", "--y", "a2", "--max-step", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True

    code, out, _ = run(capsys, "kmap", "apply", "--s", "3", "--t", "0",
                       "--x", "a1", "--y", "a2", "--point", "a1 a3 | a2 a3")
    assert code == 0
    assert out == "e | a2 a3\n"


def test_kmap_apply_does_not_build_the_piece_table(capsys):
    argv = ["kmap", "apply", "--s", "3", "--t", "0", "--x", "a1", "--y", "a2", "--point", "a1 a2 a1 a3 | a2 a1"]
    code, small, _ = run(capsys, *argv, "--max-step", "4")
    assert code == 0
    code, large, _ = run(capsys, *argv, "--max-step", "20000")
    assert code == 0
    assert large == small


def test_ergodic_check(capsys):
    code, out, _ = run(capsys, "ergodic", "check", "--s", "1", "--t", "1", "--m", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"m": 2, "transitive": True}


def test_ratio_values(capsys):
    code, out, _ = run(capsys, "ratio", "values", "--s", "3", "--t", "0",
                       "--max-len", "1", "--depth", "3")
    assert code == 0
    assert out.splitlines() == ["1/2", "1", "2"]


def test_ratio_witness(capsys):
    code, out, _ = run(capsys, "ratio", "witness", "--s", "3", "--t", "0",
                       "--lambda", "2", "--E", '["a2"]', "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "2"
    assert data["F"] == ["a2 a3 a1"]


def test_ratio_witness_rejects_non_power(capsys):
    code, _, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", "3")
    assert code == 2
    assert "power" in err


@pytest.mark.parametrize("argv", [
    ["measure", "--s", "3", "--t", "0", "--union"],
    ["ratio", "witness", "--s", "3", "--t", "0", "--lambda", "2", "--E"],
], ids=["measure", "witness"])
@pytest.mark.parametrize("union", ["[1]", "null", "5", '[["a1"]]', '"a1"'])
def test_malformed_union_exits_2(capsys, argv, union):
    code, out, err = run(capsys, *argv, union)
    assert code == 2
    assert out == ""
    assert err == "invalid input: a union is a JSON array of base words\n"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--s", "3", "--t", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "III_{1/2}"
    assert data["evidence"]["freeness"] is True


def test_classify_text_format_contains_label(capsys):
    code, out, _ = run(capsys, "classify", "--s", "3", "--t", "0")
    assert code == 0
    assert '"type": "III_{1/2}"' in out


def test_sample_csv_and_determinism(capsys):
    args = ("sample", "--s", "3", "--t", "0", "--depth", "2",
            "--n-samples", "20", "--seed", "7", "--format", "csv")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    assert len(out1.splitlines()) == 20
    code, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sample_summary(capsys):
    code, out, _ = run(capsys, "sample", "--s", "0", "--t", "2", "--depth", "2",
                       "--n-samples", "100", "--seed", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 100
    assert sum(v[0] for v in data["frequencies"].values()) == 100


def test_sample_past_the_int64_word_ids(capsys):
    code, out, _ = run(capsys, "sample", "--s", "4", "--t", "0", "--depth", "80",
                       "--n-samples", "100", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert sum(v[0] for v in data["frequencies"].values()) == 100
    assert all(len(w.split()) == 80 for w in data["frequencies"])


def test_sample_honours_max_cells(capsys):
    args = ("sample", "--s", "3", "--t", "0", "--depth", "10", "--n-samples", "10")
    code, _, err = run(capsys, *args, "--max-cells", "99")
    assert code == 3
    assert "resource bound" in err
    code, out, _ = run(capsys, *args, "--max-cells", "100", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 10


def test_invalid_presentation_exits_2(capsys):
    code, _, err = run(capsys, "measure", "--s", "1", "--t", "0", "--word", "a1")
    assert code == 2
    assert "s + 2t" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--s", "3", "--t", "0", "--nonsense"])
    assert exc.value.code == 2


def test_outputs_are_byte_identical_across_runs(capsys):
    for args in (
        ("classify", "--s", "0", "--t", "2", "--format", "json"),
        ("kmap", "build", "--s", "3", "--t", "0", "--x", "a1 a2", "--y", "a3 a1", "--format", "json"),
        ("ratio", "witness", "--s", "1", "--t", "1", "--lambda", "1/2", "--format", "json"),
    ):
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
