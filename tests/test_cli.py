import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import treeboundary
import treeboundary.fullgroup as fullgroup
from treeboundary.cli import build_parser, main


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


def test_ergodic_check_honours_max_cells(capsys, monkeypatch):
    args = ("ergodic", "check", "--s", "3", "--t", "0", "--m", "2")
    monkeypatch.setattr(fullgroup, "build_swap", None)
    code, _, err = run(capsys, *args, "--max-cells", "5")
    assert code == 3
    assert "resource bound" in err
    monkeypatch.undo()
    code, out, _ = run(capsys, *args, "--max-cells", "6")
    assert code == 0
    assert out == "true\n"


def test_ratio_values(capsys):
    code, out, _ = run(capsys, "ratio", "values", "--s", "3", "--t", "0",
                       "--max-len", "1", "--depth", "3")
    assert code == 0
    assert out.splitlines() == ["1/2", "1", "2"]


def test_ratio_values_enumerate_nothing(capsys):
    code, out, _ = run(capsys, "ratio", "values", "--s", "3", "--t", "0",
                       "--max-len", "5", "--depth", "9", "--max-cells", "1")
    assert code == 0
    assert out.splitlines() == ["1/32", "1/16", "1/8", "1/4", "1/2", "1", "2", "4", "8", "16", "32"]


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


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    try:
        calls = [
            ("measure", "--s", "3", "--t", "0", "--word", "a1 a2"),
            ("measure", "--s", "3", "--t", "0", "--nonsense"),
            ("group", "sphere", "--s", "3", "--t", "0", "--m", "2", "--count"),
        ]
        outputs = []
        for _ in range(3):
            for argv in calls:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                outputs.append((code, *capsys.readouterr()))
        first = len(built)
    finally:
        build_parser.cache_clear()
    assert built.count("treeboundary") == 1
    assert first == len(built)
    assert [code for code, _, _ in outputs[:3]] == [0, 2, 0]
    assert outputs[:3] == outputs[3:6] == outputs[6:]


def test_import_leaves_numpy_unloaded():
    src = str(Path(treeboundary.__file__).resolve().parents[1])
    script = "import sys, treeboundary, treeboundary.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout == "False\n"


# sha256 of the exit code, a newline and the standard output, recorded while
# the parser was rebuilt per call, transitivity built every ordered pair and
# ratio values enumerated: the README's commands and four per presentation
GOLDEN = {
    "measure --s 3 --t 0 --word 'a1 a2'":
        "190688f99b9226552853e78766a45220f3b4ea22482db6535a2aedabf06facc1",
    "group sphere --s 3 --t 0 --m 2 --count":
        "df4f9b728b7582d27215a2a8164a6838bd7a9b73801ebd161a1a39ed6a23d434",
    "group ck-matrix --s 0 --t 2 --format json":
        "ce09b152c49609b79106dcd2774f7567f22fd0a3b8ea9ecbf74873ab5088341a",
    "act --s 3 --t 0 --g a1 --word a1":
        "7d0f5154711da4424ff20e169eca3c3b1e526c148b0adb79e39487255a26b40e",
    "rn --s 3 --t 0 --g a1 --depth 2 --format json":
        "7f7251e659b46ed3a6243d5e5bc924c1087f66a28e1b24bbbc18e91dd578db85",
    "kmap build --s 3 --t 0 --x a1 --y a2 --max-step 4 --format json":
        "9fee126a6ecbf7db6e069c1a9a86fa75bc5b2b05289d2653771bf446adfee72f",
    "kmap verify --s 3 --t 0 --x a1 --y a2 --format json":
        "32533c68f16e4dfeef4716248eabca9152cbe8b9a4dcbd34f247fa6bdd49f52f",
    "kmap apply --s 3 --t 0 --x a1 --y a2 --point 'a1 a3 | a2 a3'":
        "424f5cc52b6f7f686bde65b22933621cb34ec9fe0136217005180fbbf43d6598",
    "ergodic check --s 1 --t 1 --m 2":
        "d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c",
    "ratio values --s 3 --t 0 --max-len 2 --depth 4":
        "b4a276cbf88935c856c508dc0cff804cb2eb053e311ff8d4d64c23d71bf7f655",
    'ratio witness --s 3 --t 0 --lambda 2 --E \'["a2"]\' --format json':
        "1a401c86c62c8b06a7adc76ec11bd63011ae771f42663105b0994aa2d76aa54b",
    "classify --s 3 --t 0":
        "da3b23d664da515c7cbdf91713935bac65f11372751a4ac66024f5ad9a4559d4",
    "sample --s 3 --t 0 --depth 2 --n-samples 1000 --seed 7 --format csv":
        "f362fac549f008cd1ca9580834e321213cc3818c13d7cabf7d5993434953657a",
    "rn --s 3 --t 0 --g a1 --depth 5 --format json":
        "ab5711f890efbec8fe52f0da1d71830619131eaa33a67690febca2dc02745cb8",
    "ergodic check --s 3 --t 0 --m 2":
        "d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c",
    "classify --s 3 --t 0 --format json":
        "557bde940139c348f4360e12756debc573762f9f2b278d270bfcccd4ef891b5f",
    "rn --s 1 --t 1 --g a1 --depth 5 --format json":
        "7d3c0af8ea6004bf47d453f65b28666201a984ee8fe43a907e40d764025df82f",
    "ratio values --s 1 --t 1 --max-len 2 --depth 4":
        "b4a276cbf88935c856c508dc0cff804cb2eb053e311ff8d4d64c23d71bf7f655",
    "classify --s 1 --t 1 --format json":
        "d59ebae5713f60784c655ee3e2c111761eddf283286b100336335f4cead76c25",
    "rn --s 0 --t 2 --g b1 --depth 5 --format json":
        "c04153cf3f1288e82f06c4094b7cd0c7aa9d4e2e7d9cf6bc066c2537aebc7e05",
    "ratio values --s 0 --t 2 --max-len 2 --depth 4":
        "21c803d7e125315c566d58120716a77f57050ddacf485f6a9204fd42adea48f0",
    "ergodic check --s 0 --t 2 --m 2":
        "d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c",
    "classify --s 0 --t 2 --format json":
        "64de0903c7ebaa9374c2da0d33fbe48e2f22eafe04a98a2df6545111a2e587f4",
    "rn --s 4 --t 0 --g a1 --depth 5 --format json":
        "e0e4160375c96f07216ad673f896d9d9c856d86d4a913e2160b8c01688e989d2",
    "ratio values --s 4 --t 0 --max-len 2 --depth 4":
        "21c803d7e125315c566d58120716a77f57050ddacf485f6a9204fd42adea48f0",
    "ergodic check --s 4 --t 0 --m 2":
        "d443d19d6e7ac63812965a81ce194e39db46658b66271387a4a8c33e24719a9c",
    "classify --s 4 --t 0 --format json":
        "43b37da62dd7d1b6cedfbd3df335eb23ab16d4a442ce44a9112baa1a50c90f3e",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command))
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == GOLDEN[command]
