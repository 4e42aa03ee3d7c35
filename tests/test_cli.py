import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
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


def test_measure_on_a_wide_tree_builds_only_the_rows_it_reads(capsys):
    # the successor table holds a row per letter; a full table at s = 2000
    # is 4 million codes, some 150 MB
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "measure", "--s", "2000", "--t", "0", "--word", "a1 a2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "1/3998000\n")
    assert peak < 10 * 2**20


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


def test_act_refuses_an_image_above_max_cells_before_building_it(capsys):
    # the complement of C(a1) on 300,000 letters is 299,999 cylinders
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run(capsys, "act", "--s", "300000", "--t", "0", "--g", "a1", "--word", "a1",
                             "--max-cells", "1000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert "more than 1000 cylinders" in err
    assert peak < 32 * 2**20


@pytest.mark.parametrize("st, g, word", [
    ((3, 0), "a1", "a1"), ((3, 0), "a2 a3 a1", "a1 a3"), ((3, 0), "a1 a2", "a3"), ((3, 0), "a1", "e"),
    ((1, 1), "b1 a1 b1", "b1' a1 b1'"), ((1, 1), "b1 a1", "b1 a1"), ((0, 2), "b2 b1 b1", "b1' b1' b2'"),
    ((4, 0), "a4 a3 a2 a1", "a1"), ((4, 0), "a1 a2", "a2 a1"), ((300, 0), "a1 a2", "a2"),
])
def test_act_answers_at_max_cells_equal_to_the_image_size(capsys, st, g, word):
    flags = ["act", "--s", str(st[0]), "--t", str(st[1]), "--g", g, "--word", word]
    code, out, _ = run(capsys, *flags)
    assert code == 0
    size = len(out.split(", "))
    assert run(capsys, *flags, "--max-cells", str(size)) == (0, out, "")
    code, _, err = run(capsys, *flags, "--max-cells", str(size - 1))
    assert code == 3 and "cylinders" in err


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


def test_ratio_witness_honours_max_cells(capsys, monkeypatch):
    # F is one cylinder whose rn_checks list 3**7 cells; the count is refused
    # before any cell is listed
    args = ("ratio", "witness", "--s", "4", "--t", "0", "--lambda", "1/27", "--E", '["a3 a1"]',
            "--format", "json")
    monkeypatch.setattr(treeboundary.Cylinder, "descendants", None)
    code, out, err = run(capsys, *args, "--max-cells", "2186")
    assert code == 3
    assert out == ""
    assert err == "resource bound exceeded: rn_checks would list more than 2186 cells\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, *args, "--max-cells", "2187")
    assert code == 0
    assert len(json.loads(out)["rn_checks"]) == 2187


def test_ratio_witness_refuses_a_long_chain_after_linear_work(capsys):
    # at 2**1500 on C(a2) the chain of landed cylinders is 1,501 letters and rn_checks
    # would list 2**1501 cells; the witness is found from the chain in closed form,
    # with no stage written, and then refused
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", str(2 ** 1500),
                             "--E", '["a2"]')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (3, "", "resource bound exceeded: rn_checks would list more than 10000000 cells\n")
    assert peak < 8 * 2**20


def test_ratio_witness_counts_its_stage_letters_against_max_cells(capsys):
    # at 5**200 on C(b2) F is one cell, but the 200 stages write 80,600 letters
    argv = ("ratio", "witness", "--s", "0", "--t", "3", "--E", '["b2"]', "--lambda", str(5 ** 200),
            "--format", "json")
    refused = (3, "", "resource bound exceeded: stages would list more than 80599 letters\n")
    assert run(capsys, *argv, "--max-cells", "80599") == refused
    code, out, err = run(capsys, *argv)
    assert (code, err, len(json.loads(out)["rn_checks"])) == (0, "", 1)
    assert run(capsys, *argv, "--max-cells", "80600") == (0, out, "")


@pytest.mark.parametrize("argv", [
    ["group", "sphere", "--m", "20000"],
    ["group", "sphere", "--m", "20000", "--count"],
    ["ergodic", "check", "--m", "20000"],
    ["rn", "--g", "a1", "--depth", "20000"],
], ids=["sphere", "sphere-count", "ergodic", "rn"])
def test_huge_spheres_exit_3(capsys, argv):
    # the sphere sizes have more digits than Python converts to a string
    code, out, err = run(capsys, *argv, "--s", "3", "--t", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("resource bound exceeded: sphere of length 20000 has ")


@pytest.mark.parametrize("argv", [
    ["group", "sphere", "--m", "10000000"],
    ["group", "sphere", "--m", "10000000", "--count"],
    ["ergodic", "check", "--m", "10000000"],
    ["rn", "--g", "a1", "--depth", "10000000"],
], ids=["sphere", "sphere-count", "ergodic", "rn"])
def test_huge_spheres_are_refused_without_their_size(capsys, monkeypatch, argv):
    def refuse(p, m):
        raise AssertionError("the size of a huge sphere was computed")

    monkeypatch.setattr(treeboundary.words, "sphere_size", refuse)
    monkeypatch.setattr(treeboundary.cli, "sphere_size", refuse)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code, out, err = run(capsys, *argv, "--s", "4", "--t", "0")
    assert code == 3
    assert out == ""
    assert err.startswith("resource bound exceeded: sphere of length 10000000 has ")


def test_ratio_values_too_long_to_print_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code, out, err = run(capsys, "ratio", "values", "--s", "3", "--t", "0",
                         "--max-len", "20000", "--depth", "20001")
    assert code == 3
    assert out == ""
    assert err == "resource bound exceeded: 2**20000 has too many digits to print\n"


def test_ratio_values_negative_max_len_exit_2(capsys):
    code, out, err = run(capsys, "ratio", "values", "--s", "3", "--t", "0",
                         "--max-len", "-3", "--depth", "5")
    assert code == 2
    assert out == ""
    assert err == "invalid input: the maximal element length must be nonnegative\n"


def test_kmap_honours_max_cells(capsys, monkeypatch):
    # x = a1, y = a2 on (3,0) at 2 steps: 4 (n-1) S (2m + S) = 32 letters
    for sub in ("build", "verify"):
        args = ("kmap", sub, "--s", "3", "--t", "0", "--x", "a1", "--y", "a2", "--max-step", "2")
        monkeypatch.setattr(fullgroup.PiecewiseTranslation, "_pieces", None)
        code, out, err = run(capsys, *args, "--max-cells", "31")
        assert code == 3
        assert out == ""
        assert err == "resource bound exceeded: the piece table would hold more than 31 letters\n"
        monkeypatch.undo()
        code, out, _ = run(capsys, *args, "--max-cells", "32", "--format", "json")
        assert code == 0
        assert json.loads(out)["step_count"] == 2


def test_ratio_witness_rejects_non_power(capsys):
    code, _, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", "3")
    assert code == 2
    assert "power" in err


def test_ratio_witness_zero_denominator_exits_2(capsys):
    code, out, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", "1/0")
    assert code == 2
    assert out == ""
    assert err == "invalid input: --lambda 1/0 has a zero denominator\n"


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


@pytest.mark.parametrize("s,t", [(3, 0), (0, 2), (2, 1)])
def test_ck_matrix_honours_max_cells(capsys, monkeypatch, s, t):
    d = s + 2 * t
    args = ("group", "ck-matrix", "--s", str(s), "--t", str(t))
    monkeypatch.setattr(treeboundary.cli, "cuntz_krieger_matrix", None)
    code, out, err = run(capsys, *args, "--max-cells", str(d * d - 1))
    assert code == 3
    assert out == ""
    assert err == f"resource bound exceeded: the matrix would hold more than {d * d - 1} entries\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, *args, "--max-cells", str(d * d), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["matrix"]) == d


def oversized(limit: int) -> dict[str, list[str]]:
    """Every README subcommand that takes a word, point, count or literal, given
    one that is valid but sized from Python's digit limit: a word of 4*limit
    letters, a count of 4*limit or of limit digits, a literal of limit + 65
    digits or 1e(5*limit)."""
    word, other = " ".join(["a1 a2"] * (2 * limit)), " ".join(["a2 a1"] * (2 * limit))
    count, point, digits = str(4 * limit), f"{word} | a1 a3", "9" * limit
    return {
        "measure-word": ["measure", "--word", word],
        "measure-union": ["measure", "--union", json.dumps([word])],
        "sphere": ["group", "sphere", "--m", count],
        "sphere-count": ["group", "sphere", "--m", count, "--count"],
        "act-word": ["act", "--g", word, "--word", other],
        "act-point": ["act", "--g", other, "--point", point],
        "rn-element": ["rn", "--g", word, "--depth", str(4 * limit + 1)],
        "rn-depth": ["rn", "--g", "a1", "--depth", count],
        "kmap-build": ["kmap", "build", "--x", word, "--y", other, "--max-step", "2"],
        "kmap-verify": ["kmap", "verify", "--x", word, "--y", other],
        "kmap-apply": ["kmap", "apply", "--x", word, "--y", other, "--point", point],
        "kmap-build-steps": ["kmap", "build", "--x", "a1", "--y", "a2", "--max-step", count],
        "kmap-apply-steps": ["kmap", "apply", "--x", "a1", "--y", "a2", "--max-step", count,
                             "--point", "a1 a3 | a2 a3"],
        "ergodic": ["ergodic", "check", "--m", count],
        "ratio-values": ["ratio", "values", "--max-len", count, "--depth", str(4 * limit + 1)],
        "witness-literal": ["ratio", "witness", "--lambda", "1" * (limit + 65)],
        "witness-exponent": ["ratio", "witness", "--lambda", f"1e{5 * limit}"],
        "witness-negative-exponent": ["ratio", "witness", "--lambda", f"1e-{5 * limit}"],
        "witness-ambient": ["ratio", "witness", "--lambda", "1/2", "--E", json.dumps([word])],
        "sample-depth": ["sample", "--depth", count, "--n-samples", "1"],
        "sample-count": ["sample", "--depth", "2", "--n-samples", count, "--format", "csv"],
        "sphere-digits": ["group", "sphere", "--m", digits],
        "sphere-count-digits": ["group", "sphere", "--m", digits, "--count"],
        "ratio-values-digits": ["ratio", "values", "--max-len", digits[1:], "--depth", digits],
        "witness-exponent-digits": ["ratio", "witness", "--lambda", "1e" + digits[2:]],
        "sample-digits": ["sample", "--depth", digits, "--n-samples", digits],
        "seed-past-digits": ["sample", "--depth", "2", "--n-samples", "1", "--seed", "1" * (limit + 1)],
        "max-cells-past-digits": ["group", "sphere", "--m", "2", "--max-cells", "1" * (limit + 1)],
        "depth-past-digits": ["rn", "--g", "a1", "--depth", "1" * (limit + 1)],
    }


@pytest.mark.parametrize("name", sorted(oversized(1)))
def test_inputs_sized_from_the_digit_limit_exit_0_or_3(capsys, name):
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    code, _, err = run(capsys, *oversized(limit)[name], "--s", "3", "--t", "0")
    assert code in (0, 3), err
    assert len(err.encode()) < 300
    assert "Exceeds the limit" not in err


@pytest.mark.parametrize("s,t", [(3, 0), (1, 1), (0, 2), (4, 0)])
def test_digit_gate_refuses_exactly_the_numbers_past_the_limit(capsys, monkeypatch, s, t):
    # a limit of 300 digits, below the interpreter's own, so that the numbers
    # on both sides of it can still be converted here to be counted
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 300, raising=False)
    p = treeboundary.Presentation(s, t)
    edge = round(300 / math.log10(p.branching))
    for m in range(edge - 3, edge + 4):
        size, codes = treeboundary.sphere_size(p, m), ()
        for _ in range(m):
            codes += p.followers(codes)[:1]
        values = "".join(f"{Fraction(p.branching) ** k}\n" for k in range(-m, m + 1))
        pa = ("--s", str(s), "--t", str(t))
        for argv, printed, expected in (
            (("group", "sphere", *pa, "--m", str(m), "--count"), size, f"{size}\n"),
            (("measure", *pa, "--word", str(treeboundary.Word(p, codes))), size, f"1/{size}\n"),
            (("ratio", "values", *pa, "--max-len", str(m), "--depth", str(m + 1)), p.branching ** m, values),
        ):
            too_long = len(str(printed)) > 300
            assert run(capsys, *argv)[:2] == ((3, "") if too_long else (0, expected))


WORD_16000 = " ".join(["a1 a2"] * 8000)


@pytest.mark.parametrize("argv", [
    ["measure", "--word", WORD_16000],
    ["measure", "--union", json.dumps([WORD_16000])],
    ["ratio", "witness", "--lambda", "1" * 4365],
], ids=["measure-word", "measure-union", "witness-literal"])
def test_numbers_past_the_digit_limit_exit_3(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code, out, err = run(capsys, *argv, "--s", "3", "--t", "0")
    assert code == 3
    assert out == ""
    assert err.endswith(" has too many digits to print\n")
    assert len(err) < 300


def test_kmap_build_refuses_its_residual_measure_before_the_piece_table(capsys, monkeypatch):
    def refuse(self, j):
        raise AssertionError("the piece table was built")

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.setattr(fullgroup.PiecewiseTranslation, "_pieces", refuse)
    code, out, err = run(capsys, "kmap", "build", "--s", "3", "--t", "0", "--x", WORD_16000,
                         "--y", " ".join(["a2 a1"] * 8000), "--max-step", "2")
    assert code == 3
    assert out == ""
    assert err == "resource bound exceeded: residual_measure has too many digits to print\n"


def test_huge_lambda_is_refused_before_its_exponent(capsys, monkeypatch):
    def refuse(value, n):
        raise AssertionError("the exponent of a huge --lambda was sought")

    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.setattr(treeboundary.ratios, "power_exponent", refuse)
    code, out, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", "1e20000")
    assert code == 3
    assert out == ""
    assert err == "resource bound exceeded: --lambda has too many digits to print\n"


def test_lambda_errors_quote_a_prefix(capsys):
    # 10**3000 has 3001 digits: under Python's default limit it is read and is no
    # power of 2; under a limit of 3000 digits or fewer it is too long to print
    limit = getattr(sys, "get_int_max_str_digits", int)()
    code, out, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", "1e3000")
    assert code == (3 if 0 < limit <= 3000 else 2)
    assert out == ""
    assert len(err) < 300
    for literal in ("1" * 600 + "x", "1" * 600 + "/0"):
        code, out, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", literal)
        assert code == 2
        assert out == ""
        assert "1" * 40 + "..." in err and len(err) < 300


@pytest.mark.parametrize("limit", [300, 640])
def test_digit_gate_is_exact_where_a_power_of_ten_meets_the_limit(capsys, monkeypatch, limit):
    # 10**limit has limit + 1 digits and 10**(limit - 1) has limit; 2.5e-limit and
    # 5e-limit reduce to denominators of limit digits, 1e-limit does not
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    for s, argv, code in (
        (3, ["ratio", "witness", "--lambda", f"1e{limit}"], 3),
        (3, ["ratio", "witness", "--lambda", f"1e{limit - 1}"], 2),
        (3, ["ratio", "witness", "--lambda", f"1e-{limit}"], 3),
        (3, ["ratio", "witness", "--lambda", f"2.5e-{limit}"], 2),
        (3, ["ratio", "witness", "--lambda", f"5E-{limit}"], 2),
        (3, ["ratio", "witness", "--lambda", "1" * (limit + 1)], 3),
        (3, ["ratio", "witness", "--lambda", "1" * limit], 2),
        (11, ["ratio", "values", "--max-len", str(limit), "--depth", str(limit + 1)], 3),
        (11, ["ratio", "values", "--max-len", str(limit - 1), "--depth", str(limit)], 0),
    ):
        got, _, err = run(capsys, *argv, "--s", str(s), "--t", "0")
        assert got == code, (argv[3][:20], err)
        assert "Exceeds the limit" not in err


@pytest.mark.parametrize("literal", ["0e99999", "+0.0e" + "9" * 200, "1/3e5000", "xe9999", "1__0e9999"],
                         ids=["zero", "zero-huge-exponent", "fraction-exponent", "no-mantissa", "underscores"])
def test_lambda_exponent_is_gated_only_on_a_nonzero_decimal(capsys, literal):
    # zero, or no literal Fraction() reads: invalid input, not a number too long to print
    code, out, err = run(capsys, "ratio", "witness", "--s", "3", "--t", "0", "--lambda", literal)
    assert (code, out) == (2, "")
    assert len(err) < 300


# sha256 of the exit code, a newline and the standard output, recorded while
# the parser was rebuilt per call, transitivity built every ordered pair and
# ratio values enumerated: the README's commands and four per presentation;
# the witnesses (k in +-1..+-4, E the whole boundary or one depth-2 cylinder)
# while F was refined into cells, one cocycle per cell; the last twelve (sphere,
# a complement image, a swap table and a sample on (1,1), (0,2) and (4,0))
# while every module stated the successor rule itself
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
    'ratio witness --s 3 --t 0 --lambda 2 --E \'["e"]\' --format json':
        "b1f22a916f3404aff9de29252afae97496c63508617877999626a957ee65f100",
    'ratio witness --s 3 --t 0 --lambda 4 --E \'["e"]\' --format json':
        "ddbe839546604cac889c482f6b28c322879531b7b96696bea94e609b9bcb8ad7",
    'ratio witness --s 3 --t 0 --lambda 8 --E \'["e"]\' --format json':
        "6c05f5995edf477582020c44bcf1bb5a685d74837240dd39f05f963d01a7d43e",
    'ratio witness --s 3 --t 0 --lambda 16 --E \'["e"]\' --format json':
        "42dd749dcf8f5bf56334502e291d4e2bbd9410b989576667e1d626f335828d8e",
    'ratio witness --s 3 --t 0 --lambda 1/2 --E \'["e"]\' --format json':
        "04d735f6cb545731c195a71278b66975bf850aab95d548c036e543d856ec47d3",
    'ratio witness --s 3 --t 0 --lambda 1/4 --E \'["e"]\' --format json':
        "80adec93c05186aed97bb1d72f686e962713465921c02f596b7b6880d93406fa",
    'ratio witness --s 3 --t 0 --lambda 1/8 --E \'["e"]\' --format json':
        "5f5aaa460d70d3d50f8392c99728cd3472533c2f884bd2859c9293badb7373be",
    'ratio witness --s 3 --t 0 --lambda 1/16 --E \'["e"]\' --format json':
        "bf4556e0bc6554754b1a162c560de7de826c2af519b6701db091936b7878c9d4",
    'ratio witness --s 3 --t 0 --lambda 2 --E \'["a3 a1"]\' --format json':
        "b5214dfe0aa3cc6d073172d6b771873b788bd3fb7f38a383bf240ac612dd10c3",
    'ratio witness --s 3 --t 0 --lambda 4 --E \'["a3 a1"]\' --format json':
        "2819dbb60906c0965576866ec0e96090e1a917ca3c4d4127dc5bf7bd6210bc2a",
    'ratio witness --s 3 --t 0 --lambda 8 --E \'["a3 a1"]\' --format json':
        "f18d447859b4738d6af5cdea1977efa88d90bc97d33373579c0a693e52cdb003",
    'ratio witness --s 3 --t 0 --lambda 16 --E \'["a3 a1"]\' --format json':
        "e9ab86a283269f01b64b3782007fbb31fbfaa4e726ebc721081390c86097bc3b",
    'ratio witness --s 3 --t 0 --lambda 1/2 --E \'["a3 a1"]\' --format json':
        "5afb71da88ee954aa01f654af0a47afc8f494a2103f930aee549a4f0171bef6d",
    'ratio witness --s 3 --t 0 --lambda 1/4 --E \'["a3 a1"]\' --format json':
        "81a3932974b81428b377651c0c032ebfa0ce2cbfd421956e0172131a7e853dca",
    'ratio witness --s 3 --t 0 --lambda 1/8 --E \'["a3 a1"]\' --format json':
        "c241e2605f73dba7e59698841e32563ee22cf0943296c725939324227114bbdb",
    'ratio witness --s 3 --t 0 --lambda 1/16 --E \'["a3 a1"]\' --format json':
        "e55fccaf4f37b3ddea2660a7990dbc678b9dc5df22cfa27becab0439cb786309",
    'ratio witness --s 1 --t 1 --lambda 2 --E \'["e"]\' --format json':
        "3764f40f50d284526a5d0491b60f29b0b2f9bdf9e4094ba66237fc4486f6390e",
    'ratio witness --s 1 --t 1 --lambda 4 --E \'["e"]\' --format json':
        "cdbeb0b4e8cc1e6729016f0ab0f9580d4b6c838beba4ea5adba4009da0fe9401",
    'ratio witness --s 1 --t 1 --lambda 8 --E \'["e"]\' --format json':
        "a8b2a5350f543fdeee0e80f442cdd5441844c4d6bd9c1001eebb6a6ec429a1e3",
    'ratio witness --s 1 --t 1 --lambda 16 --E \'["e"]\' --format json':
        "370f91ee08460035bfd07d5bd87c6336ebc97b21a80a447e44fbdeabca5ec421",
    'ratio witness --s 1 --t 1 --lambda 1/2 --E \'["e"]\' --format json':
        "532c9b3bc9fee40ee6e06b54c05b94728afe7543782792f20c6cce72aeddb4b7",
    'ratio witness --s 1 --t 1 --lambda 1/4 --E \'["e"]\' --format json':
        "8f253495e1d4bacef57ff16dbe74bad8c4ff0eb47f2eb7e56c7f4d6482de8a35",
    'ratio witness --s 1 --t 1 --lambda 1/8 --E \'["e"]\' --format json':
        "3e63525838ccc124a8546f6ebee3dcb11aae6a3f5ab8fd515bba1992346ff0b3",
    'ratio witness --s 1 --t 1 --lambda 1/16 --E \'["e"]\' --format json':
        "6694459bd020d067aebcc5fef1d853aa1302e0aaa38bb1dc624c9681be7b8024",
    'ratio witness --s 1 --t 1 --lambda 2 --E \'["b1 a1"]\' --format json':
        "ce1746e1612ab38d973c87057c99c81e617f60ea5c22d8da52b78bd823b06cee",
    'ratio witness --s 1 --t 1 --lambda 4 --E \'["b1 a1"]\' --format json':
        "bbc81fe9a79513c9d90556f4611db1510efc4fd69055d79e7c871f7345a8473e",
    'ratio witness --s 1 --t 1 --lambda 8 --E \'["b1 a1"]\' --format json':
        "6e0219301730cd21084ee9f2f15f33b2c60109fd0414f15ed8bed6319dcd02f1",
    'ratio witness --s 1 --t 1 --lambda 16 --E \'["b1 a1"]\' --format json':
        "f10e0634f2adeb471a1d189f6592f3443666ddae016c3b129e651d61ab342f32",
    'ratio witness --s 1 --t 1 --lambda 1/2 --E \'["b1 a1"]\' --format json':
        "f976a72b610d956c911004f6eda8a18f0a4049a16e0301ba0a0ce20304d07994",
    'ratio witness --s 1 --t 1 --lambda 1/4 --E \'["b1 a1"]\' --format json':
        "998ca950c587b0e102db65c6781f233c14be3fd8beb3feb127a8aa1650d8cba8",
    'ratio witness --s 1 --t 1 --lambda 1/8 --E \'["b1 a1"]\' --format json':
        "73e2bbca8847dacfacf2a8ffb4f2e886c66ecb8260759e777b7961597f797c9d",
    'ratio witness --s 1 --t 1 --lambda 1/16 --E \'["b1 a1"]\' --format json':
        "1afa8d031a87ab2771261f383571c45e152cd66488c3243410b8eb1572ab58dd",
    'ratio witness --s 0 --t 2 --lambda 3 --E \'["e"]\' --format json':
        "3c442f61a87c9f37208ce86fc53efc05e64ffa5d77414e10ed96645faca6aea9",
    'ratio witness --s 0 --t 2 --lambda 9 --E \'["e"]\' --format json':
        "ccc1cf6815d304153d056afd6b4f4942a5342b15d6dd9bff5bff4002609ec751",
    'ratio witness --s 0 --t 2 --lambda 27 --E \'["e"]\' --format json':
        "f2c3beee66c007e05c74813eb39060d4b28135b04fa132883b875bd8995bf042",
    'ratio witness --s 0 --t 2 --lambda 81 --E \'["e"]\' --format json':
        "533bc03978c0375c64edfcc82a2a92f917f87de21e10aa78a75c4501ca17a35a",
    'ratio witness --s 0 --t 2 --lambda 1/3 --E \'["e"]\' --format json':
        "b2ae93182f0f7d09347c6655e09e3e677a78bdbb4d5e57b030ebe1630b312a33",
    'ratio witness --s 0 --t 2 --lambda 1/9 --E \'["e"]\' --format json':
        "374b88eb4817728c089cd726df8ff46b274b8d751441d0cbbbd2e75a46da450b",
    'ratio witness --s 0 --t 2 --lambda 1/27 --E \'["e"]\' --format json':
        "03910649fe21087fe82156dd51c80abc42572fa4805ab293e6313403d22393d5",
    'ratio witness --s 0 --t 2 --lambda 1/81 --E \'["e"]\' --format json':
        "9426a72398fef5176ad94b445b078370f12f9e1675462ef3f8924022640e3d0f",
    'ratio witness --s 0 --t 2 --lambda 3 --E \'["b2 b1"]\' --format json':
        "be9facb5ac3ba7a1715ff108892079e3d2b3692d984de7e8f5db1d5e4deedf83",
    'ratio witness --s 0 --t 2 --lambda 9 --E \'["b2 b1"]\' --format json':
        "32a8e2a3f31db2205c52796532a1942e26d61a3a72a119ec1e549d2e6a430766",
    'ratio witness --s 0 --t 2 --lambda 27 --E \'["b2 b1"]\' --format json':
        "39f56fbfa1d7e2608b4917a757ead4343d148f4edfc03a3cd08a6443d72bb1dc",
    'ratio witness --s 0 --t 2 --lambda 81 --E \'["b2 b1"]\' --format json':
        "9fe529d81e9d391864186937060cc3693e0d2e631ca20ec0bc3e6dc0f8bd9e5f",
    'ratio witness --s 0 --t 2 --lambda 1/3 --E \'["b2 b1"]\' --format json':
        "ab45e5863d49b92d2c162cfd52186b9538e144ba8bd622cdbd24e79ec95f7808",
    'ratio witness --s 0 --t 2 --lambda 1/9 --E \'["b2 b1"]\' --format json':
        "df8877be4d83054337689dd1f045489c9cf84187c30832c7f97f718a84e0f481",
    'ratio witness --s 0 --t 2 --lambda 1/27 --E \'["b2 b1"]\' --format json':
        "f3e359fb2938a2cbfbc4dead3f1e60a61c5d530d9379487737307376d5c722a5",
    'ratio witness --s 0 --t 2 --lambda 1/81 --E \'["b2 b1"]\' --format json':
        "a07c6cd18ad12d0710f023b1810f8083e04dde92b1caba45fd024571e7397587",
    'ratio witness --s 4 --t 0 --lambda 3 --E \'["e"]\' --format json':
        "734dadac3a5ce064d4bbb8dcfffb671e681fa001381ab0c8317e1750566d41a7",
    'ratio witness --s 4 --t 0 --lambda 9 --E \'["e"]\' --format json':
        "5daed6b2108d5d90586240495efc9315ffef064a81e8db1132bfb319fb078b19",
    'ratio witness --s 4 --t 0 --lambda 27 --E \'["e"]\' --format json':
        "0117da50b74217fd4fbc8652ac8d348b1cfd75d7c86c4533fa0ef51766297c54",
    'ratio witness --s 4 --t 0 --lambda 81 --E \'["e"]\' --format json':
        "636cc6db8fc27175d4940975312d5fe74abb47a639f6899c8a4635d13e2d60ab",
    'ratio witness --s 4 --t 0 --lambda 1/3 --E \'["e"]\' --format json':
        "b04225083749df620ac6db92da4c6e51590eb5d7a34eade30c817af731ca331b",
    'ratio witness --s 4 --t 0 --lambda 1/9 --E \'["e"]\' --format json':
        "df0310fe5ff67aa1760c9cd31590f958588681cf638a8e30c9ffa53f6b8a070f",
    'ratio witness --s 4 --t 0 --lambda 1/27 --E \'["e"]\' --format json':
        "ca260acc1fae4ac7786b11d500edb4c78aef75f9437edbf4b8b7e0f7cf536c51",
    'ratio witness --s 4 --t 0 --lambda 1/81 --E \'["e"]\' --format json':
        "b29346544900f30467c674a331d4579716780188128d77c1154344896e77a591",
    'ratio witness --s 4 --t 0 --lambda 3 --E \'["a3 a1"]\' --format json':
        "d0cabd859121242c53956e5936fbac35461c9971820922bedccf4be2ffd542a7",
    'ratio witness --s 4 --t 0 --lambda 9 --E \'["a3 a1"]\' --format json':
        "709fc0a13d8916245c9c7b39b642eccfda4b10244d17a03736a7876960a71527",
    'ratio witness --s 4 --t 0 --lambda 27 --E \'["a3 a1"]\' --format json':
        "b6a2a81897b1c1c509e102986cc1505d75ab085882e825704b7d91fbbbeb12ba",
    'ratio witness --s 4 --t 0 --lambda 81 --E \'["a3 a1"]\' --format json':
        "4ce7d5727673f20ac7281f01b04272d2ec14771aea8e35f78580e94874440756",
    'ratio witness --s 4 --t 0 --lambda 1/3 --E \'["a3 a1"]\' --format json':
        "e453e8b116b98e017b8eecc64f6ac9ce34ecbc07fdf926d86f393ec2df0b04e4",
    'ratio witness --s 4 --t 0 --lambda 1/9 --E \'["a3 a1"]\' --format json':
        "d34e04105cfce9597b3f0d2fcead5db8fa6833bb408f1ae22ae54870eef68361",
    'ratio witness --s 4 --t 0 --lambda 1/27 --E \'["a3 a1"]\' --format json':
        "4340fc19a2fa654bb14bde75143dd216f4407a72d5a3df707307613035ffbc76",
    'ratio witness --s 4 --t 0 --lambda 1/81 --E \'["a3 a1"]\' --format json':
        "747c66f66faf29f5f716c87570143792105e8abd0285f539cc1fea0ffe068eff",
    'group sphere --s 1 --t 1 --m 3':
        "9d18806e630605295fa9714afdb42b9c349e21ce950fd314734183d475cb7510",
    'act --s 1 --t 1 --g \'b1 a1\' --word "a1 b1\'"':
        "e1788b3e88571e115ac8693e376d38e8061578f736e2be4ab3a29e3ffb11d97b",
    "kmap build --s 1 --t 1 --x 'a1 b1' --y 'b1 a1' --max-step 3 --format json":
        "03039ac503344104d20f337c13570cc9d28bcdce0dccc60e143dce9c6d54b917",
    'sample --s 1 --t 1 --depth 6 --n-samples 200 --seed 3 --format json':
        "876a5569f559f8d5871de1356f3775e278d73cefbb90797a746896cc1c474c34",
    'group sphere --s 0 --t 2 --m 3':
        "4dcba8879dc391ef8d479ebe3e3e2c4bece3bca7d1c63b9413c549a4af3c67c5",
    'act --s 0 --t 2 --g \'b2 b1\' --word "b1\' b2\'"':
        "75835e3b32804d374d629e342f5db858d6a2e73c2fc4a130177bebc0f8e40fa5",
    'kmap build --s 0 --t 2 --x \'b1 b2\' --y "b2\' b1" --max-step 3 --format json':
        "ad2af506c6340fdca22724637e9e63d1bb4b83565e559d004449479a4903c40e",
    'sample --s 0 --t 2 --depth 6 --n-samples 200 --seed 3 --format json':
        "a3c91ad31a71ff1e303e52e1ba1827124e00d4a86b0af365dcc07a4962982c5a",
    'group sphere --s 4 --t 0 --m 3':
        "f12a3f9c40a1e6606099b38a7ff581da0a1243c02dde7e8ca759f32f10ae6143",
    "act --s 4 --t 0 --g 'a2 a3' --word 'a3 a2'":
        "283c096267528a41165a4074cd6b46415c5b7939f7a159a7623aca9d892c815a",
    "kmap build --s 4 --t 0 --x 'a1 a2' --y 'a3 a4' --max-step 3 --format json":
        "7e53ddf15f8e999cf6be78a3e62bc9ef721c31d08ad0dcf321ae7f8a01c86d89",
    'sample --s 4 --t 0 --depth 6 --n-samples 200 --seed 3 --format json':
        "16c56e00e348ec3550798780e3a3e90059fef9e2f58bc3bb4f63f0f0782f4300",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_is_byte_identical(capsys, command):
    code, out, _ = run(capsys, *shlex.split(command))
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == GOLDEN[command]
