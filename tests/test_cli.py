"""End-to-end driver tests: exit codes, outputs, determinism."""

import hashlib
import json

import pytest

from ncdga import builtin_source, cli, print_dga
from ncdga.cli import build_parser, main

from conftest import XY_SOURCE

AUG_P = "target matrix 2 over Z2 ; x = [[0,1],[1,0]] ; y = [[0,1],[1,0]]\n"
AUG_ID = "target matrix 2 over Z2 ; x = [[1,0],[0,1]] ; y = [[1,0],[0,1]]\n"
# augmentations of d a = x*y - 1 over Q: x = y = 1 is one, x = 2, y = 1 is not
CURVED_SOURCE = XY_SOURCE.replace("ring Z2", "ring Q")
AUG_ONE = "target free over Q\nx = 1\ny = 1\n"
AUG_TWO = "target free over Q\nx = 2\ny = 1\n"


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.dga"
    assert main(["example", "toy", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def toy_h_file(tmp_path):
    path = tmp_path / "toyh.dga"
    assert main(["example", "toy-hermitian", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def xy_file(tmp_path):
    path = tmp_path / "xy.dga"
    path.write_text(XY_SOURCE)
    return str(path)


@pytest.fixture()
def curved_files(tmp_path):
    """The curved DGA over Q, an augmentation of it and a map that is not."""
    paths = []
    for name, text in [("curved.dga", CURVED_SOURCE), ("one.aug", AUG_ONE), ("two.aug", AUG_TWO)]:
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


def test_example_prints_source(capsys):
    assert main(["example", "toy"]) == 0
    out = capsys.readouterr().out
    assert "algebra free g1 g2" in out
    assert main(["example", "nope"]) == 2


def test_check_ok(toy_file, capsys):
    assert main(["check", toy_file]) == 0
    assert "d^2 = 0: OK" in capsys.readouterr().out


def test_check_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dga"
    bad.write_text(
        "ring Z2\nalgebra free g1 g2\ngrading mod 0\n"
        "gen c1 deg 2\ngen c2 deg 1\ngen c4 deg 0\ngen c5 deg 0\n"
        "d c1 = c2*g1*c4\nd c2 = c5*g2\n"
    )
    assert main(["check", str(bad)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.dga"
    bad.write_text("ring Z2\nalgebra free g1\ngen a deg 1\nd a = b\n")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    # a modulus past the exact primality bound is refused, not tested for hours
    bad.write_text(f"ring Z{2**127 - 1}\nalgebra free g1\n")
    assert main(["check", str(bad)]) == 2
    assert "3317044064679887385961981 and above" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["check", "/nonexistent.dga"]) == 2


def test_mu_case_two(toy_h_file, capsys):
    assert (
        main(
            [
                "mu",
                toy_h_file,
                "--case",
                "II",
                "--inputs",
                "c2*h*c4",
                "--coeff",
                "h=g1",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "c1"


def test_mu_case_one(toy_file, capsys):
    assert main(["mu", toy_file, "--case", "I", "--inputs", "g2*c5, c4"]) == 0
    assert capsys.readouterr().out.strip() == "g2*g2*g1*c3"


@pytest.mark.parametrize("inputs", ["c2*c4", "(g1+c3)*c2,c4"])
def test_mu_case_one_rejects_generators_in_a_coefficient(toy_file, capsys, inputs):
    assert main(["mu", toy_file, "--case", "I", "--inputs", inputs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must not contain generators" in captured.err
    assert inputs.split(",")[0] in captured.err


def test_ainfty_verify(toy_file, toy_h_file, capsys):
    assert main(["ainfty-verify", toy_file, "--case", "I", "--max-arity", "4"]) == 0
    assert "all residuals vanish" in capsys.readouterr().out
    assert main(["ainfty-verify", toy_h_file, "--case", "II", "--max-arity", "4"]) == 0


def test_ainfty_verify_needs_augmentations(tmp_path, capsys):
    """d a = x*y - 1 is curved: the trivial map sends d a to -1, so it is
    no augmentation and no relation is read off d^2."""
    curved = tmp_path / "curved.dga"
    curved.write_text(XY_SOURCE.replace("ring Z2", "ring Q"))
    assert main(["ainfty-verify", str(curved), "--case", "I"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps(d a) = -1" in captured.err


def test_ainfty_verify_without_candidates_checks_every_pattern(curved_files, capsys):
    """No differential contains a, so no arity has a candidate pattern."""
    curved, one, _two = curved_files
    args = ["ainfty-verify", curved, "--case", "I", "--eps", one]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out == "all residuals vanish (120 checks)\n"
    assert main(args + ["--exhaustive"]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_ainfty_verify_without_checks_is_a_usage_error(toy_file, capsys, bound):
    assert main(["ainfty-verify", toy_file, "--case", "I", "--max-arity", bound]) == 2
    captured = capsys.readouterr()
    assert "all residuals vanish" not in captured.out
    assert "max arity" in captured.err


def test_bad_fraction_exit_code(tmp_path, xy_file, capsys):
    bad = tmp_path / "half.dga"
    bad.write_text("ring Z2\nalgebra free g1\ngen a deg 1\ngen x deg 0\nd a = 1/2*x\n")
    assert main(["check", str(bad)]) == 2
    assert "line 5, column 7" in capsys.readouterr().err
    half = tmp_path / "half.aug"
    half.write_text("target matrix 2 over Z2\nx = 1/2\n")
    assert main(["aug-check", xy_file, "--aug", str(half)]) == 2
    assert "line 2, column 5" in capsys.readouterr().err


def test_aug_check_and_develop(xy_file, tmp_path, capsys):
    aug = tmp_path / "p.aug"
    aug.write_text(AUG_P)
    assert main(["aug-check", xy_file, "--aug", str(aug)]) == 0
    out = tmp_path / "dev.dga"
    assert main(["develop", xy_file, "--aug", str(aug), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0

    bad = tmp_path / "bad.aug"
    bad.write_text("target matrix 2 over Z2\nx = [[0,1],[1,0]]\ny = [[1,0],[0,0]]\n")
    assert main(["aug-check", xy_file, "--aug", str(bad)]) == 1


def test_homology_table_and_json(xy_file, tmp_path, capsys):
    aug_p = tmp_path / "p.aug"
    aug_p.write_text(AUG_P)
    aug_id = tmp_path / "id.aug"
    aug_id.write_text(AUG_ID)
    args = ["homology", xy_file, "--aug", str(aug_p), "--aug", str(aug_id)]
    assert main(args) == 0
    table = capsys.readouterr().out
    assert "total dimension: 4" in table
    assert main(args + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_dimension"] == 4
    degrees = {entry["degree"]: entry["dimension"] for entry in payload["degrees"]}
    assert degrees == {1: 4, 2: 0}


def test_product_command(xy_file, tmp_path, capsys):
    aug = tmp_path / "p.aug"
    aug.write_text(AUG_P)
    assert main(["product", xy_file, "--aug", str(aug)]) == 0
    out = capsys.readouterr().out
    assert "H1[0] * H1[0]" in out


@pytest.mark.parametrize(
    "command, message",
    [
        ("homology", "homology needs at most two --aug files"),
        ("linearize", "linearize needs one or two --aug files"),
        ("product", "product needs one or three --aug files"),
    ],
)
def test_wrong_augmentation_count_is_a_usage_error(xy_file, tmp_path, capsys, command, message):
    aug_p = tmp_path / "p.aug"
    aug_p.write_text(AUG_P)
    aug_id = tmp_path / "id.aug"
    aug_id.write_text(AUG_ID)
    # homology and linearize take a pair, product a triple
    paths = [aug_p, aug_id, aug_id] if command != "product" else [aug_p, aug_id]
    args = [command, xy_file]
    for path in paths:
        args += ["--aug", str(path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, augs, message",
    [
        ("homology", [], "augmentation 1 of 2: FAILED (1 of 3 checks)\n  eps(d a) = -1"),
        ("homology", ["two"], "augmentation 1 of 2: FAILED (1 of 5 checks)\n  eps(d a) = 1"),
        ("homology", ["one", "two"], "augmentation 2 of 2: FAILED (1 of 5 checks)\n  eps(d a) = 1"),
        ("linearize", ["two", "one"], "augmentation 1 of 2: FAILED (1 of 5 checks)\n  eps(d a) = 1"),
        ("product", ["two"], "augmentation 1 of 3: FAILED (1 of 5 checks)\n  eps(d a) = 1"),
        ("product", ["one", "one", "two"], "augmentation 3 of 3: FAILED (1 of 5 checks)\n  eps(d a) = 1"),
    ],
    ids=["homology-trivial", "homology-one-file", "homology-second", "linearize", "product-one-file", "product-third"],
)
def test_complexes_need_augmentations(curved_files, capsys, command, augs, message):
    """The trivial map and x = 2, y = 1 do not vanish on d a = x*y - 1;
    the message names the first entry of the tuple that fails."""
    curved, one, two = curved_files
    args = [command, curved]
    for name in augs:
        args += ["--aug", one if name == "one" else two]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_error_names_the_failing_augmentation(curved_files, capsys):
    curved, one, two = curved_files
    assert main(["ainfty-verify", curved, "--case", "I", "--eps", one, "--eps", two]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: augmentation 2 of 2: FAILED (1 of 5 checks)\n  eps(d a) = 1\n"


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one main call; usage errors and
    --help exit through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_calls_match_fresh_parsers(xy_file, curved_files, tmp_path, monkeypatch, capsys):
    """main parses with one parser per process; a sequence of calls prints
    what it prints when every call builds its own parser."""
    aug_p = tmp_path / "p.aug"
    aug_p.write_text(AUG_P)
    aug_id = tmp_path / "id.aug"
    aug_id.write_text(AUG_ID)
    curved, one, _two = curved_files
    commutator = tmp_path / "commutator.dga"
    commutator.write_text(CURVED_SOURCE.replace("x*y - 1", "x*y - y*x"))
    pair = ["--aug", str(aug_p), "--aug", str(aug_id)]
    calls = [
        ["homology", xy_file] + pair,
        ["homology", xy_file] + pair + ["--json"],
        # appends to --aug do not carry over: no --aug is the trivial map
        ["homology", curved],
        ["homology", str(commutator)],
        ["homology", xy_file, "--aug", str(aug_p), "--case", "II", "--json"],
        ["homology", xy_file, "--case", "III"],
        ["homology", curved, "--aug", one],
        ["product", xy_file, "--aug", str(aug_p)],
        ["linearize", xy_file] + pair + ["--case", "II"],
        ["homology", "--help"],
        ["homology", xy_file, "--aug", str(aug_id)],
        ["ainfty-verify", curved, "--case", "I", "--eps", one, "--max-arity", "2"],
    ]
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    reused = [_run(argv, capsys) for argv in calls]
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [_run(argv, capsys) for argv in calls]
    assert reused == fresh
    assert [code for code, _out, _err in reused] == [0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0]
    assert reused[2][2] == "error: augmentation 1 of 2: FAILED (1 of 3 checks)\n  eps(d a) = -1\n"
    assert "invalid choice: 'III'" in reused[5][2]


def test_ncopy_mirror_subdga_roundtrip(toy_file, tmp_path, capsys):
    two = tmp_path / "toy2.dga"
    assert main(["ncopy", toy_file, "-n", "2", "-o", str(two)]) == 0
    assert main(["check", str(two)]) == 0
    assert "link grading (2 components): OK" in capsys.readouterr().out

    sub = tmp_path / "sub.dga"
    assert main(["subdga", str(two), "--components", "1", "-o", str(sub)]) == 0
    assert main(["check", str(sub)]) == 0

    mirrored = tmp_path / "mirror.dga"
    assert main(["mirror", toy_file, "-o", str(mirrored)]) == 0
    assert main(["check", str(mirrored)]) == 0


def test_subdga_action(tmp_path):
    from conftest import ACTION_SOURCE

    src = tmp_path / "action.dga"
    src.write_text(ACTION_SOURCE)
    out = tmp_path / "low.dga"
    assert main(["subdga", str(src), "--action", "3", "-o", str(out)]) == 0
    text = out.read_text()
    assert "gen c1" not in text and "gen c2" in text


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--action", "1/0", "not a fraction: '1/0'"),
        ("--action", "abc", "not a fraction: 'abc'"),
        ("--components", "a,b", "not a comma-separated list of integers: 'a,b'"),
    ],
)
def test_subdga_bad_values_are_usage_errors(toy_file, capsys, option, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["subdga", toy_file, option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {message}" in err
    assert "Traceback" not in err


def test_coeffchange_split_and_map(toy_file, tmp_path, capsys):
    # split coefficients have one path, ncopy --split; coeffchange needs --map
    split = tmp_path / "split.dga"
    assert main(["ncopy", toy_file, "-n", "2", "--split", "-o", str(split)]) == 0
    assert main(["check", str(split)]) == 0
    assert "algebra split 2 free g1 g2" in split.read_text()
    with pytest.raises(SystemExit) as exc:
        main(["coeffchange", toy_file, "--split", "2", "-o", str(split)])
    assert exc.value.code == 2
    assert "--map" in capsys.readouterr().err

    mapfile = tmp_path / "collapse.map"
    mapfile.write_text("target free over Z2\ng1 = 1\ng2 = 1\n")
    out = tmp_path / "collapsed.dga"
    assert main(["coeffchange", toy_file, "--map", str(mapfile), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0


def test_linearize_output(toy_file, tmp_path, capsys):
    mapfile = tmp_path / "collapse.map"
    mapfile.write_text("target free over Z2\ng1 = 1\ng2 = 1\n")
    spec = tmp_path / "spec.dga"
    assert main(["coeffchange", toy_file, "--map", str(mapfile), "-o", str(spec)]) == 0
    capsys.readouterr()
    trivial = tmp_path / "trivial.aug"
    trivial.write_text("# trivial\n")
    assert main(["linearize", str(spec), "--aug", str(trivial)]) == 0
    out = capsys.readouterr().out
    assert "degree 1: dim 2" in out


def test_reports_are_deterministic(toy_h_file, capsys):
    runs = []
    for _ in range(2):
        assert main(["ainfty-verify", toy_h_file, "--case", "II", "--max-arity", "3"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name in [
        "check",
        "aug-check",
        "develop",
        "mu",
        "ainfty-verify",
        "linearize",
        "homology",
        "product",
        "ncopy",
        "mirror",
        "coeffchange",
        "subdga",
        "example",
    ]:
        assert name in out


@pytest.mark.parametrize(
    "data, message",
    [
        (b"ring Q\nalgebra free\n\xff\xfe gen a deg 1\n", "is not UTF-8 text: invalid start byte at byte 20"),
        (b"ring Q\nalgebra free\ngen a deg 1\nd a = " + b"(" * 3000 + b"1" + b")" * 3000, "(line 4, column 207)"),
    ],
    ids=["not-utf8", "deep-parentheses"],
)
def test_malformed_input_files_are_usage_errors(tmp_path, capsys, data, message):
    path = tmp_path / "malformed.dga"
    path.write_bytes(data)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    if "UTF-8" in message:
        assert str(path) in captured.err


# recorded before case I and case II shared one label codec: the curved DGA
# into matrix 2 over Q with two augmentations, and the commutator DGA with one
M2_P = "target matrix 2 over Q\nx = [[0,1],[1,0]]\ny = [[0,1],[1,0]]\n"
M2_U = "target matrix 2 over Q\nx = [[1,1],[0,1]]\ny = [[1,-1],[0,1]]\n"
M2_C = "target matrix 2 over Q\nx = [[1,1],[0,1]]\ny = [[2,1],[0,2]]\n"
COMMUTATOR_SOURCE = CURVED_SOURCE.replace("x*y - 1", "x*y - y*x")


@pytest.mark.parametrize(
    "source, augs, case, lines, digest",
    [
        (CURVED_SOURCE, [M2_P, M2_U], "I", 8, "e74dc15ab8278469431e557b2783bf6e0e02a8c3adc758fae3ab2877422f8f1d"),
        (CURVED_SOURCE, [M2_P, M2_U], "II", 20, "5251b4011739b4cb2c970774d90febfe591c602fd311bcb40f2bb2bc0ec52108"),
        (COMMUTATOR_SOURCE, [M2_C], "I", 8, "bf660e2fc5150771d8d89f1b59317ddb265a019a94fe61afc6b116cbd72a18ad"),
        (COMMUTATOR_SOURCE, [M2_C], "II", 20, "19fc1b82a3282b08d6d47931de71672f5b1c839e04bda3edb962617b180b5d47"),
    ],
    ids=["curved-I", "curved-II", "commutator-I", "commutator-II"],
)
def test_linearize_output_is_pinned(tmp_path, capsys, source, augs, case, lines, digest):
    dga = tmp_path / "m2.dga"
    dga.write_text(source)
    args = ["linearize", str(dga), "--case", case]
    for i, text in enumerate(augs):
        aug = tmp_path / f"{i}.aug"
        aug.write_text(text)
        args += ["--aug", str(aug)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded before the word slot loop was shared: values of c4, one file each
EPS = {"g1": "c4 = g1\n", "g21": "c4 = g2*g1\n", "h1": "c4 = g1^-1\n"}


@pytest.mark.parametrize(
    "case, inputs, eps, expected",
    [
        ("I", "c2, c4", ["g1", "g21", "g1"], "g1*c1"),
        ("I", "g2*c5, c4", ["g1", "g21", "g1"], "g2*g2*g1*c3"),
        ("I", "g1*c5", ["g21", "g1"], "g1*g2*c2 + g1*g2*g1*g1*c3"),
        ("I", "(g1+g2)*c2", ["g21", "g1"], "(g1*g1*g1 + g2*g1*g1)*c1"),
        ("II", "c2*g1*c4", ["h1", "g21", "h1"], "c1"),
        ("II", "g1*c5*g2*g1*c4*g2", ["h1", "g21", "h1"], "g1*c3*g2"),
        ("II", "g2*c5*g1", ["g21", "h1"], "g2*c2*g2^-1*g1 + g2*c3*g2^-1*g1"),
        ("II", "c5 + g1*c2", ["g21", "h1"], "g1*c1 + c2*g2^-1 + c3*g2^-1"),
    ],
)
def test_mu_with_augmentations_is_pinned(toy_file, toy_h_file, tmp_path, capsys, case, inputs, eps, expected):
    args = ["mu", toy_file if case == "I" else toy_h_file, "--case", case, "--inputs", inputs]
    for name in eps:
        aug = tmp_path / f"{name}.aug"
        aug.write_text(EPS[name])
        args += ["--eps", str(aug)]
    assert main(args) == 0
    assert capsys.readouterr().out == expected + "\n"


# recorded before develop read the component builder: (DGA, augmentation,
# stdout lines, sha256 of stdout); "q-corpus" is the shifted q-style corpus
# DGA, printed, with the augmentation its offset induces
M3_Z2 = "target matrix 3 over Z2\nx = [[1,1,0],[0,1,1],[0,0,1]]\ny = [[1,1,1],[0,1,1],[0,0,1]]\n"
DEVELOPED = [
    (CURVED_SOURCE, M2_P, 7, "3f2f37eb5d0d2835bd0eab167b917cf00d59e3463eaad3909fd4577a800f6a37"),
    (XY_SOURCE, M3_Z2, 7, "21fd48a1e59937dfccbdb4f4b1a1481eaf527e3d33b5be4596f40265b687c1f6"),
    ("q-corpus", "u4 = -1\n", 16, "ec54ca87a72c0e4e6620c1233c38dd3e8e8e30768738229d2582dfbd96f0896f"),
    (builtin_source("toy"), "", 11, "5be86585a7b6fb7a16122ec4bb3fd893e4ca4926d66707461ad5e43d1f07c66e"),
]


def test_develop_output_is_pinned(tmp_path, capsys, q_corpus_augmented, curved_files):
    dga, aug = tmp_path / "d.dga", tmp_path / "e.aug"
    for source, text, lines, digest in DEVELOPED:
        dga.write_text(print_dga(q_corpus_augmented[0]) if source == "q-corpus" else source)
        aug.write_text(text)
        assert main(["develop", str(dga), "--aug", str(aug)]) == 0
        captured = capsys.readouterr()
        assert (len(captured.out.splitlines()), captured.err) == (lines, "")
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    curved, _one, two = curved_files
    assert main(["develop", curved, "--aug", two]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: augmentation 1 of 1: FAILED (1 of 5 checks)")
    assert "eps(d a) = 1" in captured.err
