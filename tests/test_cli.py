import hashlib
import json

import pytest

from wreathnorm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_props_check(capsys):
    code, out, _ = run_cli(capsys, "props", "check", "--group", "A5")
    assert code == 0
    doc = json.loads(out)
    assert doc["group_hash"]
    assert all(doc["result"][k]["holds"] for k in ("S1", "S2", "S3", "S4"))


def test_props_check_fails_on_s3(capsys):
    code, out, _ = run_cli(capsys, "props", "check", "--group", "S3")
    assert code == 1
    doc = json.loads(out)
    assert not doc["result"]["S1"]["holds"]


def test_norm_eval_shift_five(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "eval", "--element", '{"shift": 5, "support": {}}'
    )
    assert code == 0
    assert json.loads(out)["result"]["norm"] == 5


def test_norm_eval_truncated(capsys):
    code, out, _ = run_cli(
        capsys,
        "norm",
        "eval",
        "--element",
        '{"shift": 1, "support": {}}',
        "--truncated",
        "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["norm"] == 1
    assert "truncated(4)" in doc["result"]["mode"]


def test_norm_table_csv(capsys):
    code, out, _ = run_cli(capsys, "norm", "table", "--group", "S3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "element,value"
    assert len(lines) == 7


def test_norm_table_json_validates(capsys):
    code, out, _ = run_cli(capsys, "norm", "table", "--group", "S3")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["validation"]["ok"]
    assert doc["result"]["invariance"]["ok"]


def test_byte_stability(capsys):
    _, first, _ = run_cli(capsys, "props", "check", "--group", "S3")
    _, second, _ = run_cli(capsys, "props", "check", "--group", "S3")
    assert first == second


def test_decompose_verified(capsys):
    element = json.dumps(
        {"shift": 0, "support": {"0": [1, 2, 0, 3, 4], "4": [0, 2, 3, 1, 4]}}
    )
    code, out, _ = run_cli(
        capsys, "decompose", "--element", element, "--kind", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verified"]
    assert doc["result"]["witness"]["kind"] == {"k": 2}


def test_decompose_pm1_residual(capsys):
    element = json.dumps({"shift": 0, "support": {"2": [1, 2, 0, 3, 4]}})
    code, out, _ = run_cli(
        capsys, "decompose", "--element", element, "--kind", "pm1-"
    )
    assert code == 0
    doc = json.loads(out)
    assert "residual" in doc["result"]


def test_almost_hom_verify(capsys):
    k_docs = json.dumps(
        [
            {"shift": 1, "support": {"0": [1, 2, 0, 3, 4]}},
            {"shift": 2, "support": {}},
        ]
    )
    code, out, _ = run_cli(
        capsys, "almost-hom", "verify", "--k", k_docs, "--q", "0,1,2,3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["report"]["ok"]


def test_axioms_validate_inline(capsys, s3_word_table):
    table_json = json.dumps(s3_word_table.to_json())
    code, out, _ = run_cli(
        capsys,
        "axioms",
        "validate",
        "--group",
        "S3",
        "--table",
        table_json,
        "--thresholds",
        "0,1,2,3,4",
        "--theory",
        "T_IMG",
    )
    assert code == 0
    assert json.loads(out)["result"]["ok"]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc[:-1] + [{"element": -1, "value": "1"}], "outside"),
        (lambda doc: doc + [dict(doc[0])], "duplicate"),
        (lambda doc: doc[:-1] + [{"element": 5}], "'value'"),
        (lambda doc: doc[:1] + [{"element": 1.9, "value": "1"}] + doc[2:], "integer"),
        (lambda doc: doc[:1] + [{"element": True, "value": "1"}] + doc[2:], "integer"),
        (lambda doc: doc[:1] + [{"element": 1, "value": True}] + doc[2:], "string"),
        (lambda doc: doc[:1] + [{"element": 1, "value": "1/0"}] + doc[2:], "zero"),
        (lambda doc: doc[:1] + [{"element": 1, "value": None}] + doc[2:], "string"),
        (lambda doc: doc[:1] + [{"element": 1, "value": [1]}] + doc[2:], "string"),
        (lambda doc: doc[:1] + [{"element": 1, "value": 1e400}] + doc[2:], "string"),
        (lambda doc: None, "list of rows"),
        (lambda doc: 5, "list of rows"),
    ],
)
def test_axioms_validate_malformed_table_is_structured_error(
    capsys, tmp_path, s3_word_table, edit, message
):
    table_json = json.dumps(edit(s3_word_table.to_json()))
    if not table_json.startswith("["):  # --table reads only a list inline
        path = tmp_path / "table.json"
        path.write_text(table_json)
        table_json = str(path)
    code, out, _ = run_cli(
        capsys,
        "axioms",
        "validate",
        "--group",
        "S3",
        "--table",
        table_json,
        "--thresholds",
        "0,1,2",
        "--theory",
        "T_IMG",
    )
    assert code == 2
    assert message in json.loads(out)["error"]


def test_oracle_bfs_binary(capsys, tmp_path):
    out_path = tmp_path / "norms.bin"
    code, out, err = run_cli(
        capsys,
        "oracle",
        "bfs",
        "--group",
        "S3",
        "--window",
        "1",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["order"] == 648
    assert doc["result"]["generator_count"] == 87
    assert "wall time" in err
    from wreathnorm.oracle import read_norms_binary

    header, body = read_norms_binary(out_path)
    assert header["order"] == 648 and body.size == 648


def test_structured_error_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "eval", "--element", '{"shift": 0, "support": {"0": [1, 0, 2, 3, 4]}}'
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_selftest_quick(capsys):
    code, out, err = run_cli(capsys, "selftest", "--scale", "quick")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["scale"] == "quick"
    assert all(c["ok"] for c in doc["result"]["criteria"])
    assert "PASS" in err


def test_malformed_json_reports_position(capsys):
    code, out, _ = run_cli(capsys, "norm", "eval", "--element", '{"shift": 5,')
    assert code == 2
    doc = json.loads(out)
    assert "error" in doc and "char" in doc["error"]


def test_cap_error_names_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("WREATHNORM_STATE_CAP", "100")
    code, out, _ = run_cli(capsys, "oracle", "bfs", "--group", "S3", "--window", "1")
    assert code == 2
    assert "cap" in json.loads(out)["error"]


def test_norm_table_non_member_generator_is_structured_error(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "table", "--group", "S3", "--gens", "[[0,0,1]]"
    )
    assert code == 2
    assert "not an element" in json.loads(out)["error"]


def test_inline_group_without_generators_is_structured_error(capsys):
    code, out, _ = run_cli(capsys, "props", "check", "--group", '{"degree": 3}')
    assert code == 2
    assert "generators" in json.loads(out)["error"]


def test_norm_table_non_list_generators_is_structured_error(capsys):
    for gens in ("[5]", "[[true, false, 2]]"):
        code, out, _ = run_cli(capsys, "norm", "table", "--group", "S3", "--gens", gens)
        assert code == 2
        assert "list of permutations" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "spec,message",
    [
        ('{"degree": 3, "generators": 5}', "list of permutations"),
        ('{"degree": 3, "generators": [[1, 0, [2]]]}', "list of permutations"),
        ('{"degree": [3], "generators": [[1, 0, 2]]}', "degree"),
        ('{"degree": 2, "generators": [[true, false]]}', "list of permutations"),
        ('{"degree": true, "generators": [[0]]}', "degree"),
    ],
)
def test_inline_group_malformed_shape_is_structured_error(capsys, spec, message):
    code, out, _ = run_cli(capsys, "props", "check", "--group", spec)
    assert code == 2
    assert message in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("norm", "eval", "--element", '{"shift":0,"support":{"0":999}}'),
        ("norm", "eval", "--element", "[1]"),
        ("decompose", "--element", "[]", "--kind", "2"),
        ("norm", "eval", "--element", '{"mode":"truncated"}'),
        ("norm", "eval", "--element", '{"shift":[1]}'),
        ("norm", "eval", "--element", '{"mode":{"truncated":true}}'),
        ("norm", "eval", "--element",
         '{"support":{"1":[1,2,0,3,4],"01":[2,0,1,3,4]}}'),
        ("norm", "eval", "--element",
         '{"support":{"1":[0,1,2,3,4],"01":[2,0,1,3,4]}}'),
        ("norm", "eval", "--element",
         '{"mode":{"truncated":2},"support":{"1":[0,1,2,3,4],"-4":[2,0,1,3,4]}}'),
        ("almost-hom", "verify", "--k", "[5]", "--q", "0,1"),
        ("almost-hom", "verify", "--k", "{}", "--q", "0,1"),
        ("almost-hom", "verify", "--k", '[{"mode":{"truncated":2}}]', "--q", "0,1"),
        ("axioms", "validate", "--group", "S3", "--table", "/nonexistent.json",
         "--thresholds", "0,1"),
        ("almost-hom", "verify", "--k", "[]", "--q", "0,1/0"),
        ("axioms", "validate", "--group", "S3", "--table",
         json.dumps([{"element": i, "value": str(min(i, 1))} for i in range(6)]),
         "--thresholds", "0,1/0"),
        ("norm", "eval", "--element", "{}", "--truncated", "4", "--mode", "auto"),
        ("oracle", "bfs", "--group", "S3", "--window", "x"),
        ("oracle", "bfs", "--group", "S3"),
        ("props",),
        (),
    ],
    ids=[
        "support-value-int",
        "element-list",
        "decompose-element-empty-list",
        "mode-string",
        "shift-list",
        "window-bool",
        "support-duplicate-index",
        "support-duplicate-index-identity-value",
        "support-duplicate-index-mod-window",
        "k-entry-int",
        "k-object",
        "k-truncated",
        "table-missing-file",
        "q-zero-denominator",
        "thresholds-zero-denominator",
        "argparse-bad-choice",
        "argparse-bad-int",
        "argparse-missing-argument",
        "argparse-missing-subcommand",
        "argparse-missing-command",
    ],
)
def test_malformed_element_and_input_is_structured_error(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("key", ["1_0", " 3", "+2", "\u0663", "-0"])
def test_element_support_keys_must_be_canonical_integers(capsys, key):
    # int() reads each of these keys (1_0 as 10, the Arabic-Indic digit as 3)
    element = json.dumps({"support": {key: [1, 2, 0, 3, 4]}})
    code, out, _ = run_cli(capsys, "norm", "eval", "--group", "A5", "--element", element)
    assert code == 2
    assert json.loads(out) == {"error": f"support key {key!r} is not a decimal integer"}


# sha256 of `props check` stdout as recorded when S1 and S2 still scanned every
# element as a1 (A6: every a1 class minimum and every a3); the witnesses are
# part of the CLI contract and must not move.
PROPS_CHECK_SHA256 = {
    "S3": "2aa9c447bc83f8e108d841c04c0be8b019b4e828f390bd91e89fe1b45b19db12",
    "A4": "114a3e1a06ffd3b8b2c4dd6c6ca7b4f0da63e45b43e33636bd42fe287519d87e",
    "S4": "abcbb40c7f4fa21cc879afbced81555f0b531f470e6818b59f637bcfb2cbb21e",
    "A5": "e07ce09ddaad568223ee3e8a2a07a9249bedb7053f5ef3ddf937e3f1d548f160",
    '{"degree": 4, "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}':
        "f59c28d55333391d2ff0e50c8ad52e9a01e2b227147689441fdf369b96fe687d",
    '{"degree": 5, "generators": [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]]}':
        "2f4c09b37260a99d8e6831f6e4919b86e290d83bc2cad61902b4ddd491e1aae3",
    '{"degree": 6, "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]}':
        "510e7e52393b7cf9219d12c6ef651af7480774c0657bb75326a7c479c21a2578",
}


@pytest.mark.parametrize("group", sorted(PROPS_CHECK_SHA256))
def test_props_check_stdout_pinned(capsys, monkeypatch, group):
    monkeypatch.delenv("WREATHNORM_STATE_CAP", raising=False)
    monkeypatch.delenv("WREATHNORM_GEN_CAP", raising=False)
    _, out, _ = run_cli(capsys, "props", "check", "--group", group)
    assert hashlib.sha256(out.encode()).hexdigest() == PROPS_CHECK_SHA256[group]


# sha256 of `norm table` and `axioms validate` stdout as recorded before the
# weight-function and validator kernels moved to integer-scaled thresholds.
NORM_TABLE_SHA256 = {
    ("S3",): "2c021f30f58e5a3b0af28a3539aa9ed7dd23bc6f230aa90e5eb9c85c7e423eb8",
    ("S3", "--gens", "[[1, 0, 2]]"):
        "41422121251cc41378dab1f554d8a9417cd7f7ecdabc4670cf2f0744db676140",
    ("A4",): "06a563496a27b26d3555b6338cf311984be872fb9ad83f539fa9a87ed83fb9d9",
    ("A5",): "e50d4469385f9d8f24be8a6fedf0b439e6dddfbd397dd7dd70a0a06f25abde00",
    ("S3", "--format", "csv"):
        "ac62d4124ada6cd3c21be2060ebf7afd20644ba9e141533fde8ca59fcaae69f2",
}


@pytest.mark.parametrize("args", sorted(NORM_TABLE_SHA256))
def test_norm_table_stdout_pinned(capsys, monkeypatch, args):
    monkeypatch.delenv("WREATHNORM_STATE_CAP", raising=False)
    monkeypatch.delenv("WREATHNORM_GEN_CAP", raising=False)
    _, out, _ = run_cli(capsys, "norm", "table", "--group", *args)
    assert hashlib.sha256(out.encode()).hexdigest() == NORM_TABLE_SHA256[args]


# A non-invariant S3 table whose 3-cycles break the triangle: 1 + 1 < 3.
VIOLATING_S3_TABLE = json.dumps(
    [{"element": i, "value": v} for i, v in enumerate(["0", "1", "3", "2", "2", "3"])]
)
AXIOMS_VALIDATE_SHA256 = {
    ("S3 transpositions", "0,1/2,1,3/2,2,3,4", "T_IPMG"):
        "77a0d9a66a7ccb497a20220e12f79b34292676ad53e834f3600d0cf27eb5cc5a",
    ("A4", "0,1,2,3,4", "T_IPMG"):
        "d3ddad5a11bff2bb67d0fc0514b9d515f18fca99817af7caef81a9f51651bf65",
    ("A5", "0,1/2,1,2,5/2,3,4", "T_IPMG"):
        "e1ab1efda576f56dc6733b872b216b1de7ff4a90353a6af026b51aa1e5a158a4",
    ("A5", "0,1,2", "T_IMG"):
        "8b223081bb95111148e14b58d4b33018b0570eca60cce59c9830aeefb95a6104",
    ("S3 violating", "0,1/2,1,3/2,2,3,4,5,6", "T_W"):
        "b001c863494e339bf25d2085e7313f0fdbf8c9b69946dcbe321b6854a45dcbe8",
    ("S3 violating", "0,1/2,1,3/2,2,3,4,5,6", "T_IPMG"):
        "b13e6a98da540879228396840078f9b7ff038e63a7e8cccd02e57736f13d15d3",
    ("S3 violating", "0,1/2,1,3/2,2,3,4,5,6", "T_IMG"):
        "6e6a9ee91ba61763fd2dbf574fb66465363bd10dcd5c40e6ef94b4c8404856e6",
}


@pytest.mark.parametrize("table, thresholds, theory", sorted(AXIOMS_VALIDATE_SHA256))
def test_axioms_validate_stdout_pinned(capsys, monkeypatch, table, thresholds, theory):
    monkeypatch.delenv("WREATHNORM_STATE_CAP", raising=False)
    monkeypatch.delenv("WREATHNORM_GEN_CAP", raising=False)
    group = table.split()[0]
    if table == "S3 violating":
        doc = VIOLATING_S3_TABLE
    else:
        gens = ["--gens", "[[1, 0, 2]]"] if table == "S3 transpositions" else []
        _, out, _ = run_cli(capsys, "norm", "table", "--group", group, *gens)
        doc = json.dumps(json.loads(out)["result"]["table"])
    code, out, _ = run_cli(
        capsys, "axioms", "validate", "--group", group, "--table", doc,
        "--thresholds", thresholds, "--theory", theory,
    )
    assert code == (1 if table == "S3 violating" and theory != "T_W" else 0)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == AXIOMS_VALIDATE_SHA256[(table, thresholds, theory)]


# Full-support shift-0 elements, whose truncated norms go through the class
# walk, one mixed and one not where both exist.
FULL_SUPPORT_ELEMENTS = {
    "S3w1 mixed": ("S3", 1, {"-1": [2, 0, 1], "0": [2, 1, 0], "1": [1, 0, 2]}),
    "S3w1 not mixed": ("S3", 1, {"-1": [0, 2, 1], "0": [0, 2, 1], "1": [0, 2, 1]}),
    "S3w2 mixed": (
        "S3", 2,
        {"-2": [2, 0, 1], "-1": [2, 0, 1], "0": [0, 2, 1], "1": [1, 2, 0], "2": [1, 0, 2]},
    ),
    "S3w2 not mixed": (
        "S3", 2,
        {"-2": [1, 2, 0], "-1": [2, 1, 0], "0": [1, 0, 2], "1": [2, 1, 0], "2": [1, 2, 0]},
    ),
    "A5w1 mixed": (
        "A5", 1, {"-1": [1, 2, 3, 4, 0], "0": [0, 1, 3, 4, 2], "1": [1, 3, 0, 4, 2]},
    ),
    "A5w1 not mixed": (
        "A5", 1, {"-1": [4, 3, 1, 0, 2], "0": [1, 2, 3, 4, 0], "1": [4, 2, 1, 3, 0]},
    ),
    "A5w2 mixed": (
        "A5", 2,
        {
            "-2": [3, 4, 2, 0, 1], "-1": [2, 0, 1, 3, 4], "0": [3, 4, 1, 2, 0],
            "1": [1, 3, 2, 0, 4], "2": [3, 0, 1, 4, 2],
        },
    ),
}
# sha256 of `norm eval --truncated n --mode oracle` stdout on those elements,
# recorded before the cyclic search dropped its "+-" pass and LampElem
# arithmetic stopped going through make.
NORM_EVAL_SHA256 = {
    "S3w1 mixed": "9b763ee4dc9c6a5d330a3a1523a83a83fd115fee78d62f7852ac92a7e4ffe822",
    "S3w1 not mixed": "65476f3679464ade4fbb5717315111631ac67a2ddfd18979ada1690ddcc6f127",
    "S3w2 mixed": "865901ef17c3282b6dbfaf622742d76a18d35486daec402d13026d732c42424f",
    "S3w2 not mixed": "721c3a3629bbdafdad57310bddcb0c8e15251eb6eeb6ad579e19b201ec8dc716",
    "A5w1 mixed": "3801fd5e3cc164facb8cc43f8462dcc41f3ef8b4fb4d9a7000e8239c14e620e9",
    "A5w1 not mixed": "6c3934ced605fd5288f74d20a1f866ffb39e216b04c9d68799c0c5854191e1af",
    "A5w2 mixed": "ebebf7a5929e31561d731a6fbe99d07a3aff7350bfa8f112f3fc3d0302836c78",
}
# (exit code, sha256) of `decompose --kind pm`, which runs in infinite mode.
# Recorded when the class walk became the only mixed-commutator builder: its
# witnesses telescope the walk's factor pair, so the vectors of every mixed
# element moved, S3w2 mixed builds where the acyclic S3-statement chain
# refused it, and exit 2 is the walk's structured "no factor pair" error.
DECOMPOSE_PM_SHA256 = {
    "S3w1 mixed": (0, "d890d10184e42e5f0ccf2521d206395a4050b912f7ec9572767415697a5893d2"),
    "S3w1 not mixed": (2, "452da4f849fb0b894cbe9675949e59bcac9f0657c53c62bce49b9556475bd1d1"),
    "S3w2 mixed": (0, "d772120c424f4502ab4915480c8489df41846a1384cb9a00a36eb03a62342bb9"),
    "S3w2 not mixed": (2, "452da4f849fb0b894cbe9675949e59bcac9f0657c53c62bce49b9556475bd1d1"),
    "A5w1 mixed": (0, "f17c006fa9b7d878bae9227a76c371ecbb3effe2c7539dd9e284cede5f46dfe1"),
    "A5w1 not mixed": (2, "452da4f849fb0b894cbe9675949e59bcac9f0657c53c62bce49b9556475bd1d1"),
    "A5w2 mixed": (0, "bedd9179eeda3dde925c4dbb5225352865afbd07ae854ebe1f51432dc4cd1aae"),
}


@pytest.mark.parametrize("key", list(FULL_SUPPORT_ELEMENTS))
def test_norm_eval_and_decompose_stdout_pinned(capsys, monkeypatch, key):
    monkeypatch.delenv("WREATHNORM_STATE_CAP", raising=False)
    monkeypatch.delenv("WREATHNORM_GEN_CAP", raising=False)
    group, window, support = FULL_SUPPORT_ELEMENTS[key]
    element = json.dumps({"shift": 0, "support": support})
    code, out, _ = run_cli(
        capsys, "norm", "eval", "--group", group, "--element", element,
        "--truncated", str(window), "--mode", "oracle",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NORM_EVAL_SHA256[key]
    norm = json.loads(out)["result"]["norm"]
    code, out, _ = run_cli(
        capsys, "decompose", "--group", group, "--element", element, "--kind", "pm"
    )
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == DECOMPOSE_PM_SHA256[key]
    # the window holds the whole support, so the span walk and the cyclic
    # walk decide alike: a witness exactly when the truncated norm is 2
    assert (code == 0) == (norm == 2)


@pytest.mark.parametrize("kind", ["pm", "pm+-"])
def test_decompose_truncated_full_support_pm(capsys, kind):
    # (0 1 2) at -1, 0 and 1 fills the window: a mixed witness must wrap round
    cycle = [1, 2, 0, 3, 4]
    element = json.dumps({"shift": 0, "support": {"-1": cycle, "0": cycle, "1": cycle}})
    code, out, _ = run_cli(
        capsys, "decompose", "--group", "A5", "--truncated", "1",
        "--element", element, "--kind", kind,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verified"] is True
    order = "+-" if kind == "pm+-" else "-+"
    assert doc["result"]["witness"]["kind"] == {"pm": order}
