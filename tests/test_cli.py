"""CLI surface tests, run in-process through main()."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from automizer import cli
from automizer.cli import main
from automizer.grouprep import InputGroupA
from automizer import realize
from automizer.realize import Certificate, run_pipeline


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_realize_trivial_group(tmp_path, capsys):
    out_path = str(tmp_path / "trivial.json")
    code, out = run_cli(["realize", "--group", "1", "--out", out_path], capsys)
    assert code == 0
    assert "ACCEPTED" in out
    cert = Certificate.load(out_path)
    assert cert.accepted


def test_realize_scale_rejection(tmp_path, capsys):
    code, out = run_cli(
        ["realize", "--group", "C3", "--out", str(tmp_path / "c3.json")], capsys
    )
    assert code == 2
    assert "max_subgroups" in out
    assert not (tmp_path / "c3.json").exists()


def test_realize_scale_rejection_names_its_stage(tmp_path, capsys):
    code, out = run_cli(["realize", "--group", "C3", "--out", str(tmp_path / "c3.json")], capsys)
    assert code == 2
    assert out == "scale rejection at ambient: scale bound max_subgroups=20000 exceeded (needed 56632)\n"


def test_realize_scale_rejection_keeps_an_existing_file(tmp_path, capsys):
    path = tmp_path / "c3.json"
    path.write_bytes(b"an earlier certificate")
    code, out = run_cli(["realize", "--group", "C3", "--out", str(path)], capsys)
    assert code == 2
    assert path.read_bytes() == b"an earlier certificate"


def test_realize_overwrites_an_existing_file(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_bytes(b"x" * 5000)
    code, _ = run_cli(["realize", "--group", "1", "--out", str(path)], capsys)
    assert code == 0
    assert path.read_bytes() == run_pipeline(InputGroupA.from_name("1")).to_json_bytes()


def test_realize_serialization_failure_keeps_an_existing_file(tmp_path, monkeypatch):
    # the certificate is written in pieces, and the file is truncated only
    # once the first piece, made after everything that can fail, is in hand
    def foreign(A, policy):
        return dataclasses.replace(run_pipeline(A, policy), main_checks={"a": object()})

    monkeypatch.setattr(cli, "run_pipeline", foreign)
    path = tmp_path / "trivial.json"
    path.write_bytes(b"an earlier certificate")
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["realize", "--group", "1", "--out", str(path)])
    assert path.read_bytes() == b"an earlier certificate"
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["realize", "--group", "1", "--out", str(tmp_path / "new.json")])
    assert not (tmp_path / "new.json").exists()


def test_realize_unknown_group(tmp_path, capsys):
    code, out = run_cli(
        ["realize", "--group", "E8", "--out", str(tmp_path / "x.json")], capsys
    )
    assert code == 1
    assert "bad input group" in out


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_realize_writes_to_a_pipe(capsys):
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader:
        try:
            code, _ = run_cli(["realize", "--group", "1", "--out", "/proc/self/fd/%d" % write_end], capsys)
        finally:
            os.close(write_end)
        data = reader.read()
    assert code == 0
    assert data == run_pipeline(InputGroupA.from_name("1")).to_json_bytes()


def test_realize_unwritable_out(tmp_path, capsys, monkeypatch):
    def no_pipeline(*args):
        raise AssertionError("the pipeline ran before --out was checked")

    monkeypatch.setattr(cli, "run_pipeline", no_pipeline)
    out_path = str(tmp_path / "missing" / "trivial.json")
    code, out = run_cli(["realize", "--group", "1", "--out", out_path], capsys)
    assert code == 1
    assert out.startswith("cannot write certificate: ")
    assert "No such file or directory" in out


@pytest.mark.parametrize(
    "flag, value, name",
    [("--max-n", "0", "max_n"), ("--max-subgroups", "-5", "max_subgroups")],
)
def test_realize_bad_policy(tmp_path, capsys, monkeypatch, flag, value, name):
    def no_pipeline(*args):
        raise AssertionError("the pipeline ran with a bad policy")

    monkeypatch.setattr(cli, "run_pipeline", no_pipeline)
    path = tmp_path / "trivial.json"
    code, out = run_cli(["realize", "--group", "1", flag, value, "--out", str(path)], capsys)
    assert code == 1
    assert out == "bad policy: %s must be a positive integer\n" % name
    assert not path.exists()


def test_verify_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "trivial.json")
    assert main(["realize", "--group", "1", "--out", out_path]) == 0
    capsys.readouterr()
    code, out = run_cli(["verify", "--cert", out_path], capsys)
    assert code == 0
    assert "verifies" in out


def test_verify_rejects_tampered_file(tmp_path, capsys):
    out_path = str(tmp_path / "trivial.json")
    assert main(["realize", "--group", "1", "--out", out_path]) == 0
    capsys.readouterr()
    with open(out_path) as fh:
        payload = json.load(fh)
    payload["flags"]["bertrand_prime"] = False
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    code, out = run_cli(["verify", "--cert", out_path], capsys)
    assert code == 1


def test_realize_policy_is_full_only(tmp_path, capsys):
    out_path = str(tmp_path / "trivial.json")
    code, _ = run_cli(["realize", "--group", "1", "--policy", "full", "--out", out_path], capsys)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--group", "1", "--policy", "fast", "--out", out_path])
    assert exc.value.code == 2


def test_verify_rejects_fast_level(tmp_path, capsys, c2_cert):
    payload = json.loads(c2_cert.to_json_bytes())
    payload["policy"]["level"] = "fast"
    code, out = _verify_payload(payload, tmp_path)
    assert code == 1
    assert "REJECTED" in out and "level 'fast'" in out


def test_realize_has_no_perm_degree_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--group", "1", "--max-perm-degree", "10", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("max_perm_degree", 100, "max_perm_degree 100 is not 150"),
        ("max_subgroups", True, "max_subgroups must be a positive integer"),
    ],
)
def test_verify_rejects_forged_policy(tmp_path, c2_cert, key, value, reason):
    payload = json.loads(c2_cert.to_json_bytes())
    payload["policy"][key] = value
    code, out = _verify_payload(payload, tmp_path)
    assert code == 1
    assert "REJECTED" in out and reason in out


def test_verify_missing_file(tmp_path, capsys):
    code, out = run_cli(["verify", "--cert", str(tmp_path / "nope.json")], capsys)
    assert code == 1
    assert "unreadable" in out


def test_verify_reports_deep_nesting(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000)
    code, out = run_cli(["verify", "--cert", str(path)], capsys)
    assert code == 1
    assert "unreadable certificate: certificate nests too deeply" in out


def test_verify_full_certificate(tmp_path, capsys, c2_cert):
    path = tmp_path / "c2.json"
    path.write_bytes(c2_cert.to_json_bytes())
    code, out = run_cli(["verify", "--cert", str(path)], capsys)
    assert code == 0
    assert "verifies" in out


def test_verify_scale_rejection_names_its_stage(tmp_path, capsys, c2_cert):
    """A certificate whose own policy bounds n below its n is refused by
    scale when the biset stage reads the orbit list."""
    cert = dataclasses.replace(c2_cert, policy=dict(c2_cert.policy, max_n=100))
    path = tmp_path / "c2.json"
    path.write_bytes(cert.to_json_bytes())
    code, out = run_cli(["verify", "--cert", str(path)], capsys)
    assert code == 2
    assert out == "scale rejection during re-check at biset: scale bound max_n=100 exceeded (needed 7792)\n"


@pytest.fixture(scope="module")
def c2_payload(c2_cert):
    return json.loads(c2_cert.to_json_bytes())


malformed_witnesses = pytest.mark.parametrize(
    "witness,reason",
    [
        ({"top": [1, 0], "base_runs": [[0, 1], 1]}, "base runs must be [value, count] pairs"),
        ({"top": [True, 0], "base_runs": [[0, 2]]}, "top must be a list of integers in [0, 2)"),
        ({"top": [1, 0], "base_runs": [[0, 2.0]]}, "base run counts must be positive integers summing to 2"),
        ({"top": [1, 0], "base_runs": [[32, 2]]}, "base run values must be a list of integers in [0, 32)"),
        ({"top": [1, 0], "base_runs": [[0, 0], [1, 2]]}, "base run counts must be positive integers summing to 2"),
        ({"top": [1, 0], "base_runs": [[0, 3]]}, "base run counts must be positive integers summing to 2"),
    ],
    ids=["run_not_a_list", "bool_top", "float_count", "value_out_of_range", "count_below_1", "counts_not_summing"],
)


def _with_first_witness(payload, witness):
    witnesses = [witness] + payload["embedding"]["witnesses"][1:]
    return dict(payload, embedding=dict(payload["embedding"], witnesses=witnesses))


@malformed_witnesses
def test_verify_rejects_malformed_witness(c2_payload, tmp_path, witness, reason):
    code, out = _verify_payload(_with_first_witness(c2_payload, witness), tmp_path)
    assert code == 1
    assert "malformed witness: %s" % reason in out


@malformed_witnesses
def test_verify_rejects_malformed_witness_in_canonical_text(c2_payload, tmp_path, witness, reason):
    # in the writer's own text the other 245 witnesses are read as arrays
    payload = _with_first_witness(c2_payload, witness)
    code, out = _verify_payload(payload, tmp_path, sort_keys=True, separators=(",", ":"))
    assert code == 1
    assert "malformed witness: %s" % reason in out
    held = Certificate.load(str(tmp_path / "cert.json")).embedding["witnesses"]
    assert [isinstance(w, realize._Witness) for w in held] == [False] + [True] * 245


def test_oracle(tmp_path, capsys):
    gfile = tmp_path / "s4.txt"
    gfile.write_text("4\n(0 1)\n(0 1 2 3)\n")
    code, out = run_cli(
        ["oracle", "--group-file", str(gfile), "--subgroup", "(0 1)(2 3); (0 2)(1 3)"],
        capsys,
    )
    assert code == 0
    assert "automizer order 6" in out
    rows = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(rows) == 6


def test_oracle_skips_indented_comments(tmp_path, capsys):
    argv = ["oracle", "--subgroup", "(0 1)(2 3); (0 2)(1 3)", "--group-file"]
    gfile = tmp_path / "s4.txt"
    gfile.write_text("4\n(0 1)\n(0 1 2 3)\n")
    plain = run_cli(argv + [str(gfile)], capsys)
    gfile.write_text("# degree\n4\n  # the symmetric group S4\n(0 1)\n\t# a 4-cycle\n(0 1 2 3)\n")
    assert run_cli(argv + [str(gfile)], capsys) == plain
    assert plain[0] == 0 and plain[1].startswith("automizer order 6\n")


def test_oracle_bad_input(tmp_path, capsys):
    gfile = tmp_path / "bad.txt"
    gfile.write_text("4\n(0 1\n")
    code, out = run_cli(
        ["oracle", "--group-file", str(gfile), "--subgroup", "(0 1)"], capsys
    )
    assert code == 1
    assert "bad oracle input" in out


def test_oracle_refuses_a_huge_degree_before_parsing(tmp_path, capsys, monkeypatch):
    """A degree past the bound is refused from the file's first line: no
    permutation is parsed, so nothing of the degree's size is allocated."""
    def no_parse(*args, **kwargs):
        raise AssertionError("a permutation was parsed")

    monkeypatch.setattr(cli, "parse_cycles", no_parse)
    gfile = tmp_path / "huge.txt"
    gfile.write_text("100000000\n(0 1)\n")
    tracemalloc.start()
    try:
        code, out = run_cli(["oracle", "--group-file", str(gfile), "--subgroup", "(0 1)"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == (
        "scale rejection: scale bound max_oracle_degree=%d exceeded (needed 100000000)\n"
        % cli.ORACLE_MAX_DEGREE
    )
    assert peak < 1 << 20


def test_oracle_degree_bound_is_inclusive(tmp_path, capsys):
    gfile = tmp_path / "c2.txt"
    argv = ["oracle", "--group-file", str(gfile), "--subgroup", "(0 1)"]
    gfile.write_text("%d\n(0 1)\n" % cli.ORACLE_MAX_DEGREE)
    assert run_cli(argv, capsys) == (0, "automizer order 1\n0\n")
    gfile.write_text("%d\n(0 1)\n" % (cli.ORACLE_MAX_DEGREE + 1))
    code, out = run_cli(argv, capsys)
    assert code == 2 and out.startswith("scale rejection: scale bound max_oracle_degree=")


def test_oracle_bounds_the_subgroup_walk(tmp_path, capsys):
    """U0 need not lie in G0, so its walk has the same bound as G0's: U0 =
    Sym(100) in a group of order 2 is refused, not listed to the end."""
    gfile = tmp_path / "c2.txt"
    gfile.write_text("100\n(0 1)\n")
    sub = "(0 1); (%s)" % " ".join(map(str, range(100)))
    assert run_cli(["oracle", "--group-file", str(gfile), "--subgroup", sub], capsys) == (
        2,
        "scale rejection: scale bound max_oracle_elements=100000 exceeded (needed more than 100000)\n",
    )


def test_oracle_of_a_group_file_without_generators(tmp_path, capsys):
    gfile = tmp_path / "one.txt"
    gfile.write_text("3\n")
    argv = ["oracle", "--group-file", str(gfile), "--subgroup", "()"]
    assert run_cli(argv, capsys) == (0, "automizer order 1\n0\n")


def test_realize_custom_table_file(tmp_path, capsys):
    # C2 as an explicit table file is rejected only by scale if at all; the
    # trivial table goes straight through
    tfile = tmp_path / "triv.txt"
    tfile.write_text("1\n0\n")
    out_path = str(tmp_path / "cert.json")
    code, out = run_cli(["realize", "--group", str(tfile), "--out", out_path], capsys)
    assert code == 0


def test_realize_oversized_table_file_is_a_scale_rejection(tmp_path, capsys):
    n = 513
    tfile = tmp_path / "c513.txt"
    tfile.write_text("%d\n%s\n" % (n, " ".join(str((i + j) % n) for i in range(n) for j in range(n))))
    out_path = tmp_path / "cert.json"
    code, out = run_cli(["realize", "--group", str(tfile), "--out", str(out_path)], capsys)
    assert code == 2
    assert out == "scale rejection: scale bound table_validation_order=512 exceeded (needed 513)\n"
    assert not out_path.exists()


def test_realize_oversized_catalog_name_is_a_scale_rejection(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out = run_cli(["realize", "--group", "C1000", "--out", str(out_path)], capsys)
    assert code == 2
    assert out == "scale rejection: scale bound table_validation_order=512 exceeded (needed 1000)\n"
    assert not out_path.exists()


@pytest.fixture(scope="module")
def trivial_payload():
    return json.loads(run_pipeline(InputGroupA.from_name("1")).to_json_bytes())


def _replace(payload, path, value):
    payload = copy.deepcopy(payload)
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


def _verify_payload(payload, directory, **dumps):
    path = directory / "cert.json"
    path.write_text(json.dumps(payload, **dumps))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--cert", str(path)])
    return code, out.getvalue()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p["input"].pop("table"),
        lambda p: p["input"].update(table=5),
        lambda p: p.update(flags=[True] * 12),
        lambda p: p["policy"].update(sample_pairs=3),
    ],
    ids=["missing_table", "table_not_a_list", "flags_as_list", "unknown_policy_key"],
)
def test_verify_rejects_malformed_trivial_certificate(trivial_payload, tmp_path, mutate):
    payload = copy.deepcopy(trivial_payload)
    mutate(payload)
    code, out = _verify_payload(payload, tmp_path)
    assert code == 1
    assert "unreadable" in out or "REJECTED" in out


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_verify_never_raises_on_one_replaced_field(trivial_payload, tmp_path_factory, data):
    paths = [(key,) for key in trivial_payload]
    paths += [(key, sub) for key, v in trivial_payload.items() if isinstance(v, dict) for sub in v]
    path = data.draw(st.sampled_from(paths))
    payload = _replace(trivial_payload, path, data.draw(JSON_VALUES))
    code, _ = _verify_payload(payload, tmp_path_factory.getbasetemp())
    assert code in (0, 1)
