"""CLI surface tests, run in-process through main()."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from automizer.cli import main
from automizer.grouprep import InputGroupA
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


def test_realize_unknown_group(tmp_path, capsys):
    code, out = run_cli(
        ["realize", "--group", "E8", "--out", str(tmp_path / "x.json")], capsys
    )
    assert code == 1
    assert "bad input group" in out


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
    path = str(tmp_path / "c2.json")
    c2_cert.save(path)
    code, out = run_cli(["verify", "--cert", path], capsys)
    assert code == 0
    assert "verifies" in out


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


def test_oracle_bad_input(tmp_path, capsys):
    gfile = tmp_path / "bad.txt"
    gfile.write_text("4\n(0 1\n")
    code, out = run_cli(
        ["oracle", "--group-file", str(gfile), "--subgroup", "(0 1)"], capsys
    )
    assert code == 1
    assert "bad oracle input" in out


def test_realize_custom_table_file(tmp_path, capsys):
    # C2 as an explicit table file is rejected only by scale if at all; the
    # trivial table goes straight through
    tfile = tmp_path / "triv.txt"
    tfile.write_text("1\n0\n")
    out_path = str(tmp_path / "cert.json")
    code, out = run_cli(["realize", "--group", str(tfile), "--out", out_path], capsys)
    assert code == 0


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


def _verify_payload(payload, directory):
    path = directory / "cert.json"
    path.write_text(json.dumps(payload))
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
