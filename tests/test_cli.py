import argparse
import hashlib
import json
import re
from importlib import resources

import jsonschema
import pytest

from multilin.cli import build_parser, main


@pytest.fixture(scope="module")
def schema():
    with resources.files("multilin").joinpath(
        "schemas/cli-output.schema.json"
    ).open() as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def validate(schema, doc):
    jsonschema.validate(doc, schema)


def test_formula_gq(capsys, schema):
    code, doc = run_cli(capsys, "formula", "gq", "--n", "5", "--d", "2")
    assert code == 0
    assert doc["value"] == 7 and doc["branch"] == "generic"
    validate(schema, doc)


def test_formula_alpha_alt_exceptional(capsys, schema):
    code, doc = run_cli(
        capsys, "formula", "alpha-alt", "--n", "7", "--d", "3", "--m", "1", "--char-zero"
    )
    assert code == 0
    assert doc["value"] == 4
    assert doc["branch"] == "exceptional:(3,7)"
    validate(schema, doc)


def test_formula_precondition_exit_code(capsys):
    code = main(["formula", "alpha-alt", "--n", "5", "--d", "2", "--m", "1"])
    assert code == 2


def test_formula_box_exponent(capsys, schema):
    code, doc = run_cli(
        capsys, "formula", "box-exponent", "--n", "3", "--d", "2", "--m", "1"
    )
    assert code == 0
    assert doc["value"] == "5/3" and doc["admissible"] is True
    validate(schema, doc)


def test_grassmann_count_and_enum(capsys, schema):
    code, doc = run_cli(capsys, "grassmann", "count", "--q", "2", "--n", "4", "--k", "2")
    assert code == 0 and doc["count"] == "35"
    validate(schema, doc)
    code, doc = run_cli(capsys, "grassmann", "enum", "--q", "2", "--n", "2", "--k", "1")
    assert code == 0 and doc["count"] == "3"
    assert len(doc["subspaces"]) == 3
    validate(schema, doc)


def test_grassmann_strata(capsys, schema):
    code, doc = run_cli(capsys, "grassmann", "strata", "--q", "2", "--n", "3", "--k", "2")
    assert code == 0
    total = sum(int(v) for v in doc["profile"].values())
    assert total == 49
    validate(schema, doc)


def test_grassmann_strata_csv(capsys):
    code = main(["grassmann", "strata", "--q", "2", "--n", "3", "--k", "2", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,count"
    assert sum(int(row.split(",")[1]) for row in lines[1:]) == 49


def test_grassmann_cap_exit_code(capsys, deadline):
    code = main(
        ["grassmann", "enum", "--q", "4", "--n", "9", "--k", "4", "--cap", "100"]
    )
    assert code == 3
    # a step count past the int-to-str limit is still a cap error, not a traceback
    assert main("grassmann enum --q 2 --n 300 --k 150".split()) == 3
    assert "cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param("grassmann enum --q 2 --n 20000 --k 10000", id="enum-huge-grassmannian"),
    pytest.param("grassmann strata --q 2 --n 20000 --k 10000 --l 10000",
                 id="strata-huge-grassmannian"),
    pytest.param("boxfree verify --hypergraph-in huge.txt", id="text-header-huge-n"),
    pytest.param("boxfree gen --q 2 --n 1000 --d 3 --m 1", id="gen-huge-map-space"),
    pytest.param("isotropy planes --q 2 --n 100000 --d 3 --m 1", id="planes-huge-map"),
    pytest.param("tensor random --q 2 --n 100000 --d 3 --m 1", id="random-huge-map"),
    pytest.param("isotropy alt --q 2 --n 3000 --d 3 --m 1", id="alt-huge-map"),
    pytest.param("isotropy field-min --q 2 --n 3000 --d 3 --m 1", id="field-min-huge-maps"),
    pytest.param("isotropy field-min --q 2 --n 60 --d 3 --m 1", id="field-min-huge-space"),
    # the closed form is 0 (no nonzero map vanishes on all of F^n); the scan is not
    pytest.param("isotropy incidence-alt --q 2 --n 3000 --d 3 --m 1 --k 3000 --raw",
                 id="incidence-alt-raw-huge-scan"),
    # C(n, d) has some 10^7 digits here: the scan is refused before it is formed
    pytest.param("isotropy incidence-alt --q 2 --n 100000000 --d 50000000 --m 1 "
                 "--k 100000000 --raw", id="incidence-alt-raw-huge-binomial"),
    # d > n / 2: C(n, d) = C(n, n - d) >= (n // (n - d))^(n - d)
    pytest.param("tensor random --q 2 --n 150000000 --d 100000000 --m 1 --kind alt",
                 id="random-alt-d-above-half-n"),
    pytest.param("isotropy alt --q 2 --n 150000000 --d 100000000 --m 1",
                 id="alt-d-above-half-n"),
    pytest.param("isotropy field-min --q 2 --n 150000000 --d 100000000 --m 1",
                 id="field-min-d-above-half-n"),
])
def test_huge_work_is_refused_before_its_count_is_formed(capsys, monkeypatch, tmp_path,
                                                        deadline, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.txt").write_text("# 2 100000000 3 1\n")
    assert main(argv.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "needs at least 2^" in captured.err


@pytest.mark.parametrize("kind, n, d", [("hom", 10**5, 10**8), ("alt", 2 * 10**8, 10**8)])
def test_tensor_file_with_a_huge_declared_shape_is_refused(capsys, tmp_path, deadline,
                                                          kind, n, d):
    doc = {"field": {"p": 2, "e": 1, "modulus": [0, 1]}, "kind": kind,
           "n": n, "d": d, "m": 1, "coeffs": [0, 1]}
    (tmp_path / "F.json").write_text(json.dumps(doc))
    assert main(["tensor", "show", "--tensor", str(tmp_path / "F.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "more than the document's 2 coefficients" in captured.err


def test_sampled_minimum_refuses_more_samples_than_the_tensor_cap(capsys, deadline):
    argv = "isotropy field-min --q 2 --n 3 --d 2 --m 1 --samples 1000000000000"
    assert main(argv.split()) == 3
    assert "sampled tensor scan needs 1000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, value", [
    pytest.param("formula alpha-bound --n 1000000000 --d 3 --m 1", 0, 77458, id="alpha-bound"),
    pytest.param("formula alpha-alt --n 1000000000 --d 3 --m 2", 0, 54772, id="alpha-alt"),
    pytest.param("formula fp --d 3 --m 1 --k 1000000 --char-zero", 0, 166667166667,
                 id="fp-char-zero"),
    pytest.param("formula turan --n 1000000000000 --d 3 --k 5", 0, 299999999999, id="turan"),
    pytest.param("formula iso2 --n 5 --d 100000000000 --m 2", 0, False, id="iso2"),
    pytest.param("formula box-exponent --n 5 --d 10000000000 --m 1", 0, "49999999999/5",
                 id="box-exponent"),
    pytest.param("boxfree gen --q 2 --n 3 --d 10000000000 --m 1", 2, None,
                 id="boxfree-gen-inadmissible"),
    # the value has over 4300 digits: refused whole, before or after it is formed
    pytest.param("formula fp --d 5000 --m 2 --k 50000", 2, None, id="fp-over-digit-limit"),
    pytest.param("formula fp --d 500000000000 --m 2 --k 1000000000000", 2, None,
                 id="fp-far-over-digit-limit"),
    pytest.param(f"formula gq --n {10**3000} --d {10**2999}", 2, None, id="gq-over-digit-limit"),
])
def test_formulas_with_huge_arguments_finish(capsys, deadline, argv, code, value):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "precondition error" in captured.err
    else:
        assert json.loads(captured.out)["value"] == value


def test_isotropy_incidence_alt_at_k_equals_n_is_zero_unformed(capsys, deadline):
    # no nonzero map vanishes on all of F^n: the count is 0 before C(n, d) is formed
    code, doc = run_cli(
        capsys,
        *"isotropy incidence-alt --q 2 --n 100000000 --d 50000000 --m 1 --k 100000000".split(),
    )
    assert code == 0 and doc["count"] == "0"


def test_isotropy_alt(capsys, schema):
    code, doc = run_cli(
        capsys,
        "isotropy", "alt",
        "--q", "2", "--n", "4", "--d", "2", "--m", "1", "--seed", "9",
    )
    assert code == 0
    assert doc["exhausted"] is True
    assert doc["index"] >= 1
    validate(schema, doc)


def test_isotropy_incidence_with_raw(capsys, schema):
    code, doc = run_cli(
        capsys,
        "isotropy", "incidence-alt",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1", "--k", "1", "--raw",
    )
    assert code == 0
    assert doc["count"] == doc["raw_count"] == "49"
    validate(schema, doc)


def test_isotropy_hom(capsys, schema):
    code, doc = run_cli(
        capsys,
        "isotropy", "hom",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1", "--seed", "3", "--k", "1",
    )
    assert code == 0
    assert doc["exhausted"] is True
    validate(schema, doc)


def test_isotropy_incidence_hom(capsys, schema):
    code, doc = run_cli(
        capsys,
        "isotropy", "incidence-hom",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1",
    )
    assert code == 0 and doc["count"] == "1519"
    validate(schema, doc)


def test_tensor_random_inline(capsys, schema):
    code, doc = run_cli(
        capsys,
        "tensor", "random",
        "--q", "2", "--n", "2", "--d", "2", "--m", "1", "--seed", "42",
    )
    assert code == 0
    assert doc["tensor"]["coeffs"] == [1, 1, 0, 0]
    validate(schema, doc)


def test_isotropy_field_min(capsys, schema):
    code, doc = run_cli(
        capsys, "isotropy", "field-min", "--q", "2", "--n", "3", "--d", "2", "--m", "1"
    )
    assert code == 0
    assert doc["value"] == 2 and doc["exhaustive"] is True
    validate(schema, doc)


def test_rank_commands(capsys, schema, tmp_path):
    tensor_file = tmp_path / "t.json"
    code, _ = run_cli(
        capsys,
        "tensor", "random",
        "--q", "2", "--n", "2", "--d", "2", "--m", "1", "--seed", "42",
        "--out", str(tensor_file),
    )
    assert code == 0
    code, doc = run_cli(capsys, "rank", "zeros", "--tensor", str(tensor_file))
    assert code == 0
    validate(schema, doc)
    code, doc = run_cli(capsys, "rank", "ar", "--tensor", str(tensor_file))
    assert code == 0
    assert doc["ar_leq_m"] is True
    validate(schema, doc)


def test_tensor_show(capsys, schema, tmp_path):
    tensor_file = tmp_path / "t.json"
    run_cli(
        capsys,
        "tensor", "random",
        "--q", "3", "--n", "2", "--d", "2", "--m", "2", "--kind", "alt",
        "--seed", "5", "--out", str(tensor_file),
    )
    code, doc = run_cli(capsys, "tensor", "show", "--tensor", str(tensor_file))
    assert code == 0
    assert doc["kind"] == "alt" and doc["q"] == 3 and doc["coeff_count"] == 2
    validate(schema, doc)


def test_isotropy_planes(capsys, schema, tmp_path):
    tensor_file = tmp_path / "t.json"
    run_cli(
        capsys,
        "tensor", "random",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1", "--seed", "42",
        "--out", str(tensor_file),
    )
    code, doc = run_cli(capsys, "isotropy", "planes", "--tensor", str(tensor_file))
    assert code == 0
    assert doc["count"] == "3" and len(doc["tuples"]) == 3
    validate(schema, doc)


def test_isotropy_planes_is_charged_for_tuples_listed(capsys, schema):
    # G^d = 357^3 = 45,499,293 steps were refused up front (exit 3); the
    # listing is charged its 127,807 walk nodes and 661 tuples instead
    code, doc = run_cli(capsys, *"isotropy planes --q 4 --n 4 --d 3 --m 1".split())
    assert code == 0
    assert doc["count"] == "661" and len(doc["tuples"]) == 661
    validate(schema, doc)
    argv = "isotropy planes --q 4 --n 4 --d 3 --m 1 --cap".split()
    assert main(argv + ["128468"]) == 0
    capsys.readouterr()
    assert main(argv + ["128467"]) == 3
    assert "cap exceeded" in capsys.readouterr().err


def test_isotropy_hom_over_many_points_finds_its_first_witness(capsys, deadline):
    # the P^2 = 262,657^2 table passes the cap, so no mask is formed and the
    # walk stops at its first leaf (q = 1024 spends about 3 s listing its
    # 10^6 points before the walk starts, too near the deadline)
    code, doc = run_cli(capsys, *"isotropy hom --q 512 --n 3 --d 3 --m 1 --k 1".split())
    assert code == 0 and doc["found"] and doc["exhausted"]


def test_isotropy_planes_over_many_planes_is_refused_at_once(capsys, deadline):
    # any map's listing is charged at least G^(d-1) = 1,049,601^2 steps
    assert main("isotropy planes --q 1024 --n 3 --d 3 --m 1".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "plane-tuple enumeration needs 1101662259201 enumeration steps" in captured.err


def test_boxfree_gen_and_verify(capsys, schema, tmp_path):
    hfile = tmp_path / "h.json"
    code, doc = run_cli(
        capsys,
        "boxfree", "gen",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1", "--seed", "42",
        "--hypergraph", str(hfile),
    )
    assert code == 0
    cert = doc["certificate"]
    assert cert["freeness_verified"] is True
    assert cert["tuple_bound"] == "76"
    validate(schema, doc)
    code, doc = run_cli(capsys, "boxfree", "verify", "--hypergraph-in", str(hfile))
    assert code == 0 and doc["free"] is True
    validate(schema, doc)


def test_boxfree_verify_failure_exit_code(capsys, schema, tmp_path):
    # complete bipartite graph on 2 + 2 vertices: not box-free
    hfile = tmp_path / "bad.json"
    H = {
        "d": 2,
        "parts": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
        "edges": [[0, 0], [0, 1], [1, 0], [1, 1]],
    }
    hfile.write_text(json.dumps(H))
    code, doc = run_cli(capsys, "boxfree", "verify", "--hypergraph-in", str(hfile))
    assert code == 4
    assert doc["free"] is False and doc["witness"] == [[0, 1], [0, 1]]
    validate(schema, doc)


def test_boxfree_verify_rejects_edges_outside_their_parts(capsys, tmp_path):
    hfile = tmp_path / "bad.json"
    points = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    for edges in ([[0, 7], [9, 1], [0, 1]], [[0, 1, 2]]):
        hfile.write_text(json.dumps({"d": 2, "parts": [points, points], "edges": edges}))
        code = main(["boxfree", "verify", "--hypergraph-in", str(hfile)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "bad edge" in captured.err


def test_extension_flag_on_planes(capsys, schema):
    # seed-42 map over F_2 has 3 annihilated plane pairs; 5 over F_4
    code, doc = run_cli(
        capsys,
        "isotropy", "planes",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1", "--seed", "42",
    )
    assert code == 0 and doc["count"] == "3"
    code, doc = run_cli(
        capsys,
        "isotropy", "planes",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1", "--seed", "42", "--r", "2",
    )
    assert code == 0 and doc["count"] == "5"
    validate(schema, doc)


def test_conflicting_tensor_flags_rejected(capsys, tmp_path):
    tensor_file = tmp_path / "t.json"
    run_cli(
        capsys,
        "tensor", "random",
        "--q", "2", "--n", "2", "--d", "2", "--m", "1", "--seed", "1",
        "--out", str(tensor_file),
    )
    code = main(
        ["isotropy", "alt", "--tensor", str(tensor_file), "--q", "2"]
    )
    assert code == 2


@pytest.mark.parametrize("argv, params", [
    ("isotropy alt --tensor ALT.json", {"tensor": "ALT.json", "r": 1}),
    ("isotropy hom --tensor HOM.json --k 1", {"tensor": "HOM.json", "k": 1, "r": 1}),
    ("isotropy planes --tensor HOM.json --r 2", {"tensor": "HOM.json", "r": 2}),
    ("rank zeros --tensor HOM.json", {"tensor": "HOM.json", "r": 1}),
    ("rank ar --tensor HOM.json", {"tensor": "HOM.json", "r": 1}),
])
def test_tensor_file_params_name_no_seed(capsys, monkeypatch, tmp_path, argv, params):
    # a map read from --tensor was generated by no seed of this run
    monkeypatch.chdir(tmp_path)
    write_input_files(tmp_path)
    capsys.readouterr()
    code, doc = run_cli(capsys, *argv.split())
    assert code == 0 and doc["params"] == params


def test_formula_params_record_a_zero_value(capsys):
    code, doc = run_cli(capsys, "formula", "box-exponent", "--n", "3", "--d", "2", "--m", "0")
    assert code == 0
    assert doc["params"] == {"n": 3, "d": 2, "m": 0}


@pytest.mark.parametrize("q, bad", [(2, 2), (4, 5)])
def test_tensor_coefficient_outside_the_field_rejected(capsys, tmp_path, q, bad):
    # Over F_2 the coefficient 2 made the zero map read as index 2 instead
    # of 3; over F_4 the coefficient 5 ended in an IndexError traceback.
    tensor_file = tmp_path / "t.json"
    run_cli(
        capsys,
        "tensor", "random",
        "--q", str(q), "--n", "3", "--d", "2", "--m", "1", "--kind", "alt",
        "--out", str(tensor_file),
    )
    doc = json.loads(tensor_file.read_text())
    doc["coeffs"] = [bad] * len(doc["coeffs"])
    tensor_file.write_text(json.dumps(doc))
    for command in (["isotropy", "alt"], ["tensor", "show"]):
        code = main(command + ["--tensor", str(tensor_file)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"coefficient {bad} is not an element of F_{q}" in captured.err


@pytest.mark.parametrize("key, value", [("n", 2.0), ("d", "2"), ("m", True)])
def test_tensor_shape_must_be_integers(capsys, tmp_path, key, value):
    tensor_file = tmp_path / "t.json"
    run_cli(
        capsys,
        "tensor", "random",
        "--q", "3", "--n", "2", "--d", "2", "--m", "1",
        "--out", str(tensor_file),
    )
    doc = json.loads(tensor_file.read_text())
    doc[key] = value
    tensor_file.write_text(json.dumps(doc))
    code = main(["rank", "zeros", "--tensor", str(tensor_file)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "n, d and m must be integers" in captured.err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("ISOTROPY_CAP", "5")
    code = main(["grassmann", "enum", "--q", "4", "--n", "5", "--k", "2"])
    assert code == 3
    monkeypatch.setenv("ISOTROPY_CAP", "100000")
    code = main(["grassmann", "enum", "--q", "4", "--n", "5", "--k", "2"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
def test_env_cap_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("ISOTROPY_CAP", value)
    code = main(["grassmann", "enum", "--q", "2", "--n", "3", "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "ISOTROPY_CAP must be a positive integer" in captured.err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cap_flag_must_be_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("ISOTROPY_CAP", "100000")  # the flag still wins
    code = main(["grassmann", "enum", "--q", "2", "--n", "3", "--k", "1", "--cap", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--cap must be a positive integer" in captured.err


def test_boxfree_text_format_verify(capsys, schema, tmp_path):
    hfile = tmp_path / "h.txt"
    code, _ = run_cli(
        capsys,
        "boxfree", "gen",
        "--q", "2", "--n", "3", "--d", "2", "--m", "1", "--seed", "42",
        "--hypergraph", str(hfile), "--format", "text",
    )
    assert code == 0
    assert hfile.read_text().startswith("# 2 3 2 1")
    code, doc = run_cli(capsys, "boxfree", "verify", "--hypergraph-in", str(hfile))
    assert code == 0 and doc["free"] is True
    validate(schema, doc)


def test_output_determinism_modulo_timestamp(capsys):
    _, doc1 = run_cli(capsys, "formula", "gq", "--n", "9", "--d", "3")
    _, doc2 = run_cli(capsys, "formula", "gq", "--n", "9", "--d", "3")
    doc1.pop("timestamp")
    doc2.pop("timestamp")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "doc.json"
    code = main(["formula", "gq", "--n", "5", "--d", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == 7


@pytest.mark.parametrize("argv", [
    "isotropy hom --q 9 --n 3 --d 2 --m 1 --seed 4",  # no --k
    "isotropy incidence-alt --q 2 --n 3 --d 2 --m 1",  # no --k
    "isotropy field-min --q 2 --n 3 --d 2",  # no --m
    "isotropy incidence-hom --q 2 --n 3 --d 2",  # no --m
    "isotropy alt --q 4 --n -1 --d 2 --m 1",
    "isotropy field-min --q 2 --n -1 --d 2 --m 1",
    "isotropy incidence-alt --q 2 --n 3 --d 2 --m 1 --k -1",
    "isotropy incidence-alt --q 2 --n 3 --d 2 --m 1 --k 5",
    "isotropy incidence-hom --q 2 --n 1 --d 2 --m 1",  # no planes in F^1
    "isotropy field-min --q 2 --n 3 --d 2 --m 1 --samples -3",
    "isotropy field-min --q 2 --n 3 --d 2 --m 1 --samples 0",
])
def test_isotropy_bad_input_exits_2(capsys, argv):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "precondition error" in captured.err


# sha256 of each document with its timestamp value blanked: CLI documents
# must stay byte-identical unless a change states why.  The hom witnesses
# pin the first tuple in search order, the planes documents the sorted list
PINNED_DOCUMENTS = {
    "isotropy planes --q 2 --n 3 --d 2 --m 1 --seed 1":
        "793dbca952b61bfc398ac4efed577f108e2fe21b9c5bb00eca9839944497438a",
    "isotropy planes --q 2 --n 3 --d 3 --m 1 --seed 1":
        "c8142cbea83815cca5530978f55f7095a0e157ec91a5440e9282445770f882a0",
    "isotropy planes --q 3 --n 4 --d 2 --m 2 --seed 0":
        "cdad9f3ad10d46b118ca770929cf2778be13df9a63a17715dc2d66dab6c81d5a",
    "isotropy planes --q 4 --n 4 --d 2 --m 2 --seed 1":
        "02b2c18610ddcc100f062f4084b5d27b5ba6cdd7c407fb90111c39f88a04be49",
    "isotropy hom --q 2 --n 3 --d 2 --m 2 --k 1 --seed 1":
        "bee3070254b2841b94fef3ea6989dfeed1f9db86bb5750e05e3e3bddcf0f82d9",
    "isotropy hom --q 3 --n 4 --d 3 --m 4 --k 1 --seed 0":
        "25b45c9a23f0f14f33b8a95b1cd09e2e44308fa454cec8a91d7f02e930463e96",
    "isotropy hom --q 2 --n 4 --d 2 --m 2 --k 2 --seed 1":
        "fff1b4d564d0abbee9540140cbe03475a8ebda6e29a6182d985e6ef7f2457504",
    "isotropy hom --q 3 --n 4 --d 2 --m 2 --k 2 --seed 0":
        "d9059b9ecb569e894468e1ffe6d037062e4414cceb4247073ddf8fd288529d35",
    "isotropy hom --q 4 --n 4 --d 2 --m 2 --k 2 --seed 2":
        "1097c74181af42f3252aa3fa0db66ca8bfa41199aa7b13e38b5649f595f61b84",
    "boxfree gen --q 2 --n 3 --d 2 --m 1 --hypergraph H.json":
        "c387d0e17d0529a9718d4f880519a0dd6714b97ef463502e811c92f7aada5caf",
    "formula alpha-bound --n 9 --d 3 --m 2":
        "5bd01c6f8992d3ec8b873ae77d060a649809b2c31ed1dd6c4fdcc01564a7106e",
    "formula alpha-alt --n 7 --d 3 --m 1 --char-zero":
        "8f8e93fbb47afe1e8c18d9061da11578bc201dca7403f8c83d78e0b4763fa303",
    "formula fp --d 3 --m 1 --k 5 --char-zero":
        "e0f9a0140bfea9ee2d83b86855eed40aefcd08f49d685776d9efa3a5aecf6a0a",
    "formula turan --n 7 --d 3 --k 3":
        "e1ba671b5011b44376cd3855623a9c05f7410cdc075009f353c02e7875b05dfa",
    "formula gq --n 9 --d 3":
        "35440cd316d1b99266084961a5afc722097fad11e6b2b59a391a3ca620c972f8",
    "formula iso2 --n 5 --d 3 --m 2":
        "ba90dea3bf27c15ab58982a8cd20f353c0456208963b8c69eac1f2b0d3be5244",
    "formula box-exponent --n 3 --d 2 --m 1":
        "95044376b50c97db3c0c3bf6fc519aacc7af1125d30ebc19731ba2f736358ab7",
    "grassmann strata --q 3 --n 4 --k 2 --format csv":
        "f0f3c110ad8747ab46951646ea08bed37728dc297382e416b2dd9599d4ea8e77",
    "tensor random --q 9 --n 3 --d 2 --m 2 --kind alt --seed 5 --out T.json":
        "80f240b56be19e420f03465b00b0c9e038aa37d9faf5445d187d29add554bba7",
    "isotropy alt --q 2 --n 4 --d 2 --m 1 --seed 9":
        "f2a22c174f7ecebb800f5bf029f6ff93695b1096e2595b794dde930ca263d467",
    "isotropy alt --tensor ALT.json":
        "5a851179acb2d890ed9e4e4647d138750d5372e0ae97a657b040fd864928ca27",
    "isotropy field-min --q 2 --n 3 --d 2 --m 1":
        "1683769c50549bed42a860ce828fab96de3a3510fe42480784141223a2ed82b0",
    "isotropy field-min --q 2 --n 3 --d 2 --m 1 --samples 5 --seed 2":
        "835fbf4d4215b934ffe70663ac1cf3e68eecd3026fdd75df50e0e13e5d404f5e",
    "isotropy incidence-alt --q 2 --n 3 --d 2 --m 1 --k 1 --raw":
        "359e3ec089a56274fa77896d4df0e371adb2a18011dae053124d44d34c07124e",
    "isotropy incidence-hom --q 2 --n 3 --d 2 --m 1":
        "6cf0a9217b22bf45b7e5fbf2681ad7b33ce85270c0b1fdbf5ac37fa3b4b50957",
    "rank zeros --q 3 --n 2 --d 2 --m 1 --seed 4":
        "361eff7dad05225fc5ea018d64d91f3ca4ed7a854aff884003da25b714f7b7fa",
    "rank ar --tensor HOM.json":
        "a53d74a0cc44196e2d2951f0fb87448f495fc6543d60bdcd9ad22fe8bb69653b",
    "grassmann count --q 3 --n 4 --k 2":
        "caf98bc10e58464c7d7e048f24a4390920b38942008ec50e0147d93c462c267f",
    "grassmann enum --q 2 --n 3 --k 2":
        "9e7254ce9d9a717a6c05c505b70a6b31537608c7193ce1869c858f6ec158f525",
    "grassmann strata --q 2 --n 4 --k 2":
        "540181ff76842a6b6c255799cf0b19db08de9b565540c995e1547e4f6ec884b1",
    "boxfree verify --hypergraph-in FREE.json":
        "9cb2d88ab1bf7e33a88c087f3160de921404fa48ff9d79a5f254350b85394ac3",
    "tensor random --q 3 --n 3 --d 2 --m 1 --seed 7":
        "0bf9938cfc37ff2a4cde226f017c9286a520d646333dfa66420558d334c5387b",
    "tensor show --tensor ALT.json":
        "bcb1159f40e733975feb26b9831df386c99c091650407d077f7c4342a19e36e1",
}
# sha256 of the files those invocations write
PINNED_FILES = {
    "H.json": "b540a1fec926da50db9229d7b1bacaaa33ef1c0915e92f2e208e58380ff9051f",
    "T.json": "a0458728d5aba1aab55a25d4443576c1d4a5ae06ca7fdb42cc1cb0e75c2b4bc2",
}


def write_input_files(folder):
    """FREE.json, a box-free hypergraph, and the tensor files ALT.json (an
    alternating map over F_2) and HOM.json (a map over F_3)."""
    free = {"d": 2, "parts": [[[0, 1], [1, 0]]] * 2, "edges": [[0, 0]]}
    (folder / "FREE.json").write_text(json.dumps(free))
    for argv in (
        "tensor random --q 2 --n 4 --d 2 --m 1 --kind alt --seed 3 --out ALT.json",
        "tensor random --q 3 --n 2 --d 2 --m 1 --seed 2 --out HOM.json",
    ):
        assert main(argv.split()) == 0


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(PINNED_DOCUMENTS))
def test_cli_documents_are_pinned(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # --hypergraph and --out write here
    write_input_files(tmp_path)
    capsys.readouterr()
    assert main(argv.split()) == 0
    out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out)
    assert _sha256(out) == PINNED_DOCUMENTS[argv]
    for name in set(argv.split()) & set(PINNED_FILES):
        assert _sha256((tmp_path / name).read_text()) == PINNED_FILES[name]


# One small valid invocation per subcommand and operation.  FREE.json is a
# box-free hypergraph and T.json a tensor; the sweep writes both first.
VALID = {
    "formula alpha-bound": "--n 5 --d 2 --m 2",
    "formula alpha-alt": "--n 5 --d 2 --m 2",
    "formula fp": "--d 2 --m 2 --k 2",
    "formula turan": "--n 7 --d 3 --k 3",
    "formula gq": "--n 5 --d 2",
    "formula iso2": "--n 5 --d 2 --m 2",
    "formula box-exponent": "--n 3 --d 2 --m 1",
    "isotropy alt": "--q 2 --n 3 --d 2 --m 1",
    "isotropy hom": "--q 2 --n 3 --d 2 --m 1 --k 1",
    "isotropy field-min": "--q 2 --n 3 --d 2 --m 1",
    "isotropy incidence-alt": "--q 2 --n 3 --d 2 --m 1 --k 1",
    "isotropy incidence-hom": "--q 2 --n 3 --d 2 --m 1",
    "isotropy planes": "--q 2 --n 3 --d 2 --m 1",
    "rank zeros": "--q 2 --n 2 --d 2 --m 1",
    "rank ar": "--q 2 --n 2 --d 2 --m 1",
    "grassmann enum": "--q 2 --n 3 --k 1",
    "grassmann count": "--q 2 --n 3 --k 1",
    "grassmann strata": "--q 2 --n 3 --k 1",
    "boxfree gen": "--q 2 --n 3 --d 2 --m 1",
    "boxfree verify": "--hypergraph-in FREE.json",
    "tensor random": "--q 2 --n 2 --d 2 --m 1",
    "tensor show": "--tensor T.json",
}
# every operation that reads an input file, reading one that does not exist
MISSING_FILE = {
    "isotropy alt": "--tensor missing.json",
    "isotropy hom": "--tensor missing.json --k 1",
    "isotropy planes": "--tensor missing.json",
    "rank zeros": "--tensor missing.json",
    "rank ar": "--tensor missing.json",
    "tensor show": "--tensor missing.json",
    "boxfree verify": "--hypergraph-in missing.json",
}
def _subparsers(parser):
    """The subcommands of ``parser`` by name."""
    return {
        name: sub
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for name, sub in action.choices.items()
    }


def _operations():
    """Each 'command operation' of the parser (selftest has no operation),
    with the options that operation takes."""
    return {
        f"{command} {op}": {o for a in sub._actions for o in a.option_strings}
        for command, parser in _subparsers(build_parser()).items()
        for op, sub in _subparsers(parser).items()
    }


OPERATIONS = _operations()


def test_sweep_covers_every_operation():
    assert "selftest" not in " ".join(OPERATIONS)
    assert set(VALID) == set(OPERATIONS)
    inputs = {"--tensor", "--hypergraph-in"}
    readers = {op for op, options in OPERATIONS.items() if options & inputs}
    assert set(MISSING_FILE) == readers


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_every_operation_exits_2_on_bad_input(capsys, monkeypatch, tmp_path, op):
    monkeypatch.chdir(tmp_path)
    free = {"d": 2, "parts": [[[0, 1], [1, 0]]] * 2, "edges": [[0, 0]]}
    (tmp_path / "FREE.json").write_text(json.dumps(free))
    assert main("tensor random --q 2 --n 2 --d 2 --m 1 --out T.json".split()) == 0
    assert _exit_code((op + " " + VALID[op]).split()) == 0
    assert _exit_code((op + " --help").split()) == 0
    capsys.readouterr()
    cases = [op, op + " " + VALID[op] + " --out nodir/out.json"]
    if op in MISSING_FILE:
        cases.append(op + " " + MISSING_FILE[op])
    for argv in cases:
        assert _exit_code(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.err, argv
    assert not (tmp_path / "nodir").exists()
    # leaving out any one flag either still works or exits 2
    flags = VALID[op].split()
    for i in range(0, len(flags), 2):
        argv = op.split() + flags[:i] + flags[i + 2 :]
        assert _exit_code(argv) in (0, 2), argv


def _int_flags(op):
    """The integer options of an operation, read off the parser."""
    command, name = op.split()
    sub = _subparsers(_subparsers(build_parser())[command])[name]
    return sorted(o for a in sub._actions if a.type is int for o in a.option_strings)


HUGE_INTEGER_CASES = [(op, flag) for op in sorted(OPERATIONS) for flag in _int_flags(op)]


@pytest.mark.parametrize(
    "op, flag", HUGE_INTEGER_CASES, ids=[f"{op} {flag}" for op, flag in HUGE_INTEGER_CASES]
)
def test_every_integer_flag_at_10_to_the_12_exits_cleanly(capsys, monkeypatch, tmp_path,
                                                          deadline, op, flag):
    # VALID[op] with one integer flag set, or added, at 10^12: the operation
    # answers, refuses the input or refuses the work, and never hangs
    monkeypatch.chdir(tmp_path)
    free = {"d": 2, "parts": [[[0, 1], [1, 0]]] * 2, "edges": [[0, 0]]}
    (tmp_path / "FREE.json").write_text(json.dumps(free))
    assert main("tensor random --q 2 --n 2 --d 2 --m 1 --out T.json".split()) == 0
    capsys.readouterr()
    flags = VALID[op].split()
    if flag in flags:
        flags[flags.index(flag) + 1] = str(10**12)
    else:
        flags += [flag, str(10**12)]
    code = _exit_code(op.split() + flags)
    captured = capsys.readouterr()
    assert code in (0, 2, 3) and "Traceback" not in captured.err, (code, captured.err)


@pytest.mark.parametrize("argv", [
    pytest.param("formula gq", id="formula-without-flags"),
    pytest.param("formula turan --n 3 --d 2", id="formula-without-k"),
    pytest.param("boxfree gen --q 2", id="boxfree-gen-without-n-d-m"),
    pytest.param("boxfree verify", id="boxfree-verify-without-input"),
    pytest.param("rank zeros --tensor notjson.json", id="tensor-file-not-json"),
    pytest.param("tensor show --tensor binary.json", id="tensor-file-not-text"),
    pytest.param("boxfree verify --hypergraph-in badtoken.txt", id="hypergraph-text-token"),
    pytest.param("boxfree verify --hypergraph-in notjson.json", id="hypergraph-not-json"),
    pytest.param("grassmann strata --q 2 --n 3 --k 2 --format csv --out nodir/x.csv",
                 id="csv-out-in-missing-dir"),
    pytest.param("boxfree gen --q 2 --n 3 --d 2 --m 1 --hypergraph nodir/h.json",
                 id="hypergraph-out-in-missing-dir"),
    pytest.param("grassmann strata --q 2 --n 3 --k 2 --format csv --l 1", id="csv-with-l"),
    pytest.param("isotropy alt --q 2 --n 3 --d 2 --m 1 --k 2", id="alt-with-k"),
    pytest.param("isotropy alt --q 2 --n 3 --d 2 --m 1 --samples 3", id="alt-with-samples"),
    pytest.param("isotropy alt --q 2 --n 3 --d 2 --m 1 --raw", id="alt-with-raw"),
    pytest.param("isotropy planes --q 2 --n 3 --d 2 --m 1 --k 1", id="planes-with-k"),
    pytest.param("isotropy incidence-hom --q 2 --n 3 --d 2 --m 1 --k 1",
                 id="incidence-hom-with-k"),
    pytest.param("isotropy hom --q 2 --n 3 --d 2 --m 1 --k 1 --raw", id="hom-with-raw"),
    pytest.param("isotropy incidence-alt --q 2 --n 3 --d 2 --m 1 --k 1 --samples 2",
                 id="incidence-with-samples"),
    pytest.param("grassmann count --q 2 --n 3 --k 1 --l 0", id="count-with-l"),
    pytest.param("grassmann count --q 2 --n 3 --k 1 --format csv", id="count-with-format"),
    pytest.param("grassmann enum --q 2 --n 3 --k 1 --format json", id="enum-with-format"),
    pytest.param("isotropy incidence-hom --q 2 --n 3 --d 2 --m 1 --r 2 --seed 5",
                 id="incidence-hom-with-r-and-seed"),
    pytest.param("isotropy incidence-hom --q 2 --n 3 --d 2 --m 1 --seed 5",
                 id="incidence-hom-with-seed"),
    pytest.param("isotropy incidence-alt --q 2 --n 3 --d 2 --m 1 --k 1 --r 2",
                 id="incidence-alt-with-r"),
    pytest.param("isotropy field-min --q 2 --n 3 --d 2 --m 1 --r 2 --kind hom",
                 id="field-min-with-r-and-kind"),
    pytest.param("isotropy field-min --q 2 --n 3 --d 2 --m 1 --seed 3",
                 id="field-min-seed-without-samples"),
    pytest.param("isotropy hom --q 2 --n 3 --d 2 --m 1 --k 1 --kind alt",
                 id="hom-with-kind-alt"),
    pytest.param("isotropy alt --q 2 --n 3 --d 2 --m 1 --kind hom", id="alt-with-kind-hom"),
    pytest.param("isotropy planes --tensor T.json --seed 1", id="tensor-file-with-seed"),
    pytest.param("tensor show --tensor T.json --kind alt", id="tensor-file-with-kind"),
    pytest.param("boxfree verify --hypergraph-in FREE.json --seed 1", id="verify-with-seed"),
    pytest.param("boxfree verify --hypergraph-in FREE.json --max-trials 3",
                 id="verify-with-max-trials"),
    pytest.param("boxfree verify --hypergraph-in FREE.json --format text",
                 id="verify-with-format"),
    pytest.param("boxfree gen --q 2 --n 3 --d 2 --m 1 --format text",
                 id="gen-format-without-hypergraph"),
    pytest.param("tensor random --q 2 --n 2 --d 2 --m 1 --r 0", id="tensor-random-r-0"),
    pytest.param("rank ar --q 2 --n 2 --d 2 --m 1 --method raw", id="ar-with-method"),
    pytest.param("formula gq --n 5 --d 2 --m 3", id="gq-with-m"),
    pytest.param("formula gq --n 5 --d 2 --char-zero", id="gq-with-char-zero"),
    pytest.param("formula gq --n 5 --d 2 --cap 7", id="formula-with-cap"),
    pytest.param("selftest --cap 5", id="selftest-with-cap"),
    pytest.param("grassmann count --q 2 --n 3 --k 1 --cap 1", id="count-with-cap"),
    pytest.param("tensor random --q 2 --n 2 --d 2 --m 1 --cap 9", id="tensor-random-with-cap"),
    pytest.param("isotropy alt --q 2 --n 3 --d 2 --m 1 --kind alt", id="alt-with-kind-alt"),
    pytest.param("isotropy hom --q 2 --n 3 --d 2 --m 1 --k 1 --kind hom",
                 id="hom-with-kind-hom"),
    pytest.param("tensor show --q 2 --n 2 --d 2 --m 1", id="tensor-show-generating"),
    pytest.param("tensor show --tensor T.json --r 2", id="tensor-show-with-r"),
    pytest.param("isotropy", id="isotropy-without-operation"),
    pytest.param("grassmann count --q 1000000007 --n 2 --k 1", id="count-q-above-order-cap"),
    pytest.param("tensor random --q 3 --n 1 --d 1 --m 1 --r 3000000",
                 id="tensor-random-huge-r"),
    pytest.param("isotropy planes --q 2 --n 3 --d 2 --m 1 --kind alt", id="planes-with-kind"),
    pytest.param("boxfree verify --hypergraph-in bigq.txt", id="hypergraph-text-q-above-cap"),
    pytest.param("grassmann count --q 2 --n 300 --k 150", id="count-over-digit-limit"),
    pytest.param("grassmann count --q 2 --n 20000 --k 10000", id="count-far-over-digit-limit"),
    pytest.param("isotropy incidence-alt --q 2 --n 40 --d 3 --m 2 --k 1",
                 id="incidence-alt-over-digit-limit"),
    pytest.param("isotropy incidence-hom --q 2 --n 30 --d 3 --m 1",
                 id="incidence-hom-over-digit-limit"),
    # refused by the count's lower bound q^dim before q^(fiber dim) is formed
    pytest.param("isotropy incidence-alt --q 2 --n 3000 --d 3 --m 1 --k 1",
                 id="incidence-alt-far-over-digit-limit"),
    pytest.param("isotropy incidence-hom --q 2 --n 3000 --d 3 --m 1",
                 id="incidence-hom-far-over-digit-limit"),
    pytest.param("isotropy incidence-alt --q 2 --n 3000 --d 3 --m 1 --k 1 --raw",
                 id="incidence-alt-raw-far-over-digit-limit"),
    pytest.param("isotropy incidence-hom --q 2 --n 3000 --d 3 --m 1 --raw",
                 id="incidence-hom-raw-far-over-digit-limit"),
    # refused by a bit bound on the variety's dimension before n^d or
    # C(n, d) is formed
    pytest.param("isotropy incidence-hom --q 2 --n 3 --d 100000000 --m 1",
                 id="incidence-hom-huge-d"),
    pytest.param("isotropy incidence-alt --q 2 --n 100000000 --d 50000000 --m 1 --k 1",
                 id="incidence-alt-huge-n-and-d"),
    pytest.param("isotropy incidence-hom --q 2 --n 3 --d 100000000 --m 1 --raw",
                 id="incidence-hom-raw-huge-d"),
    pytest.param("isotropy incidence-alt --q 2 --n 100000000 --d 50000000 --m 1 --k 1 --raw",
                 id="incidence-alt-raw-huge-n-and-d"),
    # an exponent too large for a float is still a digit-limit refusal
    pytest.param("isotropy incidence-hom --q 2 --n 3 --d 2000 --m 1",
                 id="incidence-hom-dim-past-float-range"),
    pytest.param(f"grassmann count --q 2 --n {10**200} --k {10**199}",
                 id="count-exponent-past-float-range"),
])
def test_cli_bad_input_exits_2(capsys, monkeypatch, tmp_path, deadline, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notjson.json").write_text("{not json")
    (tmp_path / "badtoken.txt").write_text("# 2 2 2 1\n0 x\n")
    (tmp_path / "bigq.txt").write_text("# 2 2 1000000007 1\n")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    free = {"d": 2, "parts": [[[0, 1], [1, 0]]] * 2, "edges": [[0, 0]]}
    (tmp_path / "FREE.json").write_text(json.dumps(free))
    assert main("tensor random --q 2 --n 2 --d 2 --m 1 --out T.json".split()) == 0
    capsys.readouterr()
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "precondition error" in captured.err


@pytest.mark.parametrize("argv, work", [
    ("boxfree gen --q 2 --n 3 --d 2 --m 1 --hypergraph nodir/h.json",
     "multilin.boxfree.box_pipeline"),
    ("boxfree gen --q 2 --n 3 --d 2 --m 1 --out nodir/out.json",
     "multilin.boxfree.box_pipeline"),
    ("isotropy alt --q 2 --n 3 --d 2 --m 1 --out nodir/out.json",
     "multilin.isotropy.alpha_alt"),
    ("isotropy field-min --q 2 --n 3 --d 2 --m 1 --out .", "multilin.isotropy.alpha_field_alt"),
    ("grassmann strata --q 2 --n 3 --k 1 --format csv --out nodir/x.csv",
     "multilin.grassmann.stratum_profile"),
    ("tensor random --q 2 --n 2 --d 2 --m 1 --out nodir/T.json", "multilin.cli.random_tensor"),
])
def test_unwritable_output_fails_before_the_work(capsys, monkeypatch, tmp_path, argv, work):
    monkeypatch.chdir(tmp_path)

    def work_started(*args, **kwargs):
        raise AssertionError("the computation ran before the output path was checked")

    monkeypatch.setattr(work, work_started)
    assert main(argv.split()) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()
