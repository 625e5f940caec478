import json
import os
from fractions import Fraction

import pytest

from crkit.algebra import heisenberg, sl2
from crkit.catalog import ROSTER, get_entry, quadric_orbit
from crkit.cli import main
from crkit.errors import InputError
from crkit.fileio import (
    MAX_DIMENSION,
    MAX_TORSION,
    algebra_payload,
    detect_kind,
    load_algebra,
    load_cr_pair,
    load_orbit_model,
    orbit_payload,
)
from crkit.scalars import QI

from .support import complexify_algebra, cr_pair_payload
from .test_golden import FAMILY_SWEEP, GOLDEN

F = Fraction


def heisenberg_payload():
    return {
        "dimension": 3,
        "field": "Q",
        "basis": ["x", "y", "z"],
        "brackets": [[0, 1, [[2, "1"]]]],
    }


def heisenberg_pair_payload():
    payload = heisenberg_payload()
    payload["h_basis"] = []
    payload["R_basis"] = [["1", "0", "0"], ["0", "1", "0"]]
    payload["J"] = [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]
    return payload


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_algebra_roundtrip():
    L = load_algebra(heisenberg_payload())
    assert L == heisenberg()
    again = load_algebra(algebra_payload(L))
    assert again == L


def test_algebra_loader_rejects_wrong_order():
    payload = heisenberg_payload()
    payload["brackets"] = [[1, 0, [[2, "1"]]]]
    with pytest.raises(InputError):
        load_algebra(payload)


def test_algebra_loader_rejects_bad_scalar_and_duplicates():
    payload = heisenberg_payload()
    payload["brackets"] = [[0, 1, [[2, "x"]]]]
    with pytest.raises(InputError):
        load_algebra(payload)
    payload = heisenberg_payload()
    payload["brackets"] = [[0, 1, [[2, "1"]]], [0, 1, [[2, "2"]]]]
    with pytest.raises(InputError):
        load_algebra(payload)
    # two terms for z in [x, y]: neither is kept silently
    payload["brackets"] = [[0, 1, [[2, "1"], [2, "5"]]]]
    with pytest.raises(InputError, match=r"^duplicate bracket target index 2 in \(0, 1\)$"):
        load_algebra(payload)


def test_gaussian_algebra_payload():
    payload = {
        "dimension": 2,
        "field": "Q_i",
        "basis": ["a", "b"],
        "brackets": [[0, 1, [[0, ["0", "1"]], [1, "1/2"]]]],
    }
    L = load_algebra(payload)
    assert L.field == QI
    out = algebra_payload(L)
    assert out["brackets"] == [[0, 1, [[0, ["0", "1"]], [1, "1/2"]]]]


def test_cr_pair_roundtrip():
    pair = load_cr_pair(heisenberg_pair_payload())
    assert pair.g == heisenberg()
    assert load_cr_pair(cr_pair_payload(pair)) == pair


def test_orbit_roundtrip():
    model = quadric_orbit(2, 1).model
    payload = orbit_payload(model)
    loaded = load_orbit_model(payload)
    assert loaded.codim == model.codim
    assert loaded.m.dim == model.m.dim
    assert loaded.h.dim == model.h.dim


@pytest.mark.parametrize("name", sorted(set(ROSTER + FAMILY_SWEEP)))
def test_orbit_payload_roundtrip_of_every_model(name):
    # the file edge: dense rows out, sparse rows back in
    model = get_entry(name).model
    payload = orbit_payload(model)
    loaded = load_orbit_model(payload)
    assert loaded.ambient == model.ambient
    assert loaded.real_sub == model.real_sub
    assert loaded.isotropy_real == model.isotropy_real
    assert (loaded.h, loaded.m, loaded.codim) == (model.h, model.m, model.codim)
    again = orbit_payload(loaded)
    for key in ("ambient", "isotropy_hat_basis", "name"):
        assert again[key] == payload[key]
    # a file carries no aligned algebra: the loaded model reads its algebra
    # off the echelon rows it writes, so a second round trip is exact
    reloaded = load_orbit_model(again)
    assert reloaded.real_algebra == loaded.real_algebra
    assert (reloaded.h, reloaded.m, reloaded.codim) == (model.h, model.m, model.codim)
    assert json.dumps(orbit_payload(reloaded)) == json.dumps(again)


def test_detect_kind():
    assert detect_kind(heisenberg_payload()) == "algebra"
    assert detect_kind(heisenberg_pair_payload()) == "cr-pair"
    assert detect_kind({"ambient": {}, "real_basis": []}) == "orbit"
    with pytest.raises(InputError):
        detect_kind({"what": 1})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_algebra_file(tmp_path, capsys):
    path = write(tmp_path, "heis.lie", heisenberg_payload())
    code = main(["analyze", path, "--set", "validate,structure"])
    out = capsys.readouterr().out
    assert code == 0
    assert "antisymmetry: pass" in out
    assert "jacobi: pass" in out
    assert "algebra.nilpotent: True" in out


def test_analyze_jacobi_failure_is_data_not_error(tmp_path, capsys):
    payload = {
        "dimension": 3,
        "field": "Q",
        "basis": ["a", "b", "c"],
        "brackets": [
            [0, 1, [[2, "1"]]],
            [0, 2, [[2, "1"]]],
            [1, 2, [[0, "1"]]],
        ],
    }
    path = write(tmp_path, "broken.lie", payload)
    code = main(["analyze", path, "--set", "validate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "jacobi: fail" in out
    assert "(0, 1, 2)" in out


def jacobi_failing_payload():
    # [x,y] = z, [y,z] = y: the Jacobi sum on (x, y, z) is [[x,y],z] = -y != 0
    return {
        "dimension": 3,
        "field": "Q",
        "basis": ["x", "y", "z"],
        "brackets": [[0, 1, [[2, "1"]]], [1, 2, [[1, "1"]]]],
    }


def test_analyses_after_failed_jacobi_are_skipped(tmp_path, capsys):
    good_pair = heisenberg_pair_payload()
    pair = dict(jacobi_failing_payload(), **{k: good_pair[k] for k in ("h_basis", "R_basis", "J")})
    for name, payload, later in (
        ("broken.lie", jacobi_failing_payload(), ["structure"]),
        ("broken.pair", pair, ["structure", "cr-axioms", "levi"]),
    ):
        path = write(tmp_path, name, payload)
        code = main(["analyze", path, "--format", "json"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert [(r["check"], r["status"]) for r in records[:2]] == [
            ("antisymmetry", "pass"), ("jacobi", "fail")]
        assert records[1]["detail"] == "(0, 1, 2)"
        assert [(r["analysis"], r["status"], r["detail"]) for r in records[2:]] == [
            (a, "skipped", "jacobi failed") for a in later]


def test_analyses_run_when_validate_not_selected(tmp_path, capsys):
    path = write(tmp_path, "broken.lie", jacobi_failing_payload())
    assert main(["analyze", path, "--set", "structure"]) == 0
    assert "algebra.dimension: 3" in capsys.readouterr().out


def test_analyze_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/missing.lie"]) == 2


def test_analyze_unknown_analysis_exits_2(tmp_path, capsys):
    path = write(tmp_path, "heis.lie", heisenberg_payload())
    assert main(["analyze", path, "--set", "frobnicate"]) == 2


def test_analyze_levi_on_pair(tmp_path, capsys):
    path = write(tmp_path, "heis.orbitpair", heisenberg_pair_payload())
    code = main(["analyze", path, "--set", "levi"])
    out = capsys.readouterr().out
    assert code == 0
    assert "levi-kernel: 0" in out
    assert "nondegenerate" in out
    assert "levi-signature: (1, 0, 0)" in out


def test_analyze_orbit_file_full_pipeline(tmp_path, capsys):
    payload = orbit_payload(get_entry("heis_solv").model)
    payload["kahler"] = True
    payload["pi1"] = {"real": [0, []], "complex": [0, []], "surjective": True}
    path = write(tmp_path, "heis_solv.orbit", payload)
    code = main(["analyze", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    by_check = {(r.get("analysis"), r.get("check")): r for r in records}
    assert by_check[("fibration", "degenerate")]["status"] == "True"
    assert by_check[("globalize", "overall")]["status"].startswith("globalizable")
    assert by_check[("fine-class", "kahler-g-solvable")]["status"] == "pass"


@pytest.mark.parametrize("name", ROSTER)
def test_analyze_of_a_catalog_show_payload_reaches_the_catalog_verdict(name, tmp_path, capsys):
    # the payload carries the entry's pi1 and its true flags: kahler,
    # quadric_refibers (sl2_uz) and projective_plane_base (p2r)
    from crkit.globalize import verdict

    assert main(["catalog", "show", name, "--format", "json"]) == 0
    path = write(tmp_path, "entry.orbit", json.loads(capsys.readouterr().out))
    assert main(["analyze", path, "--format", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    analyzed = [(r["check"], r["status"]) for r in records if r["analysis"] == "globalize"]
    v = verdict(get_entry(name))
    catalog = v.rows() + [("note", note) for note in v.notes]
    assert analyzed == catalog


def test_analyze_orbit_file_builds_levi_form_once(tmp_path, capsys, monkeypatch):
    # the levi analysis and the fine classification share the pair's form
    import crkit.cr

    calls = []
    build = crkit.cr._levi_form
    monkeypatch.setattr(crkit.cr, "_levi_form", lambda pair: calls.append(1) or build(pair))
    path = write(tmp_path, "quadric.orbit", orbit_payload(quadric_orbit(2, 1).model))
    assert main(["analyze", path, "--format", "json"]) == 0
    assert "levi-signature" in capsys.readouterr().out
    assert len(calls) == 1


def test_analyze_large_prime_torsion_order(tmp_path, capsys):
    # torsion orders are never factored, so a large prime costs nothing
    payload = orbit_payload(get_entry("heis_solv").model)
    payload["pi1"] = {"real": [0, [1000000000000000003]], "complex": [0, []]}
    path = write(tmp_path, "big_torsion.orbit", payload)
    code = main(["analyze", path, "--set", "globalize"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition-c: weak-pass" in out


def test_pi1_torsion_list_is_capped(tmp_path, capsys):
    # the invariant factors are quadratic in the list length
    payload = orbit_payload(get_entry("heis_solv").model)
    payload["pi1"] = {"real": [0, [2] * 4000], "complex": [0, []]}
    path = write(tmp_path, "long_torsion.orbit", payload)
    assert main(["analyze", path, "--set", "globalize"]) == 2
    assert "torsion list" in capsys.readouterr().err
    payload["pi1"]["real"][1] = [2] * MAX_TORSION
    path = write(tmp_path, "longest_torsion.orbit", payload)
    assert main(["analyze", path, "--set", "globalize"]) == 0
    assert "condition-c: weak-pass" in capsys.readouterr().out


@pytest.mark.parametrize("real, message", [
    ([-1, []], "rank must be nonnegative"),
    ([0, [1]], "torsion orders must exceed 1"),
])
@pytest.mark.parametrize("selected", [[], ["--set", "structure,levi"]], ids=["all", "set"])
def test_malformed_pi1_exits_2_before_any_record(tmp_path, capsys, real, message, selected):
    # the loader checks pi1, so an analysis that never reads it refuses the file too
    with open(os.path.join(GOLDEN, "heis_solv_orbit.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["pi1"] = {"real": real, "complex": [0, []]}
    path = write(tmp_path, "bad_pi1.json", payload)
    assert main(["analyze", path, *selected]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_analyze_structured_output_deterministic(tmp_path, capsys):
    path = write(tmp_path, "heis.lie", heisenberg_payload())
    main(["analyze", path, "--format", "json"])
    first = capsys.readouterr().out
    main(["analyze", path, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_catalog_verify_single(capsys):
    code = main(["catalog", "verify", "quadric(2,1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all-match" in out


def test_catalog_verify_unknown_exits_2(capsys):
    assert main(["catalog", "verify", "nope(1,2)"]) == 2


def test_algebra_dimension_cap_exits_2(tmp_path, capsys):
    at_cap = {"dimension": MAX_DIMENSION, "field": "Q", "brackets": []}
    assert load_algebra(at_cap).dim == MAX_DIMENSION
    over = dict(at_cap, dimension=MAX_DIMENSION + 1)
    path = write(tmp_path, "too_big.lie", over)
    assert main(["analyze", path, "--set", "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dimension 129 exceeds the limit of 128")


@pytest.mark.parametrize("name", ["quadric(7,7)", "sp_quadric(5,4)", "twisted(9)"])
def test_catalog_parameter_cap_exits_2(capsys, name):
    # the first refused size of each family
    assert main(["catalog", "verify", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} is too large")
    assert "exceeds the limit of 168" in err


def test_catalog_show_p2r(capsys):
    code = main(["catalog", "show", "p2r"])
    out = capsys.readouterr().out
    assert code == 0
    assert "codim: match" in out
    assert "not-decidable-at-algebra-level" in out
    assert "SO3" in out


def test_catalog_show_json_export(capsys):
    code = main(["catalog", "show", "c2_torus", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "orbit"
    assert payload["verdict"].startswith("globalizable")
    # the export loads back
    model = load_orbit_model(payload)
    assert model.codim == 0


def test_catalog_show_needs_name(capsys):
    assert main(["catalog", "show"]) == 2


def test_explain_flag_appends_rationale(capsys):
    code = main(["catalog", "show", "p2r", "--explain"])
    out = capsys.readouterr().out
    assert code == 0
    assert "note:" in out


def test_malformed_pair_exits_2(tmp_path, capsys):
    payload = heisenberg_pair_payload()
    payload["h_basis"] = [["0", "0", "1"]]  # h not inside R
    path = write(tmp_path, "bad.pair", payload)
    assert main(["analyze", path]) == 2


def test_non_closed_real_rows_exit_2(tmp_path, capsys):
    payload = {
        "kind": "orbit",
        "ambient": algebra_payload(complexify_algebra(sl2())),
        # h, e and f + i h: generic, but [h, f + i h] = -2f leaves their span
        "real_basis": [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "1", "1", "0", "0"],
        ],
        "isotropy_hat_basis": [],
    }
    path = write(tmp_path, "non_closed.orbit", payload)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: real rows are not a subalgebra\n"


def test_dependent_real_rows_exit_2(tmp_path, capsys):
    payload = orbit_payload(get_entry("quadric(2,1)").model)
    rows = payload["real_basis"]
    dependent = dict(payload, real_basis=rows + [rows[0]])
    path = write(tmp_path, "dependent.orbit", dependent)
    assert main(["analyze", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: real basis rows are linearly dependent\n"
    # the rank is checked once every field has been parsed
    path = write(tmp_path, "dependent_named.orbit", dict(dependent, name=3))
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == "error: orbit name must be a string, got 3\n"


def test_orbit_loader_ignores_row_order_and_scale():
    # the loader passes the echelon rows of the file's real basis, so the
    # real algebra read off them does not depend on how the file lists them
    payload = orbit_payload(get_entry("quadric(2,2)").model)
    rows = [[str(Fraction(x) * (k + 2)) for x in row]
            for k, row in enumerate(reversed(payload["real_basis"]))]
    loaded = load_orbit_model(payload)
    moved = load_orbit_model(dict(payload, real_basis=rows))
    assert moved.real_vectors == loaded.real_vectors
    assert moved.real_algebra == loaded.real_algebra


def malformed_payloads():
    """(label, payload) probes that must exit 2 with a message."""
    algebra = heisenberg_payload()
    terms_not_list = dict(algebra, brackets=[[0, 1, 5]])
    string_target = dict(algebra, brackets=[[0, 1, [["2", "1"]]]])
    basis_number = dict(algebra, basis=3)
    bool_dimension = dict(algebra, dimension=True, basis=["x"], brackets=[])
    orbit = orbit_payload(get_entry("c2_torus").model)
    real_basis_number = dict(orbit, real_basis=4)
    iso_row_number = dict(orbit, isotropy_hat_basis=[7])
    pi1_rank_null = dict(orbit, pi1={"real": [None, []], "complex": [0, []]})
    # bool("false") is True: flags must be JSON booleans
    surjective_string = dict(
        orbit, pi1={"real": [0, []], "complex": [0, []], "surjective": "false"}
    )
    kahler_string = dict(orbit, kahler="false")
    return [
        ("terms-not-list", terms_not_list),
        ("string-target-index", string_target),
        ("basis-number", basis_number),
        ("real-basis-number", real_basis_number),
        ("isotropy-row-number", iso_row_number),
        ("dimension-true", bool_dimension),
        ("pi1-rank-null", pi1_rank_null),
        ("surjective-string", surjective_string),
        ("kahler-string", kahler_string),
        ("quadric-refibers-string", dict(orbit, quadric_refibers="true")),
        ("projective-plane-base-number", dict(orbit, projective_plane_base=1)),
    ]


@pytest.mark.parametrize("label,payload", malformed_payloads())
def test_malformed_payload_fails_closed(tmp_path, capsys, label, payload):
    path = write(tmp_path, label + ".json", payload)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def rejected_inputs():
    """(label, payload or None, argv, message): each input must exit 2 with one error line.

    argv takes the file written from the payload after "analyze"; argparse
    rejects an empty --set after its usage lines.
    """
    pair = heisenberg_pair_payload()
    orbit = orbit_payload(get_entry("c2_torus").model)
    return [
        ("array-payload", [], ["analyze"], "payload must be a JSON object"),
        ("complex-pair", dict(pair, field="Q_i"), ["analyze"],
         "CR pairs need a real (Q) algebra"),
        ("pair-J-missing-row", dict(pair, J=pair["J"][:2]), ["analyze"],
         "J must be a dim x dim matrix"),
        ("pair-J-short-row", dict(pair, J=[pair["J"][0][:2], *pair["J"][1:]]), ["analyze"],
         "J must be a dim x dim matrix"),
        ("real-ambient", dict(orbit, ambient=dict(orbit["ambient"], field="Q")), ["analyze"],
         "orbit ambient algebra must be complex (Q_i)"),
        ("empty-set", heisenberg_payload(), ["analyze", "--set", ","],
         "at least one analysis must be selected"),
        ("params-without-parentheses", None, ["catalog", "verify", "quadric2,1"],
         "bad parameters for quadric: '2,1'"),
        ("unclosed-parameters", None, ["catalog", "verify", "quadric(2,1"],
         "bad parameters for quadric: '(2,1'"),
    ]


@pytest.mark.parametrize("label,payload,argv,message", rejected_inputs())
def test_rejected_input_exits_2_with_one_error_line(tmp_path, capsys, label, payload, argv,
                                                    message):
    if payload is not None:
        argv = [argv[0], write(tmp_path, label + ".json", payload), *argv[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error: " in line]
    assert errors == [err.splitlines()[-1]] and message in errors[0]


def test_internal_error_exits_3(capsys, monkeypatch):
    # a Levi form with odd inertia counts cannot be J-invariant
    monkeypatch.setattr("crkit.cr.signature_of_symmetric", lambda rows: (1, 0, 0))
    assert main(["catalog", "verify", "quadric(2,1)"]) == 3
    assert capsys.readouterr().err == "internal error: J-invariant form with odd inertia counts\n"


LONG = 5000


def edge_files():
    """(label, file content, message part) probes past what the loader is meant for."""
    algebra = heisenberg_payload()
    orbit = orbit_payload(get_entry("c2_torus").model)

    def text(payload):
        return json.dumps(payload)

    return [
        # json itself recurses once per level
        ("nested-brackets", text(algebra).replace(
            '"brackets": [[0, 1, [[2, "1"]]]]', '"brackets": ' + "[" * LONG + "]" * LONG),
         "nested too deeply"),
        # an integer literal past int_max_str_digits fails inside json
        ("long-integer-literal",
         text(algebra).replace('[[2, "1"]]', "[[2" + "1" * LONG + ', "1"]]'), "bad JSON"),
        ("long-constant", text(dict(algebra, brackets=[[0, 1, [[2, "1" * LONG]]]])),
         f"({LONG + 2} characters)"),
        ("long-bad-constant", text(dict(algebra, brackets=[[0, 1, [[2, "1" * LONG + "x"]]]])),
         "bad rational literal"),
        ("long-bracket-entry", text(dict(algebra, brackets=[["x" * LONG]])),
         "bad bracket entry"),
        ("long-bracket-term", text(dict(algebra, brackets=[[0, 1, ["x" * LONG]]])),
         "bad bracket term"),
        ("long-basis", text(dict(algebra, basis="x" * LONG)), "basis must be a list"),
        ("long-kahler", text(dict(orbit, kahler="x" * LONG)), "kahler must be true or false"),
        ("long-pi1", text(dict(orbit, pi1={"real": ["x" * LONG, []], "complex": [0, []]})),
         "pi1 ranks"),
        ("long-dimension", text(dict(algebra, dimension=int("9" * 4000))),
         "(4000 characters) exceeds the limit"),
        ("not-utf-8", text(algebra).encode().replace(b'"x"', b'"\xff"'), "can't decode"),
    ]


@pytest.mark.parametrize("label,content,part", edge_files())
def test_oversized_input_exits_2_with_a_short_message(tmp_path, capsys, label, content, part):
    path = tmp_path / (label + ".json")
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    # one line, whatever the size of the input it quotes
    assert err.startswith("error: ") and err.count("\n") == 1
    assert part in err
    assert len(err) < 300 + len(str(path))


def test_exponent_constant_exits_2(tmp_path, capsys):
    # Fraction("1e5000") would read a 5,001-digit constant: the grammar has no exponent
    payload = dict(heisenberg_payload(), brackets=[[0, 1, [[2, "1e5000"]]]])
    assert main(["analyze", write(tmp_path, "exponent.json", payload)]) == 2
    assert capsys.readouterr().err == (
        "error: bad rational literal '1e5000': "
        "want -?[0-9]+(/[0-9]+)? with at most 4300 digits in each part\n"
    )


def test_oversized_catalog_parameter_exits_2(capsys):
    # the refused entry's ambient dimension has 6,000 digits
    assert main(["catalog", "verify", f"quadric({'9' * 3000},1)"]) == 2
    err = capsys.readouterr().err
    assert "is too large" in err and "(6000 characters) exceeds the limit of 168" in err
    assert len(err) < 400
