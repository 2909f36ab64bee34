"""Instance files, the CLI surface, golden reports, and DOT output."""

import hashlib
import json
import pathlib
import re

import pytest

import z2spec.grading as grading
import z2spec.rings as rings
from dotcheck import parse_dot
from z2spec.catalog import CATALOG, catalog_entry, catalog_ids
from z2spec.cli import main
from z2spec.dot import export_dot, render_dot
from z2spec.errors import EnumerationLimitError, InstanceParseError
from z2spec.grading import gaussian_integers
from z2spec.instances import (
    InstanceSpec,
    build_instance,
    parse_instance,
    recipe_size,
    serialize_instance,
)
from z2spec.maxfield import graded_max
from z2spec.rings import classify_ideal, ideal_from_members
from z2spec.verify import report_payload, report_to_json, report_to_text, run_verify

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


def write_instance(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_gaussian_sugar():
    spec = parse_instance('{"ring":{"kind":"gaussian","n":4}}')
    g = build_instance(spec)
    assert g is gaussian_integers(4)


def test_parse_quadratic():
    spec = parse_instance(
        '{"ring":{"kind":"quadratic","base":{"kind":"zmod","n":5},"alpha":1}}')
    g = build_instance(spec)
    assert g.ring.size == 25
    x = g.ring(5)
    assert (x * x).code == 1


def test_parse_negative_alpha_reduces_mod_n():
    from z2spec.grading import quadratic_extension
    from z2spec.rings import zmod
    spec = parse_instance(
        '{"ring":{"kind":"quadratic","base":{"kind":"zmod","n":4},"alpha":-1}}')
    assert build_instance(spec) is quadratic_extension(zmod(4), 3)


def test_parse_missing_parameter():
    with pytest.raises(InstanceParseError) as err:
        parse_instance('{"ring":{"kind":"zmod"}}')
    assert 'missing "n"' in str(err.value)
    assert err.value.path == "ring"


def test_parse_error_paths():
    cases = [
        ('{"ring":{"kind":"wat","n":3}}', "ring.kind"),
        ('{"ring":{"kind":[]}}', "ring.kind"),
        ('{"ring":{"kind":"product","a":{"kind":{}},"b":1}}', "ring.a.kind"),
        ('{"ring":{"kind":"zmod","n":1}}', "ring.n"),
        ('{"ring":{"kind":"trivial_extension","n":4,"orders":[3]}}',
         "ring.orders[0]"),
        ('{"ring":{"kind":"truncated_poly","base":{"kind":"zmod","n":2},"k":0}}',
         "ring.k"),
        ('{"ring":{"kind":"zmod","n":6,"junk":1}}', "ring"),
        ('{"ring":{"kind":"zmod","n":6},"limits":{"bound":"big"}}',
         "limits.bound"),
        ('{"ring":{"kind":"quadratic","base":{"kind":"gaussian","n":4},"alpha":1}}',
         "ring.base"),
    ]
    for text, path in cases:
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert err.value.path == path, text


def test_parse_rejects_invalid_json_and_shape():
    with pytest.raises(InstanceParseError):
        parse_instance("{nope")
    with pytest.raises(InstanceParseError):
        parse_instance("[1, 2]")
    with pytest.raises(InstanceParseError):
        parse_instance('{"rings": {}}')


def test_round_trip():
    for entry in CATALOG:
        spec = entry.spec()
        assert parse_instance(serialize_instance(spec)) == spec
    bounded = InstanceSpec({"kind": "zmod", "n": 6}, bound=32)
    assert parse_instance(serialize_instance(bounded)) == bounded


def test_catalog_specs_own_their_nested_recipes(monkeypatch):
    """product-4-f4 and quadratic-f4-i share one F4 recipe: editing a
    spec's nested recipe reaches neither the catalog nor the other entry."""
    before = json.dumps([entry.recipe for entry in CATALOG])
    other = catalog_entry("product-4-f4").spec()
    edited = catalog_entry("quadratic-f4-i").spec()
    monkeypatch.setitem(edited.recipe["base"], "modulus", [1, 0, 1])
    assert json.dumps([entry.recipe for entry in CATALOG]) == before
    assert catalog_entry("product-4-f4").spec() == other
    assert other.recipe["b"]["modulus"] == [1, 1, 1]


def test_graded_manual_recipe():
    spec = parse_instance(json.dumps({
        "ring": {"kind": "graded_manual",
                 "base": {"kind": "poly_quotient",
                          "base": {"kind": "zmod", "n": 4},
                          "modulus": [1, 0, 1], "symbol": "i"},
                 "r0": [0, 1, 2, 3], "r1": [0, 4, 8, 12]}}))
    g = build_instance(spec)
    assert g.r1 == frozenset({0, 4, 8, 12})


def test_build_respects_bound():
    spec = parse_instance(
        '{"ring":{"kind":"gaussian","n":4},"limits":{"bound":8}}')
    with pytest.raises(EnumerationLimitError):
        build_instance(spec)
    # explicit override wins over the instance limit
    assert build_instance(spec, bound=64).ring.size == 16


def test_product_and_zmod_wrap_trivially():
    spec = parse_instance(
        '{"ring":{"kind":"product","a":{"kind":"zmod","n":2},"b":{"kind":"zmod","n":3}}}')
    g = build_instance(spec)
    assert g.ring.size == 6 and g.r1 == frozenset({g.ring.zero})


# ---------------------------------------------------------------------------
# verification reports and goldens


def test_reports_are_deterministic():
    entry = catalog_entry("gaussian-5")
    first = report_to_json(run_verify(entry.spec()))
    second = report_to_json(run_verify(entry.spec()))
    assert first == second


@pytest.mark.parametrize("instance_id", catalog_ids())
def test_reports_match_goldens(instance_id):
    entry = catalog_entry(instance_id)
    produced = report_to_json(run_verify(entry.spec()))
    golden = (GOLDEN_DIR / f"{instance_id}.json").read_text()
    assert produced == golden


def test_golden_dir_holds_one_report_per_catalog_entry():
    assert (sorted(path.name for path in GOLDEN_DIR.iterdir())
            == sorted(f"{instance_id}.json" for instance_id in catalog_ids()))


def test_crt_twin_of_gaussian_6_has_its_counts():
    twin = run_verify(catalog_entry("quadratic-2x3-i").spec())
    z6i = run_verify(InstanceSpec({"kind": "gaussian", "n": 6}))
    assert twin.status == z6i.status == "pass"
    assert twin.counts == z6i.counts


def test_verify_reports_resource_limit_as_status():
    spec = InstanceSpec({"kind": "gaussian", "n": 10}, bound=16)
    report = run_verify(spec)
    assert report.status == "resource-limit"
    assert report.checks[0].name == "build"
    assert all(value is None for value in report.counts.values())


# ---------------------------------------------------------------------------
# CLI


def test_cli_build(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "gaussian", "n": 4}})
    assert main(["build", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 16 and payload["strongly_graded"] is True


def test_cli_verify_pass_and_json(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "gaussian", "n": 4}})
    assert main(["verify", path, "--suite", "homeo", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    assert all(c["name"].startswith("homeo.") for c in payload["checks"])


def test_cli_verify_all_suites_text(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "trivial_extension",
                                              "n": 2, "orders": [2]}})
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_instance(tmp_path, {"ring": {"kind": "zmod"}}, "bad.json")
    assert main(["build", bad]) == 2
    assert main(["build", str(tmp_path / "missing.json")]) == 2
    big = write_instance(tmp_path, {"ring": {"kind": "gaussian", "n": 10},
                                    "limits": {"bound": 9}}, "big.json")
    assert main(["build", big]) == 3
    assert main(["verify", big]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["build", "verify", "spec", "export-dot"])
@pytest.mark.parametrize("bound", ["0", "-5"])
def test_cli_rejects_a_bound_below_one(tmp_path, capsys, command, bound):
    # an input error (exit 2), as limits.bound below 1 is, not a resource limit
    path = write_instance(tmp_path, {"ring": {"kind": "zmod", "n": 6}})
    with pytest.raises(SystemExit) as exited:
        main([command, path, "--bound", bound])
    assert exited.value.code == 2
    assert f"must be >= 1, got {bound}" in capsys.readouterr().err


def test_cli_build_rejects_invalid_grading(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "ring": {"kind": "graded_manual", "base": {"kind": "zmod", "n": 6},
                 "r0": [0, 2, 4], "r1": [0, 3]}})
    assert main(["build", path]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_build_rejects_nonmonic_modulus(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "ring": {"kind": "poly_quotient", "base": {"kind": "zmod", "n": 4},
                 "modulus": [1, 2]}})
    assert main(["build", path]) == 2
    assert "monic" in capsys.readouterr().err


def test_cli_verify_exits_1_when_a_check_fails(tmp_path, capsys, monkeypatch):
    import z2spec.cli as cli_mod
    from z2spec.verify import CheckRecord, VerificationReport

    def failing(spec, suites, bound):
        record = CheckRecord("norm.multiplicative", "fail", "synthetic", 0.0)
        return VerificationReport({"recipe": spec.recipe}, {}, ("norm",),
                                  [record], "fail")

    monkeypatch.setattr(cli_mod, "run_verify", failing)
    path = write_instance(tmp_path, {"ring": {"kind": "zmod", "n": 4}})
    assert main(["verify", path]) == 1
    assert "synthetic" in capsys.readouterr().out


def test_normalize_suites():
    from z2spec.verify import SUITE_NAMES, normalize_suites
    assert normalize_suites(None) == SUITE_NAMES
    assert normalize_suites(["all", "norm"]) == SUITE_NAMES
    assert normalize_suites(["norm", "homeo"]) == ("homeo", "norm")
    with pytest.raises(ValueError):
        normalize_suites(["norm", "wat"])


def test_cli_spec_listing(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "gaussian", "n": 10}})
    assert main(["spec", path, "--graded", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graded"] and len(payload["points"]) == 2
    assert main(["spec", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert not payload["graded"] and len(payload["points"]) == 3
    with pytest.raises(SystemExit) as exc:  # one path: the contraction's spectrum
        main(["spec", path, "--graded", "--method", "constructive"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_graded_spec_payload_has_no_method_key(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "gaussian", "n": 4}})
    assert main(["spec", path, "--graded", "--format", "json"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == ["graded", "points"]


F2X8 = {"ring": {"kind": "trivial_extension", "n": 2, "orders": [2] * 8},
        "limits": {"bound": 512}}


def test_cli_spectra_build_no_lattice(tmp_path, capsys, monkeypatch):
    """``spec``, ``spec --graded`` and ``export-dot`` need only Spec R and
    Spec R0, which come from the idempotents, and so do the maximal flag of
    ``classify_ideal`` and the constructive ``graded_max``: no lattice is
    built, and no ring caches a list of its ideals."""
    g = build_instance(InstanceSpec(F2X8["ring"], 512))
    owners = (g, g.ring, g.r0_ring)
    built = []

    def cold():
        for owner in owners:
            monkeypatch.setattr(owner, "_cache", {})

    def lattice_free():
        return built == [] and all("ideals" not in owner._cache for owner in owners)
    cold()
    lattice = rings._subgroup_lattice

    def spy_lattice(*args, **kwargs):
        built.append(args[0])
        return lattice(*args, **kwargs)
    monkeypatch.setattr(rings, "_subgroup_lattice", spy_lattice)
    monkeypatch.setattr(grading, "_subgroup_lattice", spy_lattice)
    path = write_instance(tmp_path, F2X8)
    assert main(["spec", path]) == 0
    assert main(["spec", path, "--graded"]) == 0
    assert main(["export-dot", path]) == 0
    capsys.readouterr()
    assert lattice_free()
    assert all("spec" in ring._cache for ring in (g.ring, g.r0_ring))
    cold()
    zero = ideal_from_members(g.ring, [g.ring.zero])
    assert not classify_ideal(g.ring, zero, 512).is_maximal
    assert lattice_free()
    cold()
    assert len(graded_max(g, "constructive", 512)) == 1
    assert lattice_free()


def test_cli_spec_of_a_512_element_ring(tmp_path, capsys):
    # Z/2 (+) F2^8 has 417,200 ideals and one prime, 0 (+) F2^8, whose
    # breadth-first label is its eight unit vectors
    path = write_instance(tmp_path, F2X8)
    assert main(["spec", path]) == 0
    units = [",".join("1" if k == j else "0" for k in range(8)) for j in range(8)]
    assert capsys.readouterr().out.splitlines() == [
        "spectrum of trivial_extension(Z/2; " + "(+)".join(["Z/2"] * 8)
        + "): 1 point(s)",
        "  (" + ", ".join(f"(0,({u}))" for u in units) + ")",
    ]


def test_cli_spec_over_a_product_base(tmp_path, capsys):
    z2_x_z3 = {"kind": "product", "a": {"kind": "zmod", "n": 2},
               "b": {"kind": "zmod", "n": 3}}
    path = write_instance(tmp_path, {"ring": {
        "kind": "poly_quotient", "base": z2_x_z3, "modulus": [0, 0, 4]}})
    assert main(["spec", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["  ((1,0)+(0,1)x)", "  ((0,1)+(1,0)x)"]


def test_cli_spec_and_dot_honour_instance_bound(tmp_path, capsys):
    path = write_instance(tmp_path, {
        "ring": {"kind": "trivial_extension", "n": 17, "orders": [17]},
        "limits": {"bound": 512}})
    assert main(["spec", path]) == 0
    assert main(["spec", path, "--graded"]) == 0
    assert main(["export-dot", path]) == 0
    assert main(["spec", path, "--bound", "256"]) == 3
    capsys.readouterr()
    assert "digraph" in export_dot(parse_instance(
        '{"ring": {"kind": "gaussian", "n": 17}, "limits": {"bound": 512}}'))


def test_cli_reports_a_huge_instance_as_a_resource_limit(tmp_path, capsys):
    # 3^10000 has more digits than int() will print
    path = write_instance(tmp_path, {"ring": {
        "kind": "truncated_poly", "base": {"kind": "zmod", "n": 3}, "k": 10000}})
    assert main(["verify", path]) == 3
    assert "[resource-limit] build" in capsys.readouterr().out
    assert main(["build", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "construction: size exceeds enumeration bound" in err


def test_build_limit_names_the_size_of_an_ordinary_oversized_instance():
    spec = parse_instance('{"ring": {"kind": "gaussian", "n": 17}}')
    with pytest.raises(EnumerationLimitError, match="size 289 exceeds enumeration bound 256"):
        build_instance(spec, bound=256)


@pytest.mark.parametrize("recipe", [
    {"kind": "truncated_poly", "base": {"kind": "zmod", "n": 3}, "k": 10**7},
    {"kind": "product", "a": {"kind": "zmod", "n": 10**4000},
     "b": {"kind": "zmod", "n": 10**4000}},
    {"kind": "trivial_extension", "n": 2, "orders": [2] * 100_000},
])
def test_recipe_size_stops_once_past_the_cap(recipe):
    assert recipe_size(recipe, 256) is None


def test_recipe_size_is_exact_up_to_the_cap():
    recipe = {"kind": "quadratic", "base": {"kind": "zmod", "n": 4}, "alpha": 3}
    assert [recipe_size(recipe, cap) for cap in (1000, 16, 15)] == [16, 16, None]


def test_cli_rejects_an_integer_literal_too_long_to_parse(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text('{"ring": {"kind": "zmod", "n": %s}}' % ("9" * 5000))
    with pytest.raises(InstanceParseError):
        parse_instance(path.read_text())
    assert main(["build", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_json_nested_past_the_decoder_limit(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text('{"ring": %s%s}' % ("[" * 100_000, "]" * 100_000))
    assert main(["build", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid JSON: nested too deeply\n"


def test_cli_timings_flag_breaks_byte_identity_only_when_asked(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "zmod", "n": 4}})
    assert main(["verify", path, "--suite", "norm", "--format", "json",
                 "--timings"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all("elapsed" in c for c in payload["checks"])


def test_lattice_time_is_reported_in_text_and_under_timings(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "zmod", "n": 4}})
    assert main(["verify", path, "--suite", "norm"]) == 0
    assert re.search(r"^lattices built in \d+\.\d{3}s$", capsys.readouterr().out, re.M)
    assert main(["verify", path, "--suite", "norm", "--format", "json", "--timings"]) == 0
    assert json.loads(capsys.readouterr().out)["lattice_elapsed"] >= 0
    assert main(["verify", path, "--suite", "norm", "--format", "json"]) == 0
    assert "lattice_elapsed" not in json.loads(capsys.readouterr().out)


def test_no_lattice_time_when_the_build_hits_the_bound():
    report = run_verify(InstanceSpec({"kind": "gaussian", "n": 10}, bound=16))
    assert report.status == "resource-limit" and report.lattice_elapsed is None
    assert "lattices built" not in report_to_text(report)
    assert report_payload(report, include_timings=True)["lattice_elapsed"] is None


F4 = {"kind": "poly_quotient", "base": {"kind": "zmod", "n": 2}, "modulus": [1, 1, 1]}


def test_cli_names_the_variable_after_a_free_letter(tmp_path, capsys):
    # F4 names its elements with x, so F4[X]/(X^2 - 1) gets y, and the
    # prime (1+y) names one element only
    path = write_instance(tmp_path, {"ring": {"kind": "quadratic", "base": F4, "alpha": 1}})
    assert main(["spec", path]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["  (1+y)"]
    clash = write_instance(tmp_path, {"ring": {"kind": "quadratic", "base": F4, "alpha": 1,
                                               "symbol": "x"}}, "clash.json")
    assert main(["spec", clash]) == 2
    assert "symbol 'x' occurs in an element name" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "verify"])
def test_cli_reports_a_file_that_is_not_utf8_as_an_input_error(tmp_path, capsys, command):
    # a UTF-16 byte order mark: once a UnicodeDecodeError traceback and exit 1
    path = tmp_path / "instance.json"
    path.write_bytes(b"\xff\xfe" + '{"ring": {"kind": "zmod", "n": 4}}'.encode("utf-16-le"))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not UTF-8 text: invalid start byte at byte 0\n"


@pytest.mark.parametrize("recipe", [
    {"kind": "poly_quotient", "base": {"kind": "zmod", "n": 2}, "modulus": [1, 1, 1]},
    {"kind": "quadratic", "base": {"kind": "zmod", "n": 2}, "alpha": 1},
], ids=["poly_quotient", "quadratic"])
def test_cli_rejects_an_empty_symbol(tmp_path, capsys, recipe):
    path = write_instance(tmp_path, {"ring": {**recipe, "symbol": ""}})
    assert main(["build", path]) == 2
    assert capsys.readouterr().err == "error: symbol must be a non-empty string\n"


# ---------------------------------------------------------------------------
# DOT output


def test_dot_zmod6_shape(tmp_path, capsys):
    path = write_instance(tmp_path, {"ring": {"kind": "zmod", "n": 6}})
    assert main(["export-dot", path]) == 0
    text = capsys.readouterr().out
    nodes, edges = parse_dot(text)
    assert nodes == {"g0", "g1", "b0", "b1"}
    assert len(edges) == 2  # two pairing edges, no inclusion edges
    assert all(s.startswith("g") and t.startswith("b") for s, t in edges)


def test_dot_gaussian4_shape():
    text = render_dot(gaussian_integers(4))
    nodes, edges = parse_dot(text)
    assert nodes == {"g0", "b0"}
    assert edges == [("g0", "b0")]


def test_dot_needs_only_the_even_part_within_the_bound():
    g = gaussian_integers(4)  # |R0| = 4, |R| = 16
    assert render_dot(g, 8) == render_dot(g)


def test_dot_quadratic_alpha2():
    spec = parse_instance(
        '{"ring":{"kind":"quadratic","base":{"kind":"zmod","n":5},"alpha":2}}')
    nodes, edges = parse_dot(export_dot(spec))
    assert nodes == {"g0", "b0"} and len(edges) == 1


@pytest.mark.parametrize("instance_id", catalog_ids())
def test_dot_parses_for_whole_catalog(instance_id):
    text = render_dot(catalog_entry(instance_id).build())
    nodes, edges = parse_dot(text)
    assert nodes and len(edges) >= 1


# sha256 of the stdout of each command over the 42 catalog entries, in
# catalog order: a label that drifts changes the digest of its command
PRINTED_SPECTRA_SHA256 = {
    ("spec",): "b443b7c4d01627421ac9fbf2e5f70c3e8e7a4655b846755c583a72c0ee32037e",
    ("spec", "--graded"): "ba94689337866de8a2be6e3dcd7e55f5173d720706bb51e027f751b8d281b3ba",
    ("export-dot",): "68f3fbbb30fca67d8e8722d84e24b258e99120f1fdbe55daf7554a10813a32a9",
}


@pytest.mark.parametrize("command", sorted(PRINTED_SPECTRA_SHA256), ids=" ".join)
def test_printed_spectra_of_the_catalog_are_pinned(tmp_path, capsys, command):
    digest = hashlib.sha256()
    for entry in CATALOG:
        path = tmp_path / f"{entry.instance_id}.json"
        path.write_text(serialize_instance(entry.spec()))
        assert main([*command, str(path)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PRINTED_SPECTRA_SHA256[command]
