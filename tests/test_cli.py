"""CLI: configs, reports, determinism, exit codes, file input."""

import json

import pytest

from walg import cli, liealg, whittaker
from walg.cli import CHECK_NAMES, JobConfig, main, render_report, run
from walg.errors import ConfigError, TheoremFailure


def strip_timing(report):
    out = dict(report)
    out.pop("timing", None)
    return out


def test_run_sl2_theorem():
    config = JobConfig(algebra="sl2", nilpotent="regular", ell="zero",
                       max_degree=16, checks=["theorem"])
    report = run(config)
    assert report["status"] == "pass"
    dims = report["checks"][0]["details"]["gr_dims"]
    assert dims == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_run_sl3_full_sweep():
    config = JobConfig(algebra="sl3", nilpotent="minimal", ell="lagrangian-auto",
                       max_degree=6,
                       checks=["theorem", "poisson", "cohomology", "whittaker",
                               "center"])
    report = run(config)
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert names == ["theorem", "poisson", "cohomology", "whittaker", "center"]
    json.dumps(report)  # the whole report must be JSON-serializable


def test_run_ell_independence_from_zero():
    config = JobConfig(algebra="sl3", nilpotent="minimal", ell="zero",
                       max_degree=6, checks=["ell-independence"])
    report = run(config)
    assert report["status"] == "pass"


def test_report_determinism():
    config = JobConfig(algebra="sl2", nilpotent="regular", ell="zero",
                       max_degree=8, checks=["structure", "theorem"])
    r1 = json.dumps(strip_timing(run(config)), sort_keys=False)
    r2 = json.dumps(strip_timing(run(config)), sort_keys=False)
    assert r1 == r2


def test_unknown_check_rejected():
    config = JobConfig(algebra="sl2", checks=["nope"])
    with pytest.raises(ConfigError):
        run(config)


@pytest.mark.parametrize("checks", ["theorem,theorem", "theorem:4,theorem:6"])
def test_repeated_check_exits_2(capsys, checks):
    """A check named twice would be listed twice in the report, or have one
    degree override silently dropped: bad input."""
    assert main(["run", "--algebra", "sl2", "--nilpotent", "regular",
                 "--checks", checks, "--quiet"]) == 2
    assert capsys.readouterr().err == \
        "error: check 'theorem' is given more than once\n"


@pytest.mark.parametrize("checks", ["", ","])
def test_empty_check_list_exits_2(monkeypatch, capsys, checks):
    """A job that requests no check would verify nothing and still pass:
    bad input, refused before any context is built."""
    def forbidden(*args):
        raise AssertionError("a context was built for an empty check list")

    monkeypatch.setattr(cli, "build_context", forbidden)
    assert main(["run", "--algebra", "sl2", "--nilpotent", "regular",
                 "--checks", checks, "--quiet"]) == 2
    assert capsys.readouterr().err == "error: no checks requested\n"
    with pytest.raises(ConfigError, match="no checks requested"):
        run(JobConfig(algebra="sl2", nilpotent="regular", checks=[]))


def test_negative_degree_rejected():
    config = JobConfig(algebra="sl2", nilpotent="regular", max_degree=-1)
    with pytest.raises(ConfigError):
        run(config)


def test_lagrangian_checks_need_lagrangian():
    config = JobConfig(algebra="sl3", nilpotent="minimal", ell="zero",
                       max_degree=4, checks=["whittaker"])
    with pytest.raises(ConfigError):
        run(config)


def test_partition_nilpotent():
    config = JobConfig(algebra="sl4", nilpotent="[2,1,1]", ell="zero",
                       max_degree=2, checks=["structure", "decomposition"])
    report = run(config)
    assert report["status"] == "pass"
    assert report["case"]["dim"] == 15


def test_explicit_vector_nilpotent_and_ell():
    # E13 is index 1 in the sl3 basis order; E21 is index 5
    e = ",".join("1" if i == 1 else "0" for i in range(8))
    ell = ",".join("1" if i == 5 else "0" for i in range(8))
    config = JobConfig(algebra="sl3", nilpotent=e, ell=ell,
                       max_degree=4, checks=["decomposition", "whittaker"])
    report = run(config)
    assert report["status"] == "pass"
    assert report["case"]["lagrangian"] is True


def test_vector_nilpotent_triple_validated_once(monkeypatch):
    """The Jacobson-Morozov triple of a vector nilpotent is validated once,
    when it is completed, and not again when the context is built."""
    from walg import liealg

    calls = []
    init = liealg.Sl2Triple.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(liealg.Sl2Triple, "__init__", counted)
    case = cli.Case(JobConfig(algebra="sl4",
                              nilpotent="1,0,2,0,-4,1,2,0,0,-4,0,0,0,0,0",
                              ell="lagrangian-auto"))
    assert len(calls) == 1 and case.nilpotent_name == "vector"


def test_main_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = main(["run", "--algebra", "sl2", "--nilpotent", "regular",
                 "--max-degree", "8", "--checks", "theorem",
                 "--out", str(out), "--quiet"])
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["status"] == "pass"
    assert main(["run", "--algebra", "nope", "--nilpotent", "regular"]) == 2
    assert main(["run", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--ell", "zero", "--checks", "poisson"]) == 2


SL2_BRACKETS = [
    {"i": 0, "j": 1, "value": [[0, "-2"]]},
    {"i": 0, "j": 2, "value": [[1, "1"]]},
    {"i": 1, "j": 2, "value": [[2, "-2"]]},
]


def sl2_doc(brackets):
    return json.dumps({"labels": ["e", "h", "f"], "brackets": brackets})


# Out-of-range, non-integer and repeated indices crashed with an internal
# error or were silently read as some other algebra.
@pytest.mark.parametrize("content", [
    '{"labels": ["e", "h", "f"], "brackets": [',
    '[["e", "h", "f"]]',
    '{"brackets": []}',
    None,
    sl2_doc([{"i": 0, "j": 1, "value": [[7, "-2"]]}] + SL2_BRACKETS[1:]),
    sl2_doc(SL2_BRACKETS[:2] + [{"i": 1, "j": 2, "value": [[2, "-2"], [7, "0"]]}]),
    sl2_doc(SL2_BRACKETS[:2] + [{"i": 1, "j": 2, "value": [[-1, "-2"]]}]),
    sl2_doc([{"i": 0.9, "j": 1, "value": [[0, "-2"]]}] + SL2_BRACKETS[1:]),
    sl2_doc(SL2_BRACKETS[:1] + [{"i": 0, "j": 2.5, "value": [[1, "1"]]}]
            + SL2_BRACKETS[2:]),
    sl2_doc(SL2_BRACKETS[:2] + [{"i": 1, "j": 2, "value": [[2.2, "-2"]]}]),
    sl2_doc([{"i": 0, "j": 1, "value": [[0, "5"]]}] + SL2_BRACKETS),
    sl2_doc(SL2_BRACKETS[:2] + [{"i": 1, "j": 2, "value": [[2, "1"], [2, "-2"]]}]),
], ids=["truncated", "not-object", "no-labels", "directory",
        "index-too-large", "index-too-large-zero", "index-negative", "float-i",
        "float-j", "float-coordinate", "repeated-bracket", "repeated-coordinate"])
def test_main_bad_algebra_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "alg.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert main(["run", "--algebra", str(path), "--nilpotent", "1,0,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["regular", "minimal", "[2]"])
def test_named_nilpotent_on_file_algebra_exits_2(tmp_path, capsys, name):
    """Orbit names are sl_n partitions; a file algebra takes coordinates."""
    path = tmp_path / "sl2.json"
    path.write_text(sl2_doc(SL2_BRACKETS))
    assert main(["run", "--algebra", str(path), "--nilpotent", name]) == 2
    assert capsys.readouterr().err == (
        f"error: nilpotent '{name}' needs a builtin slN algebra; "
        "a file algebra takes comma-separated coordinates\n")


def test_cohomology_with_non_abelian_n_ell(tmp_path):
    """On sl4 [2,1,1] with ell = 0, n_ell has nonzero brackets, so the
    complex carries the dxi^s term that no pinned job reaches."""
    out = tmp_path / "r.json"
    assert main(["run", "--algebra", "sl4", "--nilpotent", "[2,1,1]",
                 "--ell", "zero", "--max-degree", "5", "--checks", "cohomology",
                 "--out", str(out), "--quiet"]) == 0
    (entry,) = json.loads(out.read_text())["checks"]
    dims = [1, 0, 4, 4, 11, 16]
    assert entry["details"] == {"h0_dims": dims, "h1_dims": [0] * 6,
                                "slice_dims": dims, "gr_h_dims": dims}


def test_main_describe(capsys):
    assert main(["describe", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--ell", "lagrangian-auto"]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["slice_degrees"] == [2, 3, 3, 4]
    assert desc["lagrangian"] is True


@pytest.mark.parametrize("command", ["run", "describe"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, command):
    """An --out path that cannot be written is bad input, not a bug."""
    path = tmp_path / "missing" / "report.json"
    args = [command, "--algebra", "sl2", "--nilpotent", "regular",
            "--out", str(path)]
    assert main(args + (["--quiet"] if command == "run" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report '{path}': ")
    assert not path.parent.exists()


def test_membership_and_comparison_checks_build_no_representatives(
        monkeypatch):
    """`cohomology`, `center` and `ell-independence` work on the monomial
    basis of each H: none of them builds the canonical representatives."""
    def forbidden(self):
        raise AssertionError("the canonical representatives were built")

    monkeypatch.setattr(whittaker.HBasis, "_canonical_view", forbidden)
    report = run(JobConfig(algebra="sl3", nilpotent="minimal",
                           ell="lagrangian-auto", max_degree=6,
                           checks=["cohomology", "center",
                                   "ell-independence"]))
    assert report["status"] == "pass"


@pytest.mark.parametrize("command", ["run", "describe"])
def test_unwritable_out_path_fails_before_any_work(monkeypatch, capsys,
                                                   command):
    """The --out path is checked before the case is built: no context, no
    H basis, and the message `_write_json` gives for that path."""
    def forbidden(*args):
        raise AssertionError("the job ran before the --out check")

    monkeypatch.setattr(cli, "h_basis", forbidden)
    monkeypatch.setattr(cli, "build_context", forbidden)
    path = "/nonexistent/x.json"
    args = [command, "--algebra", "sl3", "--nilpotent", "minimal",
            "--out", path]
    if command == "run":
        args += ["--checks", "theorem", "--quiet"]
    assert main(args) == 2
    with pytest.raises(ConfigError) as late:
        cli._write_json(path, {})
    assert capsys.readouterr().err == f"error: {late.value}\n"


def test_out_path_check_neither_creates_nor_truncates(tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("old")
    cli._check_writable(str(kept))
    cli._check_writable(str(tmp_path / "new.json"))
    assert kept.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]
    for bad in (tmp_path, kept / "x.json", f"{tmp_path / 'new'}/",
                tmp_path / "missing" / "x.json"):
        with pytest.raises(ConfigError) as early:
            cli._check_writable(str(bad))
        with pytest.raises(ConfigError) as late:
            cli._write_json(str(bad), {})
        assert str(early.value) == str(late.value)


def test_main_describe_negative_degree_exits_2(capsys):
    """describe validates its config as run does: bad input, not a bug."""
    assert main(["describe", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max-degree must be >= 0\n"


def test_algebra_file_input(tmp_path):
    doc = {
        "labels": ["e", "h", "f"],
        "brackets": [
            {"i": 0, "j": 1, "value": [[0, "-2"]]},
            {"i": 0, "j": 2, "value": [[1, "1"]]},
            {"i": 1, "j": 2, "value": [[2, "-2"]]},
        ],
        "nilpotent": ["1", "0", "0"],
        "ell": [],
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--algebra", str(path), "--ell", "file",
                 "--max-degree", "8", "--checks", "theorem,whittaker",
                 "--quiet"])
    assert code == 0


def test_render_report_mentions_checks():
    config = JobConfig(algebra="sl2", nilpotent="regular", ell="zero",
                       max_degree=4, checks=["structure", "center"])
    text = render_report(run(config))
    assert "structure" in text and "center" in text
    assert "overall: PASS" in text


def test_failing_report_renders_witness():
    report = {
        "config": {"algebra": "sl2", "nilpotent": "regular", "ell": "zero",
                   "max_degree": 4, "checks": ["theorem"]},
        "case": {"dim": 3, "dim_a": 1, "dim_n_ell": 1, "dim_ker_ad_f": 1,
                 "grading_dims": {}, "slice_degrees": [4],
                 "slice_hilbert": [1, 0, 0, 0, 1]},
        "checks": [{"name": "theorem", "status": "fail",
                    "details": {"error": "TheoremFailure"},
                    "witness": {"degree": 4}}],
        "status": "fail",
        "timing": {"total": 0.0},
    }
    text = render_report(report)
    assert "FAIL" in text and "witness" in text


def test_check_registry_is_complete():
    assert set(CHECK_NAMES) == {"structure", "decomposition", "theorem",
                                "poisson", "cohomology", "whittaker", "center",
                                "ell-independence"}


def test_degree_overrides():
    names, overrides = JobConfig.parse_checks("theorem,whittaker:4,center:4")
    assert names == ["theorem", "whittaker", "center"]
    assert overrides == {"whittaker": 4, "center": 4}
    config = JobConfig(algebra="sl3", nilpotent="minimal", ell="lagrangian-auto",
                       max_degree=6, checks=names, degree_overrides=overrides)
    report = run(config)
    assert report["status"] == "pass"
    assert report["config"]["degree_overrides"] == {"center": 4, "whittaker": 4}
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["whittaker"]["details"]["max_degree"] == 4
    assert len(by_name["theorem"]["details"]["gr_dims"]) == 7


def test_degree_override_above_ceiling_rejected():
    config = JobConfig(algebra="sl2", nilpotent="regular", max_degree=4,
                       checks=["theorem"], degree_overrides={"theorem": 8})
    with pytest.raises(ConfigError):
        run(config)


def _raise_assertion(case):
    raise AssertionError("solve produced an invalid solution")


def test_internal_error_becomes_report_entry(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.CHECKS, "structure", _raise_assertion)
    out = tmp_path / "r.json"
    code = main(["run", "--algebra", "sl2", "--nilpotent", "regular",
                 "--max-degree", "4", "--checks", "structure,theorem",
                 "--out", str(out), "--quiet"])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    entry, theorem = report["checks"]
    assert entry["name"] == "structure" and entry["status"] == "fail"
    details = entry["details"]
    assert details["error"] == "internal"
    assert details["type"] == "AssertionError"
    assert details["message"] == "solve produced an invalid solution"
    assert details["traceback"][-1].endswith("in _raise_assertion")
    # the remaining checks still run
    assert theorem["name"] == "theorem" and theorem["status"] == "pass"


def test_walg_error_in_check_still_exits_1(monkeypatch):
    def fail(case):
        raise TheoremFailure("nu not injective", degree=2)

    monkeypatch.setitem(cli.CHECKS, "theorem", fail)
    assert main(["run", "--algebra", "sl2", "--nilpotent", "regular",
                 "--max-degree", "4", "--checks", "theorem", "--quiet"]) == 1


def test_internal_error_outside_checks_exits_3(monkeypatch, capsys):
    def broken_case(config):
        raise IndexError("list index out of range\nsecond line")

    monkeypatch.setattr(cli, "Case", broken_case)
    assert main(["run", "--algebra", "sl2", "--nilpotent", "regular",
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err == "error: internal: IndexError: list index out of range " \
                  "second line\n"


def whittaker_entry(tmp_path, monkeypatch, faulty):
    """The `whittaker` report entry of sl3 minimal, Lagrangian, degree 5,
    with `whittaker_vectors` replaced by faulty(qb, true vectors)."""
    true_whittaker_vectors = whittaker.whittaker_vectors
    monkeypatch.setattr(whittaker, "whittaker_vectors",
                        lambda qb: faulty(qb, true_whittaker_vectors(qb)))
    out = tmp_path / "r.json"
    code = main(["run", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--ell", "lagrangian-auto", "--max-degree", "5",
                 "--checks", "whittaker", "--out", str(out), "--quiet"])
    assert code == 1
    (entry,) = json.loads(out.read_text())["checks"]
    assert entry["status"] == "fail"
    return entry


def test_whittaker_failure_witness_is_first_failing_degree(tmp_path,
                                                           monkeypatch):
    wrong_from = 3

    def extra_from_k(qb, vectors):
        """Wh(F_n Q) correct below degree k, all of F_n Q from k up: a unit
        vector at every column of degree >= k that has no vector."""
        return {f: vectors.get(f, {f: 1}) for f in range(len(qb.monomials))
                if f in vectors or f >= qb.dim_f(wrong_from - 1)}

    entry = whittaker_entry(tmp_path, monkeypatch, extra_from_k)
    assert entry["witness"] == {"degree": wrong_from}


def test_whittaker_vector_outside_h_is_the_witness(tmp_path, monkeypatch):
    """Negative control: as many vectors as dim F_n H in every degree, but
    one of degree 3 is replaced by the unit vector at its free column.  The
    other vectors vanish at that column, so the unit vector lies in
    Wh(F_3 Q) = F_3 H only if it is the vector it replaced; it is not."""
    bad = 3

    def one_moved(qb, vectors):
        f = next(f for f, v in vectors.items()
                 if f >= qb.dim_f(bad - 1) and len(v) > 1)
        assert f < qb.dim_f(bad)
        return {**vectors, f: {f: 1}}

    entry = whittaker_entry(tmp_path, monkeypatch, one_moved)
    assert entry["witness"] == {"degree": bad}


def test_ell_independence_failure_witness_is_first_failing_degree(monkeypatch):
    true_transport = whittaker.q_transport

    def drop_degree_2(elements, sctx1, sctx2):
        """The transport with every degree-2 representative sent to 0."""
        return [sctx2.basis.zero() if u.kazhdan_degree() == 2 else img
                for u, img in zip(elements, true_transport(elements, sctx1, sctx2))]

    monkeypatch.setattr(whittaker, "q_transport", drop_degree_2)
    config = JobConfig(algebra="sl3", nilpotent="minimal", ell="lagrangian-auto",
                       max_degree=4, checks=["ell-independence"])
    (entry,) = run(config)["checks"]
    assert entry["status"] == "fail"
    assert entry["witness"] == {"degree": 2}
    assert main(["run", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--ell", "lagrangian-auto", "--max-degree", "4",
                 "--checks", "ell-independence", "--quiet"]) == 1


def test_decomposition_failure_witness_is_the_dimensions(monkeypatch):
    """Negative control: with every rank in `decomposition_check` one short,
    [n_ell, e] + Ker ad f misses a^perp.  The entry's witness is the
    dimensions the check read, without the "ok" of a passing entry."""
    true_rank = liealg.rank_of_rows
    monkeypatch.setattr(liealg, "rank_of_rows",
                        lambda rows, ncols: true_rank(rows, ncols) - 1)
    config = JobConfig(algebra="sl3", nilpotent="minimal", max_degree=2,
                       checks=["decomposition"])
    (entry,) = run(config)["checks"]
    assert entry == {
        "name": "decomposition", "status": "fail",
        "details": {"error": "DecompositionFailure",
                    "message": "[n_ell,e] + Ker ad f != a^perp"},
        "witness": {"dim_a_perp": 7, "dim_bracket_ne": 2, "dim_kerf": 4,
                    "dim_n": 3, "dim_g0": 2, "dim_gm1": 2}}


SL3_DIVIDE_BY_ZERO = "1/0," + ",".join(["0"] * 7)
SL2_FILE = {"labels": ["e", "h", "f"],
            "brackets": [{"i": 0, "j": 1, "value": [[0, "-2"]]},
                         {"i": 0, "j": 2, "value": [[1, "1"]]},
                         {"i": 1, "j": 2, "value": [[2, "-2"]]}]}


@pytest.mark.parametrize("args, doc", [
    (["--nilpotent", "minimal", "--ell", "1,x"], None),
    (["--nilpotent", "minimal", "--ell", SL3_DIVIDE_BY_ZERO], None),
    (["--nilpotent", SL3_DIVIDE_BY_ZERO], None),
    ([], {"nilpotent": ["x", 0, 0]}),
    (["--ell", "file"], {"nilpotent": ["1", "0", "0"], "ell": [["1/0", 0, 0]]}),
    # `--ell file` needs the file's "ell" entry; it is not ell = 0
    (["--nilpotent", "minimal", "--ell", "file"], None),
    (["--ell", "file"], {"nilpotent": ["1", "0", "0"]}),
], ids=["ell-not-a-number", "ell-divide-by-zero", "nilpotent-divide-by-zero",
        "file-nilpotent-not-a-number", "file-ell-divide-by-zero",
        "ell-file-with-builtin-algebra", "ell-file-without-ell-entry"])
def test_main_malformed_coordinates_exit_2(tmp_path, capsys, args, doc):
    algebra = "sl3"
    if doc is not None:
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(dict(SL2_FILE, **doc)))
        algebra = str(path)
    assert main(["run", "--algebra", algebra, *args, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and not err.startswith("error: internal")
    assert err.count("\n") == 1


def test_center_below_casimir_degree_exits_2(capsys):
    """The Casimir image has Kazhdan degree 4: degree 3 is bad input."""
    assert main(["run", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--ell", "lagrangian-auto", "--checks", "center",
                 "--max-degree", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and not err.startswith("error: internal")
    assert err.count("\n") == 1
    assert "4" in err and "3" in err


def test_center_below_casimir_degree_exits_2_before_any_check(
        tmp_path, monkeypatch, capsys):
    """On sl4 [2,1,1] at degree 8, `center:3` is below the Kazhdan degree 4
    of the Casimir image: the job exits 2 before `theorem` runs, and writes
    no report."""
    called = []
    monkeypatch.setattr(whittaker, "verify_theorem", called.append)
    out = tmp_path / "r.json"
    assert main(["run", "--algebra", "sl4", "--nilpotent", "[2,1,1]",
                 "--max-degree", "8", "--checks", "theorem,center:3",
                 "--out", str(out), "--quiet"]) == 2
    assert called == []
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: the center check needs degree >= 4, the Kazhdan degree of "
        "the Casimir image; got 3\n")


def test_center_outside_h_witness_is_casimir_degree(tmp_path, monkeypatch):
    monkeypatch.setattr(whittaker.HBasis, "contains", lambda self, u, n: False)
    out = tmp_path / "r.json"
    code = main(["run", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--ell", "lagrangian-auto", "--checks", "center",
                 "--max-degree", "4", "--out", str(out), "--quiet"])
    assert code == 1
    (entry,) = json.loads(out.read_text())["checks"]
    assert entry["status"] == "fail"
    assert entry["details"]["message"] == \
        "Casimir image outside the computed H basis"
    assert entry["witness"] == {"degree": 4}


def test_a_failing_h_basis_is_built_once_per_degree(monkeypatch):
    """With only the first generator of n_ell, h_basis fails the theorem at
    degree 1.  The case keeps that failure: every check that needs H gets
    it again, with its message and degree, from one build on the case's
    context.  `ell-independence` asks for the case's basis before it
    builds the other context's, so it carries the same failure and no
    second basis is built."""
    first = whittaker.n_ell_generators
    monkeypatch.setattr(whittaker, "n_ell_generators",
                        lambda sctx: first(sctx)[:1])
    built = []

    def recorded(n, sctx):
        built.append((n, sctx))
        return whittaker.h_basis(n, sctx)

    monkeypatch.setattr(cli, "h_basis", recorded)
    config = dict(algebra="sl3", nilpotent="minimal", max_degree=6,
                  checks=["theorem", "cohomology", "center", "ell-independence"])
    report = strip_timing(run(JobConfig(**config)))
    assert [n for n, _ in built] == [6]
    failed = {entry["name"]: entry for entry in report["checks"]
              if entry["status"] == "fail"}
    assert set(failed) == set(config["checks"])
    for name in config["checks"]:
        assert failed[name]["details"] == {
            "error": "TheoremFailure",
            "message": "dim gr_1 H = 1 != 0 = dim C[S]_1"}, name
        assert failed[name]["witness"] == {"degree": 1}, name
    # the same report as when every check builds the basis itself, each on
    # the case's context
    monkeypatch.setattr(cli.Case, "hb_at",
                        lambda self, n: recorded(n, self.sctx))
    built.clear()
    assert strip_timing(run(JobConfig(**config))) == report
    assert len(built) == 4 and all(sctx is built[0][1] for _, sctx in built)


def test_a_dropped_n_ell_generator_fails_every_check_of_h(monkeypatch):
    """With only the first generator of n_ell, the Lagrangian context's
    kernel is too large from degree 2 on.  No check that reads H passes on
    it: each carries the theorem's failure at degree 2.  A basis that went
    on past the failed clause passed `center`, and failed `poisson` as a
    bug with no degree."""
    first = whittaker.n_ell_generators
    monkeypatch.setattr(whittaker, "n_ell_generators",
                        lambda sctx: first(sctx)[:1])
    checks = ["theorem", "poisson", "whittaker", "center"]
    report = run(JobConfig(algebra="sl3", nilpotent="minimal",
                           ell="lagrangian-auto", max_degree=6, checks=checks))
    assert [entry["name"] for entry in report["checks"]
            if entry["status"] == "fail"] == checks
    for entry in report["checks"]:
        assert entry["details"] == {
            "error": "TheoremFailure",
            "message": "dim gr_2 H = 2 != 1 = dim C[S]_2"}, entry["name"]
        assert entry["witness"] == {"degree": 2}, entry["name"]
