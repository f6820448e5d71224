import csv
import inspect
import json
import math

import numpy as np
import pytest
from kernel_reference import cholesky_witness_lower

from banachgap import cli, groups, spectral
from banachgap.cli import build_parser, main
from banachgap.graphs import gen_family

_LOWER_ENDS, _UPPER_ENDS = ("lower", "gn_lower", "jv_lower"), ("upper", "value")


def _assert_printed_ends_hold(raw, printed, graphs):
    """Each float lower end printed at most the library's, each upper end at
    least, and each exact gap's "cholesky" lower end at most what its
    witness proves (kappa's lower end is monotone in it)."""
    if isinstance(raw, dict):
        for k, v in raw.items():
            if isinstance(v, float) and k in _LOWER_ENDS:
                assert float(printed[k]) <= v, k
            if isinstance(v, float) and k in _UPPER_ENDS:
                assert float(printed[k]) >= v, k
            _assert_printed_ends_hold(v, printed[k], graphs)
        if raw.get("method") == "eigen_exact" and raw["lower_proof"] == "cholesky":
            witness = raw["diagnostics"]["certificate"]
            assert printed["lower"] <= raw["lower"] <= cholesky_witness_lower(graphs[id(witness)], witness)
    elif isinstance(raw, list):
        for a, b in zip(raw, printed, strict=True):
            _assert_printed_ends_hold(a, b, graphs)


@pytest.fixture(autouse=True)
def printed_ends_hold(monkeypatch):
    """Checks every JSON artifact and ``family.csv`` of each test against the
    unrounded payload, and re-verifies every Cholesky witness in them from
    the per-edge Laplacian of the graph it was made on."""
    graphs, printed = {}, []
    exact_head, dump_json, dump_csv = spectral._exact_head, cli.dump_json, cli.dump_csv

    def recording_head(G):
        head = exact_head(G)
        graphs[id(head[2]["certificate"])] = G
        return head

    def recording_json(obj, path=None):
        text = dump_json(obj, path)
        printed.append((obj, json.loads(text)))
        return text

    def recording_csv(rows, path):
        dump_csv(rows, path)
        with open(path) as fh:
            printed.append((rows, list(csv.DictReader(fh))))

    monkeypatch.setattr(spectral, "_exact_head", recording_head)
    monkeypatch.setattr(cli, "dump_json", recording_json)
    monkeypatch.setattr(cli, "dump_csv", recording_csv)
    yield
    for raw, out in printed:
        _assert_printed_ends_hold(raw, out, graphs)


def test_witness_checker_refuses_a_shift_above_lambda_2():
    G = gen_family("cycle", [7])
    lam = 2 - 2 * math.cos(2 * math.pi / 7)
    witness = spectral.gap_exact_2(G).diagnostics["certificate"]
    assert cholesky_witness_lower(G, witness) <= lam
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_witness_lower(G, {**witness, "shift": lam * (1 + 1e-6)})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_writes_graph(tmp_path, capsys):
    code, out = run(capsys, "gen", "--gen", "cycle:6", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "graph.edges").read_text().startswith("6 6")
    assert json.loads(out)["n"] == 6


def test_gen_random_regular_prints_int_edges(capsys):
    code, out = run(capsys, "gen", "--gen", "random_regular:10,3", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10 and len(payload["edges"]) == 15
    assert all(type(x) is int for e in payload["edges"] for x in e)


_WITNESS_KEYS = {"certificate", "lanczos_s", "certificate_s"}


def test_gap_exact_hamming(tmp_path, capsys):
    code, out = run(capsys, "gap", "--gen", "hamming:3", "--p", "2", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2.0
    assert (payload["lower_proof"], payload["upper_proof"]) == ("cholesky", "admissible_map")
    assert (tmp_path / "gap.json").exists()
    diag = payload["diagnostics"]
    assert diag["eigensolver"] == "dense" and diag["lanczos_steps"] == 0
    # the dense head is certified like a Lanczos one: the lower end prints rounded down
    cert = diag["certificate"]
    assert set(cert) == {"t", "shift", "margin"} and cert["t"] == 1
    assert 0.0 <= diag["residual"] <= cert["margin"] and payload["lower"] == 1.99999999999 < payload["upper"] == 2.0
    assert set(diag) == {"eigenvalues_head", "eigensolver", "lanczos_steps", "residual"} | _WITNESS_KEYS
    assert diag["lanczos_s"] == 0.0 and diag["certificate_s"] > 0.0


def test_gap_exact_reports_the_lanczos_certificate(capsys):
    code, out = run(capsys, "gap", "--gen", "margulis:32", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    diag = payload["diagnostics"]
    assert set(diag) == {"eigenvalues_head", "eigensolver", "lanczos_steps", "residual"} | _WITNESS_KEYS
    assert diag["eigensolver"] == "lanczos" and 0 < diag["lanczos_steps"] <= 400
    cert = diag["certificate"]
    assert set(cert) == {"t", "shift", "margin"} and cert["t"] == 1
    # the witness of the lower end, and the run's stop at its resolution
    assert payload["lower"] == pytest.approx(cert["shift"] - cert["margin"], rel=1e-11)
    assert 0.0 <= diag["residual"] <= cert["margin"]
    assert payload["value"] - payload["lower"] <= 1e-7 * payload["value"]
    assert 0.0 < payload["lower"] <= payload["value"] == payload["upper"]
    assert (payload["lower_proof"], payload["upper_proof"]) == ("cholesky", "admissible_map")
    assert diag["lanczos_s"] > 0.0 and diag["certificate_s"] > 0.0


def test_gap_estimate_and_minimizer_dump(tmp_path, capsys):
    code, out = run(
        capsys, "gap", "--gen", "cycle:5", "--p", "1.5", "--restarts", "6", "--out", str(tmp_path), "--dump-minimizer"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["lower"], payload["lower_proof"]) == (None, None)
    lines = (tmp_path / "minimizer.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 vertices


def test_gap_dump_minimizer_needs_out(capsys):
    assert main(["gap", "--gen", "cycle:6", "--p", "1.5", "--dump-minimizer"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --dump-minimizer writes minimizer.csv under --out; got no --out\n"
    assert captured.out == ""


def test_gap_oracle_method(capsys):
    code, out = run(capsys, "gap", "--gen", "complete:3", "--p", "2", "--method", "oracle", "--resolution", "1e-3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 3.0) < 1e-2
    assert (payload["lower"], payload["lower_proof"], payload["upper_proof"]) == (None, None, "admissible_map")


@pytest.mark.parametrize(
    "argv,need",
    [
        (["--gen", "cycle:4", "--p", "1.5", "--q", "3", "--method", "oracle"], "oracle needs --q 2 --d 1 and at most 4"),
        (["--gen", "cycle:4", "--p", "1.5", "--d", "2", "--method", "oracle"], "oracle needs --q 2 --d 1 and at most 4"),
        (["--gen", "cycle:5", "--p", "1.5", "--method", "oracle"], "oracle needs --q 2 --d 1 and at most 4"),
    ],
)
def test_gap_method_refuses_exponents_it_ignores(capsys, argv, need):
    assert main(["gap", *argv]) == 1
    captured = capsys.readouterr()
    assert need in captured.err and captured.out == ""


@pytest.mark.parametrize("resolution", ["0", "nan", "-1"])
def test_gap_oracle_refuses_bad_resolution(capsys, resolution):
    assert main(["gap", "--gen", "cycle:4", "--p", "1.5", "--method", "oracle", "--resolution", resolution]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: resolution must be a positive finite number") and captured.out == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--gen", "cycle:6", "--p"],
        ["gap", "--gen", "cycle:6", "--p", "1.5", "--q"],
        ["gap", "--gen", "cycle:4", "--method", "oracle", "--p"],
        ["kappa", "--group", "cyclic:4", "--p"],
        ["distort", "--gen", "hamming:3", "--p"],
        ["mazur", "--pairs", "10", "--p"],
    ],
)
def test_non_finite_exponents_exit_1(capsys, argv, bad):
    assert main([*argv[:-1], f"{argv[-1]}={bad}"]) == 1  # "--p=-inf": argparse reads a bare "-inf" as a flag
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must be >= 1 and finite" in captured.err and captured.out == ""


def test_gap_reads_file(tmp_path, capsys):
    run(capsys, "gen", "--gen", "complete:4", "--out", str(tmp_path))
    code, out = run(capsys, "gap", "--file", str(tmp_path / "graph.edges"), "--p", "2")
    assert code == 0
    assert json.loads(out)["value"] == 4.0


@pytest.mark.parametrize(
    "text,message",
    [
        ("3 3\n0 1 1\n1 2\n2 0 1\n", "line 3: expected 'u v mult' (3 values), got 2"),
        ("3\n0 1 1\n", "line 1: expected 'n m' (2 values), got 1"),
    ],
)
def test_gap_names_the_line_of_a_bad_edge_file(tmp_path, capsys, text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    assert main(["gap", "--file", str(path), "--p", "2"]) == 1
    assert capsys.readouterr().err == f"error: {path}, {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--gen", "cycle:5", "--file", "p3.edges", "--p", "2"],
        ["gen", "--gen", "cycle:5", "--file", "p3.edges"],
        ["gap", "--p", "2"],
        ["gross", "--verify"],
        ["distort", "--family", "2:4"],
    ],
)
def test_graph_source_is_one_of_gen_or_file(capsys, argv):
    # --gen cycle:5 with --file of P3 once printed P3's gap and exited 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--gen" in capsys.readouterr().err


def test_gap_reproducible_bytes(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(capsys, "gap", "--gen", "random_regular:12,3", "--p", "1.5", "--seed", "9", "--out", str(a))
    run(capsys, "gap", "--gen", "random_regular:12,3", "--p", "1.5", "--seed", "9", "--out", str(b))
    assert (a / "gap.json").read_bytes() == (b / "gap.json").read_bytes()
    # the L-BFGS direction; the projected gradient took 91,868 iterations here
    diagnostics = json.loads((a / "gap.json").read_text())["diagnostics"]
    assert diagnostics["direction"] == "quasi_newton"
    assert diagnostics["iterations"] <= 18000


def test_kappa_subcommand(capsys):
    code, out = run(capsys, "kappa", "--group", "cyclic:6", "--p", "2", "--nu", "1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["kappa"]["value"] - 1.0) < 1e-3
    assert payload["sandwich"]["lower_ok"] and payload["sandwich"]["upper_ok"]


def test_kappa_writes_null_for_unproven_ends(capsys):
    # Two restarts leave the p = 3 gap of C6 at 1.0 (the default 16 find
    # 0.8209), so kappa's unproven lower end (2 gap / |S|)^(1/p) = 1.0 would
    # sit above its upper end 0.9388.  Both lower ends print as null.
    code, out = run(capsys, "kappa", "--group", "cyclic:6", "--p", "3", "--restarts", "2")
    assert code == 1  # the descent gap breaks the sandwich's upper inequality
    payload = json.loads(out)
    for est in (payload["kappa"], payload["gap"]):
        assert (est["lower"], est["lower_proof"]) == (None, None)
        assert est["upper"] == est["value"] and est["upper_proof"] == "admissible_map"
    assert payload["kappa"]["value"] == pytest.approx(0.938774584229, rel=1e-11)


def test_gross_subcommand(tmp_path, capsys):
    code, out = run(capsys, "gross", "--gen", "complete:3", "--verify", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] and payload["factors"] == 2
    assert (tmp_path / "action.txt").exists()
    assert (tmp_path / "provenance.json").exists()


def test_gross_realizes_a_graph_with_no_generators(tmp_path, capsys):
    # one vertex, no edges: 0 factors, and an action file whose header is "1 0"
    code, out = run(capsys, "gross", "--gen", "path:1", "--verify", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] and payload["factors"] == 0
    a = groups.read_action_file(str(tmp_path / "action.txt"))
    assert (a.m, a.size, a.perms.shape) == (1, 0, (0, 1))


def test_gross_verifies_long_path(capsys):
    code, out = run(capsys, "gross", "--gen", "path:3000", "--verify")
    assert code == 0
    assert json.loads(out)["verified"]


def test_distort_subcommand(capsys):
    code, out = run(capsys, "distort", "--gen", "hamming:3", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"]
    assert abs(payload["jv_lower"] - payload["upper"]) < 1e-9
    assert payload["displacement"] == 3
    assert "d" not in payload


@pytest.mark.parametrize("q", ["2", "1"])
def test_distort_at_p1_certifies_lower_bounds_below_the_upper(capsys, q):
    # The p = 1 gap of H4 (16 vertices) is exact by cut enumeration, so both
    # gap-based lower bounds are certified.
    code, out = run(capsys, "distort", "--gen", "hamming:4", "--p", "1", "--q", q)
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"]
    assert payload["gn_lower"] <= payload["upper"] * (1 + 1e-9)
    assert payload["jv_lower"] <= payload["upper"] * (1 + 1e-9)
    assert payload["jv_lower"] == 1.0  # D gap / avg_degree = 4 * 1 / 4, the l_1 distortion at q = 1


def test_gap_at_p1_enumerates_the_cuts(capsys):
    code, out = run(capsys, "gap", "--gen", "cycle:8", "--p", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["method"], payload["lower_proof"], payload["value"]) == ("cut_enumeration", "cuts", 0.5)
    assert payload["diagnostics"] == {"cuts": 127}


def test_distort_family_sweep(tmp_path, capsys):
    code, out = run(capsys, "distort", "--gen", "hamming", "--family", "2:4", "--p", "2", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "family.csv").read_text().strip().splitlines()
    assert lines[0] == "n,diam,gn_lower,jv_lower,displacement,upper,target_order"
    assert len(lines) == 4
    rows = json.loads(out)
    assert all(abs(r["jv_lower"] - r["upper"]) < 1e-9 for r in rows)
    assert [r["displacement"] for r in rows] == [2, 3, 4]


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_distort_family_without_closed_form_writes_null(tmp_path, capsys):
    code, out = run(capsys, "distort", "--gen", "cycle:3", "--family", "3:5", "--out", str(tmp_path))
    assert code == 0
    rows = json.loads(out, parse_constant=_refuse_constant)
    assert [r["target_order"] for r in rows] == [None, None, None]
    assert [r["displacement"] for r in rows] == [1, 2, 2]
    lines = (tmp_path / "family.csv").read_text().strip().splitlines()
    assert all(line.endswith(",") for line in lines[1:])


def test_distort_family_keeps_the_other_generator_parameters(capsys):
    code, out = run(capsys, "distort", "--gen", "random_regular:10,2", "--family", "5:7")
    assert code == 0
    rows = json.loads(out, parse_constant=_refuse_constant)
    assert [r["n"] for r in rows] == [5, 6, 7]
    assert all(r["displacement"] == r["diam"] for r in rows)  # 2-regular and connected: cycles


@pytest.mark.parametrize("family", ["5", "8:2"])
def test_distort_family_refuses_a_malformed_range(capsys, family):
    assert main(["distort", "--gen", "hamming", "--family", family]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --family takes LO:HI with LO <= HI, got '{family}'\n" and captured.out == ""


def test_distort_family_refuses_a_file(tmp_path, capsys):
    # it once swept hamming:2..4 and ignored the file
    path = tmp_path / "p3.edges"
    path.write_text("3 2\n0 1 1\n1 2 1\n")
    assert main(["distort", "--file", str(path), "--family", "2:4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --family sweeps the first --gen parameter; got --file\n" and captured.out == ""


def test_mazur_subcommand(tmp_path, capsys):
    code, out = run(capsys, "mazur", "--p", "4", "--pairs", "5000", "--out", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert (tmp_path / "modulus.csv").exists()


def test_verify_fast_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "fast", "--seed", "1")
    assert code == 0
    assert "PASS" in out and "criteria passed" in out


def test_verify_rejects_unknown_ids(capsys):
    # a usage error, like any other bad argument
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "1,nope"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --suite: unknown criterion ids: ['nope']" in captured.err and captured.out == ""


def test_verify_runs_listed_ids_once_in_table_order(capsys):
    code, out = run(capsys, "verify", "--suite", "10,1,10", "--seed", "1")
    assert code == 0
    rows = [line.split()[1] for line in out.splitlines() if line.startswith("[")]
    assert rows == ["1", "10"] and "2/2 criteria passed" in out


def test_error_exit_code(capsys):
    code = main(["gap", "--gen", "cycle:5", "--p", "0.5"])
    assert code == 1


@pytest.mark.parametrize(
    "spec,form",
    [
        ("cyclic", "cyclic:N"),
        ("sl_mod:2", "sl_mod:N,K"),
        ("symmetric:3,4", "symmetric:N"),
        ("cyclic:a", "cyclic:N, got 'a'"),
        ("sl_mod:2,x", "sl_mod:N,K, got '2,x'"),
        ("cycle:a", "cycle:N, got 'a'"),
        ("random_regular:10,x", "random_regular:N,D, got '10,x'"),
        ("random_regular:10", "random_regular:N,D, got 1 parameter(s)"),
    ],
)
def test_group_spec_error_names_the_form(capsys, spec, form):
    # group kinds go to kappa --group, graph families to gap --gen
    opt = "--gen" if spec.split(":")[0] in ("cycle", "random_regular") else "--group"
    assert main(["gap" if opt == "--gen" else "kappa", opt, spec, "--p", "2"]) == 1
    err = capsys.readouterr().err
    assert form in err and "invalid literal" not in err


def test_kappa_refuses_nu_below_one(capsys):
    assert main(["kappa", "--group", "cyclic:5", "--nu", "0"]) == 1
    captured = capsys.readouterr()
    assert "error: nu = |S|/|orbit| is at least 1, got 0" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--dim", "0"], "dimension d"),
        (["--blocks", "2", "--block-p", "0.5"], "block exponent p"),
        (["--blocks", "-1"], "block count k"),
    ],
)
def test_mazur_refuses_degenerate_inputs(capsys, argv, name):
    assert main(["mazur", "--p", "3", "--pairs", "10", *argv]) == 1
    captured = capsys.readouterr()
    assert f"error: {name} must be >= 1" in captured.err and captured.out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_parser_defaults_are_the_library_constants():
    gap = build_parser().parse_args(["gap", "--gen", "cycle:6", "--p", "2"])
    assert (gap.restarts, gap.max_iter) == (spectral.DEFAULT_RESTARTS, spectral.DEFAULT_MAX_ITER)
    # the step tolerance is a constant, as kappa's is
    assert not hasattr(gap, "tol") and "tol" not in inspect.signature(spectral.gap_estimate).parameters
    kappa = build_parser().parse_args(["kappa", "--group", "cyclic:4"])
    assert kappa.restarts == groups.KAPPA_RESTARTS
    assert inspect.signature(groups.kappa_estimate).parameters["restarts"].default == groups.KAPPA_RESTARTS
