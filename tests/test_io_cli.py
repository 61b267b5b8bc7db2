"""Tests for state file round-trips, verdict serialization, and the CLI."""

import json

import numpy as np
import pytest

from spptkit import io
from spptkit.cli import main
from spptkit.errors import ParseError
from spptkit.separability import ENTANGLED_NPT, classify
from spptkit.sppt import sppt_check
from spptkit.states import (
    entangled_sppt_2x5,
    horodecki_2x4,
    make_state,
    maximally_mixed,
    random_sppt,
    sppt_counterexample_2x3,
    sppt_counterexample_2x4,
)


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return make_state(2, np.outer(psi, psi.conj()), normalized=True)



class TestStateFiles:
    def test_roundtrip_values(self):
        s = entangled_sppt_2x5(0.37).state
        loaded = io.loads_state(io.dumps_state(s))
        assert loaded.d == s.d and loaded.normalized == s.normalized
        assert np.array_equal(loaded.rho, s.rho)

    def test_roundtrip_bit_identical(self):
        state, _ = random_sppt(4, rank=3, normal_s=False, seed=13)
        first = io.dumps_state(state)
        second = io.dumps_state(io.loads_state(first))
        assert first == second

    def test_save_load(self, tmp_path):
        path = tmp_path / "state.json"
        s = maximally_mixed(3)
        io.save_state(s, path)
        loaded = io.load_state(path)
        assert np.array_equal(loaded.rho, s.rho)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            io.loads_state("{not json")

    def test_missing_key(self):
        with pytest.raises(ParseError):
            io.loads_state(json.dumps({"d": 2, "rho": []}))

    def test_schema_shape(self):
        data = json.loads(io.dumps_state(maximally_mixed(2)))
        assert set(data) == {"d", "normalized", "rho"}
        assert len(data["rho"]) == 4 and len(data["rho"][0][0]) == 2


class TestVerdictSerialization:
    def test_decomposition_verdict(self):
        state, _ = random_sppt(4, rank=4, normal_s=True, seed=1, with_tail=True)
        v = classify(state)
        data = io.verdict_to_dict(v)
        assert data["class"] == "Separable"
        assert data["certificate"]["type"] == "decomposition"
        total = np.zeros((8, 8), dtype=complex)
        for term in data["certificate"]["terms"]:
            total += np.kron(io.pairs_to_matrix(term["qubit"]),
                             io.pairs_to_matrix(term["qudit"]))
        assert np.linalg.norm(total - state.rho) <= 1e-8 * np.linalg.norm(state.rho)

    def test_range_verdict_is_json_ready(self):
        v = classify(entangled_sppt_2x5(0.5).state)
        text = json.dumps(io.verdict_to_dict(v))
        data = json.loads(text)
        assert data["class"] == "EntangledRange"
        cert = data["certificate"]
        if cert["type"] == "reduction_chain":
            cert = cert["inner"]["certificate"]
        assert cert["type"] == "range_search"
        assert cert["conclusion"] == "NoneFound"
        assert cert["certified_bound"] > cert["exclusion_threshold"]
        assert cert["search"]["evaluations"] > 0
        assert 0 < cert["search"]["mu_margin"] < cert["certified_bound"] ** 2
        assert "search certificate" in cert["note"]

    def test_unknown_certificate_raises(self):
        with pytest.raises(TypeError):
            io.certificate_to_dict(object())


class TestCli:
    def test_generate_and_check(self, tmp_path, capsys):
        path = tmp_path / "rho1.json"
        assert main(["generate", "rho1", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace 21" in out
        assert main(["check", "sppt", str(path)]) == 0
        out = capsys.readouterr().out
        assert "NotSppt" in out
        assert f"{np.sqrt(142.0) / 12.0:.6e}" in out
        assert main(["check", "ppt", str(path)]) == 0
        assert "(PPT)" in capsys.readouterr().out

    def test_generate_rho0_trace(self, tmp_path, capsys):
        path = tmp_path / "rho0.json"
        assert main(["generate", "rho0", "--b", "0.5", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        # trace of the assembled family state is 6 + 2*gamma1 = 9 at b = 0.5
        assert "trace 9" in out
        loaded = io.load_state(path)
        assert loaded.d == 5 and abs(loaded.trace() - 9.0) < 1e-12

    def test_generate_random_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["generate", "random-sppt", "--d", "4", "--rank", "4", "--seed", "7"]
        assert main(base + ["--out", str(p1)]) == 0
        assert main(base + ["--out", str(p2)]) == 0
        assert p1.read_text() == p2.read_text()

    def test_generate_bad_parameter_exit_2(self, tmp_path, capsys):
        rc = main(["generate", "rho0", "--b", "1.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_classify_bell_via_file(self, tmp_path, capsys):
        io.save_state(bell_state(), tmp_path / "bell.json")
        assert main(["classify", str(tmp_path / "bell.json")]) == 0
        assert "EntangledNpt" in capsys.readouterr().out

    def test_classify_json_report(self, tmp_path, capsys):
        src = tmp_path / "rho1.json"
        io.save_state(sppt_counterexample_2x3(), src)
        report_path = tmp_path / "report.json"
        assert main(["classify", str(src), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"]["class"] == "SeparableByTheorem"
        assert report["tool_version"]
        assert report["tolerances"]["tol"] == 1e-9
        assert "classify" in report["timings_ms"]

    def test_classify_reports_stable_modulo_timings(self, tmp_path):
        src = tmp_path / "mm.json"
        io.save_state(maximally_mixed(4), src)
        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert main(["classify", str(src), "--json", str(path)]) == 0
            data = json.loads(path.read_text())
            del data["timings_ms"]
            reports.append(json.dumps(data, sort_keys=True))
        assert reports[0] == reports[1]

    def test_classify_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"d\": 2}")
        assert main(["classify", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["classify", "{path}", "--tol", "-1"],
        ["classify", "{path}", "--tol", "nan"],
        ["classify", "{path}", "--budget", "-3"],
        ["check", "ppt", "{path}", "--tol", "-1"],
        ["check", "sppt", "{path}", "--tol", "nan"],
    ])
    def test_bad_tol_or_budget_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "rho2.json"
        io.save_state(sppt_counterexample_2x4(), path)
        assert main([arg.format(path=path) for arg in argv]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["bell", "rho1", "horodecki"])
    def test_pt_checks_agree(self, name, tmp_path, capsys):
        state = {"bell": bell_state, "rho1": sppt_counterexample_2x3,
                 "horodecki": lambda: horodecki_2x4(0.5)}[name]()
        path = tmp_path / "state.json"
        io.save_state(state, path)
        assert main(["check", "ppt", str(path)]) == 0
        printed = capsys.readouterr().out.split(":")[1].split()
        verdict = classify(state)
        least = verdict.residuals["min_pt_eigenvalue"]
        npt = verdict.classification == ENTANGLED_NPT
        assert printed == [f"{least:.6e}", "(NPT)" if npt else "(PPT)"]
        note = sppt_check(state).note
        if npt:
            assert note == f"NPT (partial transpose eigenvalue {least:.3e})"
        else:
            assert "NPT" not in note

    def test_missing_file_exit_2(self, capsys):
        assert main(["check", "ppt", "/nonexistent/state.json"]) == 2
        capsys.readouterr()
