"""Tests for state file round-trips, verdict serialization, and the CLI."""

import json

import numpy as np
import pytest

from spptkit import cli, io, linalg, range_criterion, separability, states
from spptkit.cli import main
from spptkit.errors import ParseError
from spptkit.separability import (
    ENTANGLED_NPT,
    PPT_UNDECIDED,
    SEPARABLE_BY_THEOREM,
    TOL_FLOOR,
    SeparableDecomposition,
    TheoremCertificate,
    classify,
    decompose_small,
)
from spptkit.sppt import sppt_check
from spptkit.states import (
    entangled_sppt_2x5,
    horodecki_2x4,
    make_state,
    maximally_mixed,
    random_separable,
    random_sppt,
    sppt_counterexample_2x3,
    sppt_counterexample_2x4,
)

from helpers import ill_conditioned_sppt

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

    def test_pairs_match_the_per_entry_form(self):
        m = np.empty((2, 3), dtype=complex)
        m.real = [[-0.0, 1e300, 0.1], [-5e-324, np.pi, 1.0 / 3.0]]
        m.imag = [[5e-324, -0.0, 0.2], [1e-300, -1e300, 0.0]]
        per_entry = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        assert json.dumps(io.matrix_to_pairs(m)) == json.dumps(per_entry)
        for row, ref in zip(m, per_entry):
            assert json.dumps(io.matrix_to_pairs(row)) == json.dumps(ref)
        assert all(type(x) is float for row in io.matrix_to_pairs(m) for z in row for x in z)
        assert json.dumps(io.matrix_to_pairs(m)).count("-0.0") == 2

    @pytest.mark.parametrize("entry", [[0.25, 0.0, 99.0], [True, False], [0.25, False],
                                       0.25, [0.25], [0.25, "0"], [10 ** 400, 0]],
                             ids=["three-numbers", "booleans", "boolean-im", "scalar",
                                  "one-number", "string-im", "int-beyond-float"])
    def test_malformed_entry(self, entry):
        data = io.state_to_dict(maximally_mixed(2))
        data["rho"][0][0] = entry
        with pytest.raises(ParseError):
            io.loads_state(json.dumps(data))

    def test_integer_entries_read(self):
        assert io.pairs_to_matrix([[[1, -2], [0.5, 0]]]).tolist() == [[1 - 2j, 0.5 + 0j]]

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
        assert 0 < cert["search"]["first_order_exclusions"] < cert["search"]["evaluations"]
        assert 0 < cert["search"]["mu_margin"] < cert["certified_bound"] ** 2
        assert "search certificate" in cert["note"]

    @pytest.mark.parametrize("name, kind", [
        ("bell", "npt"), ("random_sppt", "decomposition"), ("rho2", "by_theorem"),
        ("rho0", "reduction_chain"), ("horodecki", "range_search"),
        ("random_separable", "diagnostics")])
    def test_every_certificate_type_is_json_ready(self, name, kind):
        state = {"bell": bell_state,
                 "random_sppt": lambda: random_sppt(4, 4, with_tail=True)[0],
                 "rho2": sppt_counterexample_2x4,
                 "rho0": lambda: entangled_sppt_2x5(0.5).state,
                 "horodecki": lambda: horodecki_2x4(0.5),
                 "random_separable": lambda: random_separable(4, 7, seed=0)[0]}[name]()
        data = io.verdict_to_dict(classify(state))
        assert json.loads(json.dumps(data)) == data
        cert = data["certificate"]
        assert cert["type"] == kind
        if kind == "diagnostics":
            # undecided, with the product vectors the range search found
            assert data["class"] == PPT_UNDECIDED
            found = cert["range_search"]["found"]
            assert found and all(len(pv["e"]) == 2 and len(pv["f"]) == 4 for pv in found)

    @pytest.mark.parametrize("state, kind", [
        (random_sppt(4, 4, seed=1, with_tail=True)[0], "decomposition"),
        (random_sppt(5, 3, normal_s=False, seed=0, with_tail=True)[0], "by_theorem"),
        (entangled_sppt_2x5(0.5).state, "reduction_chain"),
    ], ids=["decomposition", "by_theorem", "reduction_chain"])
    def test_stacked_terms_match_the_per_matrix_form(self, monkeypatch, state, kind):
        v = classify(state)
        stacked = json.dumps(io.verdict_to_dict(v))
        data = json.loads(stacked)
        assert data["certificate"]["type"] == kind
        if kind != "reduction_chain":
            assert data["certificate"]["terms"]
        monkeypatch.setattr(io, "terms_to_list", lambda terms: [
            {"qubit": io.matrix_to_pairs(q), "qudit": io.matrix_to_pairs(p)} for q, p in terms])
        assert json.dumps(io.verdict_to_dict(v)) == stacked

    def test_unknown_certificate_raises(self):
        with pytest.raises(TypeError):
            io.certificate_to_dict(object())


def replay_reduction(cert: dict, rho: np.ndarray) -> tuple:
    """Check the fields every reduction shares from their JSON alone.

    Their claim is rho = sum of terms + (1 (x) V) core (1 (x) V)^dag with V
    a d x k isometry and core a 2 x k state; returns (terms, core, V).
    """
    terms = [(io.pairs_to_matrix(t["qubit"]), io.pairs_to_matrix(t["qudit"]))
             for t in cert["terms"]]
    core = io.state_from_dict(cert["core"])
    v = io.pairs_to_matrix(cert["embed"])
    k = core.d
    assert cert["k"] == k and v.shape == (rho.shape[0] // 2, k)
    assert linalg.frob(v.conj().T @ v - np.eye(k)) <= 1e-12
    lift = np.kron(np.eye(2), v)
    total = lift @ core.rho @ lift.conj().T
    for qubit, qudit in terms:
        total = total + np.kron(qubit, qudit)
    assert linalg.frob(total - rho) <= TOL_FLOOR * linalg.frob(rho)
    return terms, core, v


def replay_theorem(report: dict, rho: np.ndarray) -> None:
    """Check a by_theorem certificate from its JSON alone: a reduction whose
    core is a PPT 2 x k state, k <= 3."""
    cert = json.loads(json.dumps(report))["certificate"]
    assert cert["type"] == "by_theorem"
    terms, core, v = replay_reduction(cert, rho)
    assert core.d <= 3
    assert core.pt_eig.values[0] >= -TOL_FLOOR * core.norm()
    explicit = TheoremCertificate(terms=terms, core=core, embed=v,
                                  min_pt_eigenvalue=cert["min_pt_eigenvalue"],
                                  reason=cert["reason"]).explicit(decompose_small(core))
    explicit.validate(rho, tol=TOL_FLOOR)


class TestReductionChainReplay:
    """A reduction chain's reduction replays from its JSON as a theorem's
    does; its 2 x 4 core is entangled by the range criterion's bound."""

    @pytest.mark.parametrize("state", [
        entangled_sppt_2x5(0.5).state,
        random_sppt(5, 4, normal_s=False, seed=0)[0],
    ], ids=["rho0", "random_sppt(5,4,normal_s=False)"])
    def test_chain_replays(self, state):
        cert = json.loads(json.dumps(io.verdict_to_dict(classify(state))))["certificate"]
        assert cert["type"] == "reduction_chain"
        assert cert["reduction"]["type"] == "reduction"
        replay_reduction(cert["reduction"], state.rho)
        inner = cert["inner"]["certificate"]
        assert inner["type"] == "range_search" and inner["conclusion"] == "NoneFound"
        assert inner["certified_bound"] > inner["exclusion_threshold"]


class TestTheoremReplay:
    """Every origin of a SeparableByTheorem verdict replays from its JSON."""

    @pytest.mark.parametrize("state, origin", [
        (sppt_counterexample_2x3(), "2x3 PPT: positivity"),
        (random_sppt(5, 2, seed=0)[0], "factor rank 2 <= 3"),
        (sppt_counterexample_2x4(), "remainder supported on 3 qudit levels"),
        (random_sppt(5, 3, normal_s=False, seed=0, with_tail=True)[0],
         "remainder is strong-PPT"),
    ], ids=["rho1 (d <= 3)", "k <= 3 reduction", "rho2 (small support)",
            "strong-PPT remainder"])
    def test_origin_replays(self, state, origin):
        v = classify(state)
        assert v.classification == SEPARABLE_BY_THEOREM
        assert any(origin in line for line in v.trace_log)
        replay_theorem(io.verdict_to_dict(v), state.rho)

    def test_reduction_to_a_theorem_core_composes(self, monkeypatch):
        # No input of the test families gives a 2 x k core (k >= 4) that is
        # separable by theorem, so the core's decomposition is rewritten as
        # one: its first two terms, on their qudit support, become the core.
        real = separability.classify
        inner_terms, inner_certs, reductions = [], [], []
        reduce = separability.svd_reduce

        def recording_reduce(f):
            reductions.append(reduce(f))
            return reductions[-1]

        def core_by_theorem(s):
            v = real(s)
            if s.d != 4:
                return v
            inner_terms.append(len(v.certificate.terms))
            head = SeparableDecomposition(terms=v.certificate.terms[:2]).reconstruct()
            marginal = linalg.EigResult.of(head[:4, :4] + head[4:, 4:])
            iso = marginal.vectors[:, marginal.support(separability.SUPPORT_CUTOFF)]
            core = separability._compress_qudit(head, 4, iso)
            cert = TheoremCertificate(
                terms=v.certificate.terms[2:], core=core, embed=iso,
                min_pt_eigenvalue=float(core.pt_eig.values[0]),
                reason="two product terms on two qudit levels")
            inner_certs.append(cert)
            return separability.Verdict(SEPARABLE_BY_THEOREM, cert, v.trace_log)

        # four product terms with a |0> component give x1 rank 4, two on
        # qubit |1> a tail, which the composed certificate carries as a term
        rng = np.random.default_rng(0)
        rho = np.zeros((10, 10), dtype=complex)
        for i in range(6):
            e = rng.normal(size=2) + 1j * rng.normal(size=2) if i < 4 else np.array([0, 1])
            f = rng.normal(size=5) + 1j * rng.normal(size=5)
            w = np.kron(e / np.linalg.norm(e), f / np.linalg.norm(f))
            rho += np.outer(w, w.conj())
        state = make_state(5, rho)
        monkeypatch.setattr(separability, "classify", core_by_theorem)
        monkeypatch.setattr(separability, "svd_reduce", recording_reduce)
        v = real(state)
        assert any("classifying the reduced 2x4 core" in line for line in v.trace_log)
        assert v.classification == SEPARABLE_BY_THEOREM
        assert v.certificate.k == 2 and v.certificate.embed.shape == (5, 2)
        assert len(v.certificate.terms) == inner_terms[0] - 2 + 1  # and the tail
        # the reduction's own terms (the tail) first, then the core's, embedded
        own = reductions[0].terms
        assert len(own) == 1
        iso = reductions[0].embed
        embedded = [(qubit, iso @ qudit @ iso.conj().T) for qubit, qudit in inner_certs[0].terms]
        for got, want in zip(v.certificate.terms, own + embedded, strict=True):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        replay_theorem(io.verdict_to_dict(v), state.rho)


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

    def test_parser_built_once(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        path = tmp_path / "rho0.json"
        assert main(["generate", "rho0", "--b", "0.25", "--out", str(path)]) == 0
        assert abs(io.load_state(path).trace() - 11.0) < 1e-12
        # a second parse starts from the defaults (b = 0.5), not from the first's values
        assert main(["generate", "rho0", "--out", str(path)]) == 0
        assert abs(io.load_state(path).trace() - 9.0) < 1e-12

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

    @pytest.mark.parametrize("flag, normal_s", [([], True), (["--no-normal-s"], False)])
    def test_generate_random_normal_s_default(self, flag, normal_s, tmp_path):
        # the CLI draws what random_sppt draws by default, normal s included
        path = tmp_path / "r.json"
        argv = ["generate", "random-sppt", "--d", "5", "--rank", "3", "--seed", "1"]
        assert main(argv + flag + ["--out", str(path)]) == 0
        expected = random_sppt(5, 3, normal_s=normal_s, seed=1)[0]
        assert path.read_text() == io.dumps_state(expected)

    def test_generate_bad_parameter_exit_2(self, tmp_path, capsys):
        rc = main(["generate", "rho0", "--b", "1.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_generate_negative_seed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        assert main(["generate", "random-sppt", "--seed", "-1", "--out", str(path)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not path.exists()

    def test_classify_bell_via_file(self, tmp_path, capsys):
        io.save_state(bell_state(), tmp_path / "bell.json")
        assert main(["classify", str(tmp_path / "bell.json")]) == 0
        assert "EntangledNpt" in capsys.readouterr().out

    def test_classify_ill_conditioned_sppt(self, tmp_path, capsys):
        # separable by construction; its prover once raised NotPsd, exit 2
        io.save_state(ill_conditioned_sppt(75), tmp_path / "ill.json")
        assert main(["classify", str(tmp_path / "ill.json")]) == 0
        assert "class: Entangled" not in capsys.readouterr().out

    def test_classify_json_report(self, tmp_path, capsys):
        src = tmp_path / "rho1.json"
        io.save_state(sppt_counterexample_2x3(), src)
        report_path = tmp_path / "report.json"
        assert main(["classify", str(src), "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"]["class"] == "SeparableByTheorem"
        assert report["tool_version"]
        tolerances = report["tolerances"]
        assert tolerances["tol"] == 1e-9
        assert tolerances["tol_floor"] == separability.TOL_FLOOR
        for name in ("exclusion_threshold", "kernel_cutoff", "enumeration_kernel_cutoff",
                     "enumeration_tol"):
            assert tolerances[name] == getattr(range_criterion, name.upper())
        assert tolerances["support_cutoff"] == separability.SUPPORT_CUTOFF
        assert tolerances["weight_floor"] == separability.WEIGHT_FLOOR
        assert "classify" in report["timings_ms"]

    def test_classify_json_report_layout(self, tmp_path, capsys):
        # one top-level key per line, each value compact, read as one document
        src = tmp_path / "rho0.json"
        io.save_state(entangled_sppt_2x5(0.5).state, src)
        report_path = tmp_path / "report.json"
        assert main(["classify", str(src), "--json", str(report_path)]) == 0
        capsys.readouterr()
        text = report_path.read_text()
        report = json.loads(text)
        lines = text.splitlines()
        assert text.endswith("}\n") and lines[0] == "{" and lines[-1] == "}"
        assert len(lines) == len(report) + 2
        for line, (key, value) in zip(lines[1:-1], report.items()):
            head = f"  {json.dumps(key)}: "
            assert line.startswith(head)
            assert line.rstrip(",")[len(head):] == json.dumps(value, separators=(",", ":"))
        assert json.loads(json.dumps(report, indent=2)) == report

    def test_classify_json_to_stdout_is_the_report(self, tmp_path, capsys):
        state = sppt_counterexample_2x4()
        path = tmp_path / "rho2.json"
        io.save_state(state, path)
        assert main(["classify", str(path), "--json", "-"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["verdict"] == io.verdict_to_dict(classify(state))
        assert captured.err.startswith("class: SeparableByTheorem\n")

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

    @pytest.mark.parametrize("key, value", [
        ("d", "x"), ("d", None), ("d", [3]), ("d", 3.7),
        ("normalized", "no"), ("rho", "ragged"),
    ], ids=["d-string", "d-null", "d-list", "d-float", "normalized-string", "rho-ragged"])
    def test_classify_malformed_state_exit_2(self, key, value, tmp_path, capsys):
        data = io.state_to_dict(sppt_counterexample_2x3())
        if value == "ragged":
            value = data["rho"]
            value[0] = value[0][:-1]
        data[key] = value
        with pytest.raises(ParseError):
            io.state_from_dict(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["classify", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["check", "ppt"], ["classify"]])
    @pytest.mark.parametrize("content", [b"\xff\xfe\x00garbage",
                                         b"[" * 200000 + b"]" * 200000],
                             ids=["not-utf8", "nested-past-recursion-limit"])
    def test_unreadable_state_file_exit_2(self, command, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            io.load_state(path)
        assert main(command + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_state_too_large_for_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # numpy raises MemoryError (its _ArrayMemoryError) for a --d whose
        # matrices do not fit; the generator is patched to raise it, so
        # nothing is allocated
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(states, "random_sppt", too_large)
        path = tmp_path / "x.json"
        argv = ["generate", "random-sppt", "--d", "100000", "--rank", "1", "--out", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "74.5 GiB" in err
        assert not path.exists()

    @pytest.mark.parametrize("command", [["check", "ppt"], ["classify"]])
    def test_state_whose_norm_overflows_exit_2(self, command, tmp_path, capsys):
        # entries of 1e160, not hermitian and not PSD: read against an
        # infinite norm, they once passed every check
        rho = [[3, 5, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": 2, "normalized": False,
                                    "rho": [[[x * 1e160, 0.0] for x in row] for row in rho]}))
        assert main(command + [str(path)]) == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["check", "ppt"], ["classify"]])
    def test_state_whose_squares_are_subnormal_exit_2(self, command, tmp_path, capsys):
        # a valid state scaled by 1e-160: its norm is below sqrt(tiny)
        rho = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"d": 2, "normalized": False,
                                    "rho": [[[x * 1e-160, 0.0] for x in row] for row in rho]}))
        assert main(command + [str(path)]) == 2
        assert "rescale the state" in capsys.readouterr().err

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

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("x, npt", [(0.5e-9, False), (2e-9, True)])
    def test_one_npt_rule_at_the_tolerance(self, d, x, npt, tmp_path, capsys):
        # rho = (1/2d + (tau - 1/2d) |Phi><Phi|)^Gamma is PSD and its partial
        # transpose has least eigenvalue tau = -x ||rho||: classify,
        # sppt_check and `check ppt` split at x = 1e-9 together
        phi = np.zeros(2 * d)
        phi[0] = phi[d + 1] = 1 / np.sqrt(2)

        def state(tau):
            m = np.eye(2 * d) / (2 * d) + (tau - 1 / (2 * d)) * np.outer(phi, phi)
            return make_state(d, states.partial_transpose_matrix(m, d))

        s = state(-x * state(0.0).norm())
        assert np.isclose(s.pt_eig.values[0], -x * s.norm(), rtol=1e-3)
        assert (classify(s).classification == ENTANGLED_NPT) == npt
        assert sppt_check(s).note.startswith("NPT") == npt
        path = tmp_path / "state.json"
        io.save_state(s, path)
        assert main(["check", "ppt", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("(NPT)" if npt else "(PPT)")

    def test_missing_file_exit_2(self, capsys):
        assert main(["check", "ppt", "/nonexistent/state.json"]) == 2
        capsys.readouterr()
