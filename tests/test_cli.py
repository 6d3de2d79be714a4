import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tractable_dyn as td
from oracles import cylinder_csv
from tractable_dyn.cli import build_parser, main

RELATION_B = {
    "elements": ["I1", "I2", "I3"],
    "edges": [["I1", "I1"], ["I2", "I2"], ["I2", "I3"], ["I3", "I3"]],
}

SYSTEM_A = {
    "K": {"vertices": ["0", "1", "2"]},
    "Kstar": {"vertices": ["0", "1/2", "1", "3/2", "2"]},
    "vmap": {"0": "1", "1/2": "0", "1": "1", "3/2": "2", "2": "1"},
}

SYSTEM_B = {
    "K": {"vertices": ["0", "1", "2", "3"]},
    "Kstar": {"vertices": ["0", "1/2", "1", "3/2", "2", "5/2", "3"]},
    "vmap": {"0": "1", "1/2": "0", "1": "1", "3/2": "2",
             "2": "3", "5/2": "2", "3": "3"},
}

SHIFT_CODE = {"N": 2, "m": 2, "phi": [0, 0, 1, 1]}


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- relation-analyze ---


def test_relation_analyze_reports_terminal_classes(tmp_path, capsys):
    path = write(tmp_path / "b.json", RELATION_B)
    code, out, _ = run(capsys, "relation-analyze", "--input", path)
    assert code == 0
    data = json.loads(out)
    assert data["terminal"] == [["I1"], ["I3"]]
    assert data["basic_sets"] == [["I1"], ["I2"], ["I3"]]
    assert data["transient"] == ["I2"]
    assert data["kept"] == ["I1", "I2", "I3"]
    assert data["removed"] == []


def test_relation_analyze_acyclic_input_fails_cleanly(tmp_path, capsys):
    path = write(tmp_path / "acyclic.json",
                 {"elements": ["a", "b"], "edges": [["a", "b"]]})
    code, out, err = run(capsys, "relation-analyze", "--input", path)
    assert code == 2
    assert out == ""
    assert "empty domain" in err


def test_relation_analyze_is_deterministic(tmp_path, capsys):
    path = write(tmp_path / "b.json", RELATION_B)
    _, first, _ = run(capsys, "relation-analyze", "--input", path)
    _, second, _ = run(capsys, "relation-analyze", "--input", path)
    assert first == second


def test_relation_analyze_csv(tmp_path, capsys):
    path = write(tmp_path / "b.json", RELATION_B)
    code, out, _ = run(capsys, "relation-analyze", "--input", path,
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "element,class,terminal,transient"
    assert len(lines) == 4


def test_relation_analyze_writes_out_file(tmp_path, capsys):
    path = write(tmp_path / "b.json", RELATION_B)
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "relation-analyze", "--input", path,
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["terminal"] == [["I1"], ["I3"]]


def test_relation_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "relation-analyze", "--input", str(bad))
    assert code == 2
    assert err


def test_relation_analyze_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "relation-analyze", "--input",
                       str(tmp_path / "nope.json"))
    assert code == 2
    assert err


# --- subshift-report ---


def cover_files(tmp_path):
    write(tmp_path / "relation.json", RELATION_B)
    return write(tmp_path / "cover.json", {
        "relation": "relation.json",
        "matrix": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.5, 1.0]],
    })


def test_subshift_report_decay(tmp_path, capsys):
    path = cover_files(tmp_path)
    code, out, _ = run(capsys, "subshift-report", "--input", path)
    assert code == 0
    data = json.loads(out)
    assert data["decay"] == {"n": 1, "rho": 0.5}
    assert data["terminal"] == [["I1"], ["I3"]]
    assert data["genericity"] is None


def test_subshift_report_simulation(tmp_path, capsys):
    path = cover_files(tmp_path)
    code, out, _ = run(capsys, "subshift-report", "--input", path,
                       "--simulate", "200", "--seed", "4", "--words", "1")
    assert code == 0
    genericity = json.loads(out)["genericity"]
    assert genericity["T"] == 200
    assert genericity["L"] == 1
    assert genericity["pass"] is True


def test_subshift_report_bad_columns(tmp_path, capsys):
    write(tmp_path / "relation.json", RELATION_B)
    path = write(tmp_path / "cover.json", {
        "relation": "relation.json",
        "matrix": [[1.0, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.5, 1.0]],
    })
    code, _, err = run(capsys, "subshift-report", "--input", path)
    assert code == 2
    assert "column" in err


def test_subshift_report_rejects_nan_weights(tmp_path, capsys):
    path = write(tmp_path / "cover.json", {
        "relation": {"elements": ["a", "b"],
                     "edges": [["a", "a"], ["a", "b"], ["b", "b"]]},
        "matrix": [[0.5, 0.0], [0.5, float("nan")]],
    })
    code, out, err = run(capsys, "subshift-report", "--input", path)
    assert (code, out) == (2, "")
    assert "must lie in [0, 1]" in err


@pytest.mark.parametrize("matrix", [[[0.5, 0.0], [0.5]],
                                    [[0.5, 0.5], [0.5, "x"]],
                                    "abc"])
def test_subshift_report_rejects_a_malformed_matrix(tmp_path, capsys, matrix):
    path = write(tmp_path / "cover.json", {
        "relation": {"elements": ["a", "b"],
                     "edges": [["a", "a"], ["a", "b"], ["b", "b"]]},
        "matrix": matrix,
    })
    code, out, err = run(capsys, "subshift-report", "--input", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: matrix is not an array of numbers")
    with pytest.raises(td.CoverError):
        td.validate_cover(td.FiniteRelation.from_labels(
            ("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")]), matrix)


def test_subshift_report_csv(tmp_path, capsys):
    path = cover_files(tmp_path)
    code, out, _ = run(capsys, "subshift-report", "--input", path,
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "class,element,weight"


# --- blockmap-approx ---


def test_blockmap_derives_the_shift_table(tmp_path, capsys):
    path = write(tmp_path / "code.json", SHIFT_CODE)
    system_path = tmp_path / "system.json"
    code, out, _ = run(capsys, "blockmap-approx", "--input", path,
                       "--n", "1", "--out-system", str(system_path))
    assert code == 0
    system = json.loads(system_path.read_text())
    assert system == {"N": 2, "n": 1, "k": 1, "gamma": [0, 0, 1, 1]}
    report = json.loads(out)
    assert report["basic_sets"] == [["0", "1"]]
    assert report["stationary"] == [{
        "class": ["0", "1"],
        "fine_class": ["00", "10", "01", "11"],
        "weights": {"0": "1/2", "1": "1/2"},
    }]


def test_blockmap_identity_code_forces_k(tmp_path, capsys):
    path = write(tmp_path / "id.json", {"N": 2, "m": 1, "phi": [0, 1]})
    code, out, _ = run(capsys, "blockmap-approx", "--input", path, "--n", "1")
    assert code == 0
    assert json.loads(out)["k"] == 1


def test_blockmap_cap_exit_code(tmp_path, capsys):
    path = write(tmp_path / "code.json", SHIFT_CODE)
    code, _, err = run(capsys, "blockmap-approx", "--input", path, "--n", "40")
    assert code == 3
    assert err


def test_blockmap_huge_sizes_exit_cleanly(tmp_path, capsys):
    # Sizes past 4300 digits are named as N^L, so these exit 3 and 2
    # rather than crash while printing the expanded integer.
    path = str(Path(__file__).parent / "golden" / "inputs" / "code.json")
    code, out, err = run(capsys, "blockmap-approx", "--input", path,
                         "--n", "20000")
    assert (code, out) == (3, "")
    assert "table of 2^20001 entries" in err
    wide = write(tmp_path / "wide.json", {"N": 2, "m": 20000, "phi": [0]})
    code, out, err = run(capsys, "blockmap-approx", "--input", wide,
                         "--n", "1")
    assert (code, out) == (2, "")
    assert "expected 2^20000" in err


def test_blockmap_cap_exits_at_once_for_a_huge_n(tmp_path, capsys):
    path = write(tmp_path / "three.json",
                 {"N": 3, "m": 2, "phi": [0, 1, 2] * 3})
    start = time.perf_counter()
    code, out, err = run(capsys, "blockmap-approx", "--input", path,
                         "--n", "10000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "table of 3^10000001 entries" in err


def test_blockmap_env_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "64")
    path = write(tmp_path / "code.json", SHIFT_CODE)
    code, _, _ = run(capsys, "blockmap-approx", "--input", path, "--n", "6")
    assert code == 3
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "1024")
    code, _, _ = run(capsys, "blockmap-approx", "--input", path, "--n", "6")
    assert code == 0
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "abc")
    with pytest.raises(td.ValidationError):
        td.config.resolve_cell_cap()
    code, out, err = run(capsys, "blockmap-approx", "--input", path, "--n", "6")
    assert (code, out) == (2, "")
    assert "TRACTABLE_DYN_CELL_CAP" in err


def test_blockmap_csv_words_respect_the_cap(tmp_path, capsys, monkeypatch):
    # n = 1 derives a 4-entry table; words up to length 8 make 1020 rows.
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "100")
    path = write(tmp_path / "code.json", SHIFT_CODE)
    argv = ["blockmap-approx", "--input", path, "--n", "1", "--format", "csv",
            "--words", "8"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "cell cap 100" in err
    target, saved = tmp_path / "rows.csv", tmp_path / "system.json"
    code, out, _ = run(capsys, *argv, "--out", str(target),
                       "--out-system", str(saved))
    assert (code, out) == (3, "")
    assert not target.exists() and not saved.exists()
    monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", "1020")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == 1 + 1020


def test_blockmap_csv_matches_the_fraction_oracle(tmp_path, capsys):
    # Random codes, and codes that mostly copy their first symbol, which
    # split into several terminal classes; words up to 4 where the table
    # stays within 20000 rows.
    rng = random.Random(59)
    path, target = tmp_path / "code.json", tmp_path / "rows.csv"
    several = 0
    for n_symbols, window in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]:
        for copy in (0.0, 0.9):
            phi = [v % n_symbols if rng.random() < copy
                   else rng.randrange(n_symbols)
                   for v in range(n_symbols ** window)]
            write(path, {"N": n_symbols, "m": window, "phi": phi})
            code = td.SlidingBlockCode(n_symbols, window, tuple(phi))
            analysis = td.tractability_report_shiftlike(
                td.derive_gamma(code, 1)).analysis
            several += len(analysis.terminal_pairs) >= 2
            fine = sum(len(p.star_members) for p in analysis.terminal_pairs)
            fanout = n_symbols ** max(window - 1, 1)
            for words in range(1, 5):
                if fine * fanout ** (words - 1) > 20000:
                    break
                code_rc, out, _ = run(
                    capsys, "blockmap-approx", "--input", str(path),
                    "--n", "1", "--format", "csv", "--words", str(words),
                    "--out", str(target))
                assert (code_rc, out) == (0, "")
                assert target.read_bytes() == cylinder_csv(
                    analysis, words).encode(), (phi, words)
    assert several >= 4


def test_cylinder_table_rejects_unequal_fine_weights():
    # blockmap-approx builds shift-like models, which weigh every fine word
    # alike; a model that weighs one fiber unevenly is refused.
    model = td.build_model(["t0", "t1", "t2", "t3"], ["s0", "s1"],
                           [0, 0, 1, 1], [0, 1, 1, 0],
                           [Fraction(1, 3), Fraction(2, 3),
                            Fraction(1, 2), Fraction(1, 2)])
    analysis = td.analyze(model)
    with pytest.raises(td.ValidationError, match="same nu"):
        td.cli._star_cylinder_csv(analysis, 2)


def test_blockmap_trace_needs_both_flags(tmp_path, capsys):
    path = write(tmp_path / "code.json", SHIFT_CODE)
    code, _, err = run(capsys, "blockmap-approx", "--input", path, "--n", "1",
                       "--prefix", "011010011")
    assert code == 2
    assert "trace" in err
    # A failed run writes no file: neither a lone --prefix nor a prefix too
    # short for its trace leaves --out-system (or --trace) behind.
    system_path, trace_path = tmp_path / "f.json", tmp_path / "t.csv"
    code, out, _ = run(capsys, "blockmap-approx", "--input", path, "--n", "1",
                       "--prefix", "0110", "--out-system", str(system_path))
    assert (code, out) == (2, "")
    assert not system_path.exists()
    code, out, _ = run(capsys, "blockmap-approx", "--input", path, "--n", "1",
                       "--prefix", "01", "--trace", str(trace_path),
                       "--out-system", str(system_path))
    assert (code, out) == (2, "")
    assert not system_path.exists() and not trace_path.exists()


def test_blockmap_trace_rows_all_match(tmp_path, capsys):
    path = write(tmp_path / "code.json", SHIFT_CODE)
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "blockmap-approx", "--input", path, "--n", "1",
                     "--prefix", "011010011", "--trace", str(trace_path))
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "step,f_word,g_word,match"
    assert len(lines) == 8
    assert all(line.endswith(",1") for line in lines[1:])


def test_blockmap_dotted_prefix_for_a_large_alphabet(tmp_path, capsys):
    # Past 36 symbols a word is written as dotted decimal symbols; a part
    # that is no decimal integer is invalid input, not a crash.
    path = write(tmp_path / "code.json",
                 {"N": 40, "m": 1, "phi": list(range(40))})
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "blockmap-approx", "--input", path, "--n", "1",
                     "--prefix", "0.39.7", "--depth", "2",
                     "--trace", str(trace_path))
    assert code == 0
    assert trace_path.read_text().splitlines()[1:] == [
        f"{step},0.39,0.39,1" for step in range(3)]
    for prefix in ("x.1", "1..2", "1.", "+1.2"):
        code, out, err = run(capsys, "blockmap-approx", "--input", path,
                             "--n", "1", "--prefix", prefix,
                             "--trace", str(tmp_path / "bad.csv"))
        assert (code, out) == (2, "")
        assert f"bad word literal {prefix!r}" in err
    assert not (tmp_path / "bad.csv").exists()


# --- plmap-approx ---


def test_plmap_report_example_a(tmp_path, capsys):
    path = write(tmp_path / "a.json", SYSTEM_A)
    code, out, _ = run(capsys, "plmap-approx", "--input", path)
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == "1/2"
    assert data["terminal"] == [["I1"], ["I2"]]
    assert data["stationary"] == [{"I1": "1"}, {"I2": "1"}]


def test_plmap_report_example_b_flags_the_leaky_class(tmp_path, capsys):
    path = write(tmp_path / "b.json", SYSTEM_B)
    code, out, _ = run(capsys, "plmap-approx", "--input", path)
    assert code == 0
    data = json.loads(out)
    flagged, = data["caveats"]["visible_but_not_terminal"]
    assert flagged["class"] == ["I2"]


def test_plmap_degenerate_needs_repair_flag(tmp_path, capsys):
    degenerate = dict(SYSTEM_A, vmap=dict(SYSTEM_A["vmap"], **{"1/2": "1"}))
    path = write(tmp_path / "bad.json", degenerate)
    code, _, err = run(capsys, "plmap-approx", "--input", path)
    assert code == 2
    assert err

    code, out, _ = run(capsys, "plmap-approx", "--input", path, "--repair")
    assert code == 0
    data = json.loads(out)
    assert data["repair"]["changed"] is True
    assert "4" in data["repair"]["note"]


SAMPLED = {
    "K": {"vertices": ["0", "1", "2"]},
    "samples": {"0": "1", "1/2": "0", "1": "1", "3/2": "2", "2": "1"},
    "lip": 2.0,
}


def test_plmap_sampled_function_roundoff(tmp_path, capsys):
    path = write(tmp_path / "sampled.json", SAMPLED)
    code, out, _ = run(capsys, "plmap-approx", "--input", path)
    assert code == 0
    data = json.loads(out)
    assert data["roundoff"]["error_bound"] in ("2", "6")
    assert data["roundoff"]["mesh"] == "1"
    assert data["roundoff"]["repaired"] in (True, False)


def test_plmap_rejects_undersized_lipschitz(tmp_path, capsys):
    path = write(tmp_path / "sampled.json", dict(SAMPLED, lip=0.5))
    code, _, err = run(capsys, "plmap-approx", "--input", path)
    assert code == 2
    assert "Lip" in err or "lip" in err


@pytest.mark.parametrize("lip", [float("nan"), float("inf")])
def test_plmap_rejects_non_finite_lipschitz(tmp_path, capsys, lip):
    path = write(tmp_path / "sampled.json", dict(SAMPLED, lip=lip))
    code, out, err = run(capsys, "plmap-approx", "--input", path)
    assert (code, out) == (2, "")
    assert "Lipschitz bound must be finite" in err


@pytest.mark.parametrize("lip, cap", [(1e7, "1000"), (1e308, None)])
def test_plmap_roundoff_respects_the_cell_cap(tmp_path, capsys, monkeypatch,
                                              lip, cap):
    # The subdivision needs about 2 lip cells: counted before any is made.
    if cap is not None:
        monkeypatch.setenv("TRACTABLE_DYN_CELL_CAP", cap)
    path = write(tmp_path / "sampled.json", dict(SAMPLED, lip=lip))
    target = tmp_path / "out.json"
    code, out, err = run(capsys, "plmap-approx", "--input", path,
                         "--out", str(target))
    assert (code, out) == (3, "")
    assert "roundoff subdivision would exceed the cell cap" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sampled.json"]


@pytest.mark.parametrize("flag", ["--out", "--out-system", "--out-plot"])
def test_unwritable_output_exits_2(tmp_path, capsys, flag):
    path = write(tmp_path / "a.json", SYSTEM_A)
    target = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, "plmap-approx", "--input", path,
                       flag, str(target))
    assert code == 2
    assert f"cannot write {target}" in err
    # A directory in place of the file fails at the rename, and the temp
    # file beside it is removed.
    (tmp_path / "dir").mkdir()
    code, _, err = run(capsys, "plmap-approx", "--input", path,
                       flag, str(tmp_path / "dir"))
    assert code == 2
    assert f"cannot write {tmp_path / 'dir'}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "dir"]


def test_plmap_svg_outputs(tmp_path, capsys):
    path = write(tmp_path / "a.json", SYSTEM_A)
    plot_path = tmp_path / "plot.svg"
    code, out, _ = run(capsys, "plmap-approx", "--input", path,
                       "--out-plot", str(plot_path))
    assert code == 0
    assert plot_path.read_text().startswith("<svg")

    code, out, _ = run(capsys, "plmap-approx", "--input", path,
                       "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")


def test_plmap_simulation_attaches_birkhoff(tmp_path, capsys):
    path = write(tmp_path / "a.json", SYSTEM_A)
    code, out, _ = run(capsys, "plmap-approx", "--input", path,
                       "--simulate", "500", "--depth", "20", "--seed", "3")
    assert code == 0
    birkhoff = json.loads(out)["birkhoff"]
    assert len(birkhoff) == 2
    for entry in birkhoff:
        assert entry["pass"] is True


def test_plmap_simulation_builds_one_correspondence(tmp_path, capsys,
                                                     monkeypatch):
    from tractable_dyn import two_alphabet

    calls = []
    original = two_alphabet.basic_set_correspondence

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(two_alphabet, "basic_set_correspondence", counting)
    path = write(tmp_path / "b.json", SYSTEM_B)
    code, out, _ = run(capsys, "plmap-approx", "--input", path,
                       "--simulate", "200", "--depth", "10")
    assert code == 0
    assert len(json.loads(out)["birkhoff"]) == 2
    assert len(calls) == 1


def test_plmap_out_system_round_trip(tmp_path, capsys):
    degenerate = dict(SYSTEM_A, vmap=dict(SYSTEM_A["vmap"], **{"1/2": "1"}))
    path = write(tmp_path / "bad.json", degenerate)
    out_system = tmp_path / "fixed.json"
    code, _, _ = run(capsys, "plmap-approx", "--input", path, "--repair",
                     "--out-system", str(out_system))
    assert code == 0
    code, out, _ = run(capsys, "plmap-approx", "--input", str(out_system))
    assert code == 0
    assert "repair" not in json.loads(out)


@pytest.mark.parametrize("payload, flags, message", [
    (["K", "Kstar", "vmap"], [], "input must be a JSON object"),
    (dict(SYSTEM_A, vmap=["1", "0", "1", "2", "1"]), ["--repair"],
     "'vmap' must be an object"),
    (dict(SYSTEM_A, vmap=["1", "0", "1", "2", "1"]), [],
     "'vmap' must be an object"),
    (dict(SAMPLED, samples=[["0", "1"], ["2", "1"]]), [],
     "'samples' must be an object"),
    (dict(SAMPLED, samples={"0": "1"}), [], "need at least two sample points"),
    (dict(SAMPLED, samples={"0": "1", "1": "0", "2/2": "0", "2": "1"}), [],
     "sample points must have distinct x values"),
    (dict(SAMPLED, samples={"0": "1", "3/2": "1"}), [],
     "samples must cover the whole space"),
    (dict(SAMPLED, lip="3/2"), [], "lip = 3/2 is below the sampled slope 2\n"),
    (dict(SAMPLED, Kstar=SYSTEM_A["Kstar"]), [],
     "input must have fields {K, Kstar, vmap}"),
])
def test_plmap_invalid_inputs_exit_2(tmp_path, capsys, payload, flags,
                                     message):
    path = write(tmp_path / "in.json", payload)
    code, out, err = run(capsys, "plmap-approx", "--input", path, *flags)
    assert (code, out) == (2, "")
    assert message in err


def test_cover_file_with_unknown_keys_exits_2(tmp_path, capsys):
    path = write(tmp_path / "cover.json",
                 {"relation": RELATION_B, "matrix": [[1.0]], "extra": 1})
    code, out, err = run(capsys, "subshift-report", "--input", path)
    assert (code, out) == (2, "")
    assert "cover file must be" in err


@pytest.mark.parametrize("command", ["subshift-report", "plmap-approx"])
def test_simulate_zero_exits_2(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", "x.json", "--simulate", "0"])
    assert exc.value.code == 2
    assert "--simulate must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["relation-analyze"],
                                  ["blockmap-approx", "--n", "1"]])
def test_seed_is_rejected_where_nothing_is_sampled(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", "x.json", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["subshift-report", "plmap-approx"])
def test_seed_defaults_to_zero_where_paths_are_sampled(command):
    parser = build_parser()
    assert parser.parse_args([command, "--input", "x"]).seed == 0
    assert parser.parse_args([command, "--input", "x", "--seed", "9"]).seed == 9
