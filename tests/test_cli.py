"""End-to-end CLI behavior: config validation, CSV output, exit codes."""

import copy
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from conftest import envelope_config, planted_bvp_matrices
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from qeflab import cli, eigensolver, mc, model, qef
from qeflab.errors import SchemaViolation


def base_config(out_dir):
    return {
        "oscillator": {"n": 2, "m": 2,
                       "Theta": [[0.0, 1.0], [-1.0, 0.0]],
                       "R": [[1.0, 0.0], [0.0, 1.0]],
                       "M": [[1.0, 0.0], [0.0, 1.0]],
                       "T": 1.0, "theta": 0.348},
        "grid": {"panels": 8, "nodes_per_panel": 16},
        "eigen": {"capture_fraction": 0.99},
        "qef": {"theta_list": [0.0, 0.348, 15.0]},
        "mc": {"samples": 400, "seed": 11, "batch": 20},
        "fock": {"N": 8, "omega_list": [0.1], "quad_order": 12},
        "output_dir": str(out_dir),
    }


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    header, *rows = path.read_text().strip().split("\n")
    return header.split(","), [r.split(",") for r in rows]


def stderr_code(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


def test_load_config_missing_field(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["oscillator"]["R"]
    path = write_config(tmp_path, cfg)
    with pytest.raises(SchemaViolation, match="oscillator"):
        cli.load_config(path)


SCHEMA = json.loads(resources.files("qeflab").joinpath("config_schema.json").read_text())


def jsonschema_message(cfg):
    """The SchemaViolation text for the error jsonschema.validate raises, or None."""
    exc = jsonschema.exceptions.best_match(Draft202012Validator(SCHEMA).iter_errors(cfg))
    if exc is None:
        return None
    return f"{'/'.join(map(str, exc.absolute_path)) or '(root)'}: {exc.message}"


def load_config_message(tmp_path, cfg):
    """load_config's SchemaViolation text for cfg, or None if accepted."""
    try:
        cli.load_config(write_config(tmp_path, cfg))
    except SchemaViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("section, key, value", [
    ("grid", "panels", "eight"),          # wrong type
    ("oscillator", "R", None),            # missing required key
    ("grid", "spacing", 0.1),             # extra property
    ("oscillator", "T", 0),               # exclusiveMinimum
    ("oscillator", "m", 1),               # minimum
    ("mc", "seed", 2 ** 64),              # maximum
    ("eigen", "capture_fraction", 1),     # exclusiveMaximum
    ("qef", "theta_list", []),            # minItems
    ("fock", "omega_list", [0.1, -0.2]),  # items, then minimum
    ("oscillator", "n", True),            # a bool is not an integer
    ("oscillator", "n", 2.5),             # a non-integral float is not an integer
    ("oscillator", "T", "1"),             # a string is not a number
    ("oscillator", "R", [[1.0, "0"], [0.0, 1.0]]),  # items through $ref
    ("oscillator", "M", [[]]),            # minItems of a row through $ref
    ("oscillator", "Theta", [0.0, 1.0]),  # a row that is not an array
    (None, "output_dir", ""),             # minLength
    (None, "grid", None),                 # missing required section
    (None, "grid", []),                   # a section that is not an object
])
def test_load_config_messages_match_jsonschema(tmp_path, section, key, value):
    # load_config checks configs without jsonschema; the exit-2 payload must
    # still carry the error jsonschema.validate would raise
    cfg = base_config(tmp_path)
    target = cfg if section is None else cfg[section]
    if value is None:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(cfg, SCHEMA)
    where = "/".join(str(p) for p in ref.value.absolute_path) or "(root)"
    with pytest.raises(SchemaViolation) as got:
        cli.load_config(write_config(tmp_path, cfg))
    assert str(got.value) == f"{where}: {ref.value.message}"


@pytest.mark.parametrize("cfg", [
    [],                                                  # a non-object root
    "config",
    {"zeta": 1, "alpha": 2},                             # two extra keys, named sorted
    {"alpha": 1, "oscillator": {}},                      # root faults beat deeper ones
    {"grid": {"panels": "a", "nodes_per_panel": "b"}},   # the last sibling path wins
    {"grid": {"panels": 0, "nodes_per_panel": "b", "x": 1, "y": 2}},
])
def test_load_config_document_messages_match_jsonschema(tmp_path, cfg):
    # whole documents and several faults at once: both report the same fault
    if isinstance(cfg, dict):
        cfg = {**base_config(tmp_path), **cfg}
    assert jsonschema_message(cfg) is not None
    assert load_config_message(tmp_path, cfg) == jsonschema_message(cfg)


def test_load_config_accepts_integer_valued_float(tmp_path):
    # JSON Schema counts 2.0 as an integer
    cfg = base_config(tmp_path)
    cfg["oscillator"]["n"] = 2.0
    assert jsonschema_message(cfg) is None
    assert cli.load_config(write_config(tmp_path, cfg))["oscillator"]["n"] == 2.0


README_CONFIG = {
    "oscillator": {"n": 2, "m": 2,
                   "Theta": [[0.0, 1.0], [-1.0, 0.0]],
                   "R": [[1.0, 0.0], [0.0, 1.0]],
                   "M": [[1.0, 0.0], [0.0, 1.0]],
                   "T": 1.0, "theta": 0.348},
    "grid": {"panels": 8, "nodes_per_panel": 16},
    "eigen": {"capture_fraction": 0.99},
    "qef": {"theta_list": [0.0, 0.348, 0.87]},
    "mc": {"samples": 100000, "seed": 0, "batch": 100},
    # quad_order is no longer in the README; it stays here because it is
    # still accepted and changes nothing
    "fock": {"N": 40, "omega_list": [0.1, 0.2], "quad_order": 40},
    "output_dir": "out",
}


def _paths(node, prefix=()):
    """Every location in a JSON document: the root, each key and each index."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-5, 20)
                | st.sampled_from([2 ** 64 - 1, 2 ** 64, -(2 ** 70), 0.0, -0.0, 1.0, 2.0,
                                   0.5, 0.99, 1e300, -1e-300])
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.text(max_size=3))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


@st.composite
def _mutated_readme_config(draw):
    """The README config with one location replaced, deleted, or given a new
    key (an object) or wrapped in a list (any other value)."""
    doc = {"": copy.deepcopy(README_CONFIG)}
    path = draw(st.sampled_from(list(_paths(doc[""], ("",)))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    op, last = draw(st.sampled_from(["replace", "delete", "add"])), path[-1]
    if op == "replace":
        parent[last] = draw(_JSON)
    elif op == "delete" and parent is not doc:
        del parent[last]
    elif isinstance(parent[last], dict):
        parent[last][draw(st.text(max_size=8))] = draw(_JSON)
    else:
        parent[last] = [parent[last]]
    return doc[""]


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_mutated_readme_config())
def test_load_config_agrees_with_jsonschema_on_mutations(tmp_path, cfg):
    # rejects exactly what Draft202012Validator rejects, with best_match's
    # text, for single- and multi-fault configs alike
    faults = list(Draft202012Validator(SCHEMA).iter_errors(cfg))
    got = load_config_message(tmp_path, cfg)
    if faults:
        assert got == jsonschema_message(cfg)
    else:
        thetas = cfg.get("qef", {}).get("theta_list", [])
        assert got is None or (got == "qef.theta_list must be sorted ascending"
                               and thetas != sorted(thetas))


def _subschemas(schema):
    yield schema
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_checker_implements_every_schema_keyword():
    # the checker raises on a keyword it does not implement, whatever the
    # value; run it over every subschema so a schema edit cannot be ignored
    subs = list(_subschemas(SCHEMA))
    assert {"$ref", "exclusiveMaximum", "minLength"} <= {key for sub in subs for key in sub}
    for sub in subs:
        for value in (None, True, 0, 0.5, "", "x", [], [[0.0]], {}, {"x": 1}):
            list(cli._violations(value, sub, SCHEMA["$defs"]))
    for unknown in ({"pattern": "^a"}, {"additionalProperties": {"type": "string"}}):
        with pytest.raises(ValueError, match="unimplemented schema keyword"):
            list(cli._violations("a", unknown, {}))
    with pytest.raises(KeyError):
        list(cli._violations([], {"$ref": "#/properties/grid"}, SCHEMA["$defs"]))


def test_load_config_unsorted_thetas(tmp_path):
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.5, 0.2]
    with pytest.raises(SchemaViolation, match="sorted"):
        cli.load_config(write_config(tmp_path, cfg))


def test_load_config_rejects_nonfinite(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"oscillator": {"T": Infinity}}')
    with pytest.raises(SchemaViolation, match="non-finite"):
        cli.load_config(str(path))
    # literals beyond the double range: 1e999 parsed to inf, and a
    # 401-digit integer failed in float() after the schema passed it
    huge = "1" + "0" * 400
    for section, key, literal in [("oscillator", "T", "1e999"), ("oscillator", "theta", "1e999"),
                                  ("oscillator", "T", "-1e999"), ("oscillator", "T", huge),
                                  ("oscillator", "R", f"[[{huge}, 0.0], [0.0, 1.0]]"),
                                  ("qef", "theta_list", f"[{huge}]"),
                                  ("fock", "omega_list", f"[0.1, {huge}]")]:
        marker = "9876.54321"
        cfg = base_config(tmp_path)
        cfg[section][key] = float(marker)
        path.write_text(json.dumps(cfg).replace(marker, literal))
        with pytest.raises(SchemaViolation, match="outside the double range"):
            cli.load_config(str(path))
    # 1e-999 underflows to zero, a number inside the range
    cfg = base_config(tmp_path)
    path.write_text(json.dumps(cfg).replace('"theta": 0.348', '"theta": 1e-999'))
    assert cli.load_config(str(path))["oscillator"]["theta"] == 0.0


def test_load_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaViolation, match="not valid JSON"):
        cli.load_config(str(path))
    with pytest.raises(SchemaViolation, match="cannot read"):
        cli.load_config(str(tmp_path / "missing.json"))
    # bytes that are not UTF-8 ended in a UnicodeDecodeError traceback
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(SchemaViolation, match="not UTF-8"):
        cli.load_config(str(path))
    # nesting past the parser's recursion limit ended in a RecursionError
    path.write_text("[" * 100000)
    with pytest.raises(SchemaViolation, match="recursion limit"):
        cli.load_config(str(path))


BAD_CONFIG_FILES = {
    "non-utf8": b'{"a": "\xff"}',
    "deep": b"[" * 100000,
    "T-1e999": json.dumps(base_config("out")).replace('"T": 1.0', '"T": 1e999').encode(),
    "theta-1e999": json.dumps(base_config("out")).replace('"theta": 0.348',
                                                          '"theta": 1e999').encode(),
    "T-401-digits": json.dumps(base_config("out")).replace(
        '"T": 1.0', '"T": 1' + "0" * 400).encode(),
}


@pytest.mark.parametrize("content", BAD_CONFIG_FILES.values(), ids=BAD_CONFIG_FILES.keys())
def test_bad_config_file_is_one_json_error(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["eigen", "--config", str(path), "--out", str(tmp_path / "out")])
    assert not caught
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "SchemaViolation"


def test_model_check_fixture(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["model-check", "--config", path]) == 0
    header, rows = read_rows(tmp_path / "model.csv")
    assert header == ["check", "value", "threshold", "status"]
    assert [r[0] for r in rows] == ["pr_residual_rel", "ccr_roundtrip_rel",
                                    "ale_residual_rel", "spectral_abscissa"]
    assert all(r[-1] == "pass" for r in rows)


def test_model_check_reports_a_failing_abscissa(tmp_path, capsys):
    # a closed oscillator (M = 0) has A = 2 Theta R, whose spectrum is
    # imaginary, so A is not Hurwitz: model.csv still lists the
    # realizability row and the failing abscissa, and leaves out the CCR
    # recovery and ALE rows, which need a Hurwitz A.  README's residual is
    # exactly 0; the n = 4 one is rounding noise (5.6e-17), which must pass
    # although mho = 0
    closed4 = {"n": 4, "m": 2,
               "Theta": [[0.0, 0.3, 0.7, 0.0], [-0.3, 0.0, 0.1, 0.7],
                         [-0.7, -0.1, 0.0, 0.2], [0.0, -0.7, -0.2, 0.0]],
               "R": [[1.3, 0.2, 0.1, 0.0], [0.2, 0.7, 0.0, 0.3],
                     [0.1, 0.0, 1.1, 0.2], [0.0, 0.3, 0.2, 0.9]],
               "M": [[0.0] * 4] * 2}
    for i, osc in enumerate([{"M": [[0.0, 0.0], [0.0, 0.0]]}, closed4]):
        cfg = base_config(tmp_path / str(i))
        cfg["oscillator"].update(osc)
        path = write_config(tmp_path, cfg, name=f"run{i}.json")
        assert cli.main(["model-check", "--config", path]) == 3
        assert capsys.readouterr().err == ""
        _, rows = read_rows(tmp_path / str(i) / "model.csv")
        assert [(r[0], r[-1]) for r in rows] == [("pr_residual_rel", "pass"),
                                                 ("spectral_abscissa", "fail")]
        assert float(rows[0][1]) <= 1e-15
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[0][1]) > 0.0          # the n = 4 row is noise, not an exact 0


def test_model_check_singular_theta(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["oscillator"]["Theta"] = [[0.0, 0.0], [0.0, 0.0]]
    path = write_config(tmp_path, cfg)
    assert cli.main(["model-check", "--config", path]) == 2
    assert stderr_code(capsys) == "SingularTheta"


def test_eigen_outputs(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["eigen", "--config", path]) == 0
    header, rows = read_rows(tmp_path / "eigen_shooting.csv")
    assert header == ["k", "omega", "multiplicity", "bvp_residual"]
    assert len(rows) == 3
    omegas = [float(r[1]) for r in rows]
    assert omegas == sorted(omegas, reverse=True)
    _, ny = read_rows(tmp_path / "eigen_nystrom.csv")
    assert len(ny) == 6
    # shooting and discretized eigenfrequencies agree to grid accuracy
    for k in range(3):
        assert abs(float(ny[k][1]) - omegas[k]) <= 5e-3 * omegas[k]
    header, gram = read_rows(tmp_path / "basis_gram.csv")
    assert header == ["j", "k", "p", "q", "value"]
    assert len(gram) == 36


def test_eigen_capture_shortfall(tmp_path, capsys):
    # the roots sum to hs_exact, 0.999833 of the 8 x 16 grid's hs_total
    cfg = base_config(tmp_path)
    cfg["eigen"]["capture_fraction"] = 0.9999
    path = write_config(tmp_path, cfg)
    assert cli.main(["eigen", "--config", path]) == 3
    assert stderr_code(capsys) == "CaptureUnreachable"
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key, value", [("omega_min", 0.05), ("omega_max", 0.7),
                                        ("samples", 400)])
def test_removed_eigen_fields_are_schema_violations(tmp_path, capsys, key, value):
    # the Nystrom spectrum seeds the roots: no band or sample count is read
    cfg = base_config(tmp_path)
    cfg["eigen"][key] = value
    path = write_config(tmp_path, cfg)
    assert cli.main(["eigen", "--config", path]) == 2
    assert stderr_code(capsys) == "SchemaViolation"


def test_qef_rows(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["qef", "--config", path]) == 0
    header, rows = read_rows(tmp_path / "qef.csv")
    assert header == ["theta", "C", "tail_C", "spectral_radius",
                      "theta_critical", "xi", "xi_classical"]
    assert len(rows) == 3
    by_theta = {float(r[0]): r for r in rows}
    assert float(by_theta[0.0][5]) == 1.0
    assert float(by_theta[0.0][6]) == 1.0
    assert float(by_theta[0.348][5]) == pytest.approx(1.41623441935425, rel=1e-10)
    # supercritical rows are reported, not refused
    assert by_theta[15.0][5] == "diverged"
    assert by_theta[15.0][6] == "diverged"
    _, qkl_rows = read_rows(tmp_path / "qkl.csv")
    assert len(qkl_rows) == 9


def test_validate_pass_and_seed_override(tmp_path):
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.348]
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", path]) == 0
    header, rows = read_rows(tmp_path / "mc.csv")
    assert header == ["theta", "estimator", "mean", "stderr", "n_eff",
                      "diverged_fraction", "seed", "unreliable", "kurtosis"]
    assert [r[1] for r in rows] == ["Z", "N"]
    assert all(r[6] == "11" for r in rows)
    assert all(r[7] == "false" for r in rows)
    assert cli.main(["validate", "--config", path, "--seed", "42"]) == 0
    _, rows = read_rows(tmp_path / "mc.csv")
    assert all(r[6] == "42" for r in rows)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cli_env(**blas):
    """os.environ with the BLAS thread variables replaced by blas, and src importable."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return dict(env, PYTHONPATH=os.pathsep.join(sys.path), **blas)


def test_validate_deterministic_across_threads(tmp_path):
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.348]
    path = write_config(tmp_path, cfg)
    cli.main(["validate", "--config", path])
    first = (tmp_path / "mc.csv").read_bytes()
    cli.main(["validate", "--config", path])
    assert (tmp_path / "mc.csv").read_bytes() == first
    # the CLI runs one BLAS thread unless the user sets a count, so a run
    # with no thread variable writes the one-thread bytes on any core
    # count; two threads changed all six CSVs these three write on the
    # README config
    cfg = copy.deepcopy(README_CONFIG)
    cfg["mc"]["samples"] = 20000
    path = write_config(tmp_path, cfg, "readme.json")
    runs = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"run{len(runs)}"
        results = [subprocess.run([sys.executable, "-m", "qeflab.cli", command, "--config", path,
                                   "--out", str(out)], capture_output=True, text=True,
                                  env=_cli_env(**blas)).returncode
                   for command in ("eigen", "qef", "validate")]
        runs.append((results, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 6
    # and a user's own count stays as set
    code = "import os, qeflab.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    for blas, want in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
                       ({"OMP_NUM_THREADS": "2"}, "None")):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=_cli_env(**blas))
        assert out.stdout.strip() == want


def test_validate_readme_config(tmp_path, capsys):
    # the README example, theta = 0 included: every theta = 0 sample is
    # exactly 1, so both routes must report mean 1 with stderr 0; 3000
    # samples instead of the README's 100000 keep the test short
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.0, 0.348, 0.87]
    cfg["mc"] = {"samples": 3000, "seed": 0, "batch": 100}
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", path]) == 0
    assert capsys.readouterr().out.strip().endswith("validate: PASS")
    _, rows = read_rows(tmp_path / "mc.csv")
    assert [(float(r[0]), r[1]) for r in rows] == [
        (0.0, "Z"), (0.0, "N"), (0.348, "Z"), (0.348, "N"), (0.87, "Z"), (0.87, "N")]
    assert all(float(r[2]) == 1.0 and float(r[3]) == 0.0 for r in rows[:2])


def passive_two_mode_config(out_dir):
    """Two coupled modes (n = 4) driven through one channel pair (m = 2).

    mho = B J B^T has rank 2.  The oscillator is passive and its fields
    are vacuum, so its exact QEF is xi(theta) = e^{n theta T / 2} =
    e^{2 theta T}.
    """
    Omega = np.array([[1.0, 0.5], [0.5, 1.0]])
    cfg = base_config(out_dir)
    cfg["oscillator"] = {"n": 4, "m": 2, "Theta": model.canonical_j(4).tolist(),
                         "R": np.kron(np.eye(2), Omega).tolist(),
                         "M": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                         "T": 1.0, "theta": 0.348}
    cfg["qef"]["theta_list"] = [0.1, 0.348, 0.87]
    cfg["mc"] = {"samples": 20000, "seed": 0, "batch": 100}
    return cfg


def test_fewer_channels_than_variables_run_end_to_end(tmp_path, capsys):
    path = write_config(tmp_path, passive_two_mode_config(tmp_path))
    assert cli.main(["qef", "--config", path]) == 0
    _, rows = read_rows(tmp_path / "qef.csv")
    # measured 2.3e-7, 9.7e-6 and 1.6e-4, as on the README oscillator
    for row, tol in zip(rows, (1e-4, 1e-4, 5e-4)):
        theta = float(row[0])
        assert abs(float(row[5]) / math.exp(2.0 * theta) - 1.0) <= tol
    assert cli.main(["eigen", "--config", path]) == 0
    _, shooting = read_rows(tmp_path / "eigen_shooting.csv")
    _, nystrom = read_rows(tmp_path / "eigen_nystrom.csv")
    omega_1 = float(nystrom[0][1])
    assert shooting and all(abs(float(s[1]) - float(w[1])) <= 2e-4 * omega_1
                            for s, w in zip(shooting, nystrom))
    assert cli.main(["validate", "--config", path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("system", ["readme", "squeezed"])
def test_horizon_two_runs_end_to_end(tmp_path, capsys, system):
    # T = 2 on 8 x 16: the Nystrom seeds refine to the 5 roots a 0.99
    # capture needs; README's xi is 1.8e-7, 8.1e-6 and 1.4e-4 from e^{theta T}
    cfg = base_config(tmp_path)
    cfg["oscillator"]["T"] = 2.0
    if system == "squeezed":
        cfg["oscillator"].update(R=[[1.0, 0.3], [0.3, 2.0]], M=[[1.0, 0.5], [0.2, 1.0]])
    cfg["qef"]["theta_list"] = [0.1, 0.348, 0.87]
    cfg["mc"] = {"samples": 20000, "seed": 0, "batch": 100}
    path = write_config(tmp_path, cfg)
    for command in ("eigen", "qef", "validate"):
        assert cli.main([command, "--config", path]) == 0
    assert capsys.readouterr().err == ""
    _, shooting = read_rows(tmp_path / "eigen_shooting.csv")
    _, nystrom = read_rows(tmp_path / "eigen_nystrom.csv")
    omega_1 = float(nystrom[0][1])
    assert len(shooting) == 5
    assert all(abs(float(s[1]) - float(w[1])) <= 2e-4 * omega_1
               for s, w in zip(shooting, nystrom))
    if system == "readme":
        _, rows = read_rows(tmp_path / "qef.csv")
        for row in rows:
            assert abs(float(row[5]) / math.exp(2.0 * float(row[0])) - 1.0) <= 1e-3


def test_closed_oscillator_runs_eigen_and_refuses_qef(tmp_path, capsys):
    # M = 0 leaves L with the rank-2 kernel J e^{2(s - t)J}, one pair at
    # omega = T; without dissipation there is no invariant state
    cfg = base_config(tmp_path)
    cfg["oscillator"]["M"] = [[0.0, 0.0], [0.0, 0.0]]
    path = write_config(tmp_path, cfg)
    assert cli.main(["eigen", "--config", path]) == 0
    _, shooting = read_rows(tmp_path / "eigen_shooting.csv")
    _, nystrom = read_rows(tmp_path / "eigen_nystrom.csv")
    assert len(shooting) == 1
    assert float(shooting[0][1]) == pytest.approx(1.0, rel=1e-12)
    assert float(nystrom[0][1]) == pytest.approx(1.0, rel=1e-12)
    capsys.readouterr()
    for command in ("qef", "validate"):
        assert cli.main([command, "--config", path]) == 3
        assert stderr_code(capsys) == "NotHurwitz"


def test_validate_shares_draws_and_skips_supercritical(tmp_path):
    # one Monte-Carlo pass serves every subcritical theta of the list; the
    # supercritical one is skipped, and every row equals the row of a run
    # over its theta alone
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.348, 0.87, 15.0]
    assert cli.main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
    _, rows = read_rows(tmp_path / "mc.csv")
    assert [(float(r[0]), r[1]) for r in rows] == [
        (0.348, "Z"), (0.348, "N"), (0.87, "Z"), (0.87, "N")]
    for theta in (0.348, 0.87):
        one = {**cfg, "qef": {"theta_list": [theta]}, "output_dir": str(tmp_path / str(theta))}
        assert cli.main(["validate", "--config", write_config(tmp_path, one, f"{theta}.json")]) == 0
        _, one_rows = read_rows(tmp_path / str(theta) / "mc.csv")
        assert one_rows == [r for r in rows if float(r[0]) == theta]


@pytest.mark.parametrize("section, key, value, command", [
    ("oscillator", "n", 2, "eigen"),
    ("oscillator", "m", 2, "model-check"),
    ("grid", "panels", 8, "qef"),
    ("grid", "nodes_per_panel", 16, "eigen"),
    ("mc", "samples", 400, "validate"),
    ("mc", "batch", 20, "validate"),
    ("mc", "seed", 11, "validate"),
    ("mc", "increments_per_panel", 8, "validate"),
    ("fock", "N", 8, "fock"),
    ("fock", "quad_order", 12, "fock"),
])
def test_integer_valued_float_runs_as_integer(tmp_path, section, key, value, command):
    # JSON Schema accepts 8.0 as an integer, so the CLI must run it as 8
    outputs = []
    for kind in (int, float):
        cfg = base_config(tmp_path / kind.__name__)
        cfg[section][key] = kind(value)
        path = write_config(tmp_path, cfg, f"{kind.__name__}.json")
        assert cli.main([command, "--config", path]) == 0
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / kind.__name__).iterdir()})
    assert outputs[0] == outputs[1]


def test_validate_rejects_samples_below_two_batches(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["mc"] = {"samples": 150, "seed": 0, "batch": 100}
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", path]) == 2
    assert stderr_code(capsys) == "InvalidParameter"


@pytest.mark.parametrize("command", ["qef", "validate"])
def test_one_spectral_cache_per_run(tmp_path, monkeypatch, command):
    built = []

    class CountingCache(qef.SpectralCache):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    # the covariance matrix P has size N n = 256 on this grid
    dense = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if a.shape == (256, 256):
            dense.append(a)
        return eigh(a, *args, **kwargs)

    for module in (cli, qef, mc):
        monkeypatch.setattr(module, "SpectralCache", CountingCache)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.0, 0.348, 0.87, 15.0]
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path]) == 0
    assert len(built) == 1
    # one factorization of P per run: the N-route samples its root
    assert len(dense) == 1


@pytest.mark.parametrize("command", ["qef", "validate"])
def test_one_closed_form_pass_per_run(tmp_path, monkeypatch, command):
    # every theta's C, spectral radius and divergence test come from
    # compute_qef alone: one Lanczos run per theta of the list, and the
    # Monte-Carlo pass calls neither compute_C nor SpectralCache.lambdas
    callers = {"_lanczos": [], "compute_C": [], "lambdas": []}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            callers[name].append(sys._getframe(1).f_globals["__name__"])
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_lanczos", "compute_C"):
        monkeypatch.setattr(qef, name, recording(name, getattr(qef, name)))
    # were mc to import compute_C by name again, its calls would reach the recorder too
    monkeypatch.setattr(mc, "compute_C", qef.compute_C, raising=False)
    monkeypatch.setattr(qef.SpectralCache, "lambdas",
                        recording("lambdas", qef.SpectralCache.lambdas))
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.0, 0.348, 0.87, 15.0]
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
    assert callers == {"_lanczos": ["qeflab.qef"] * 4, "compute_C": ["qeflab.qef"] * 4,
                       "lambdas": ["qeflab.qef"] * 4}


@pytest.mark.parametrize("command, section, change, error", [
    ("qef", "qef", None, "SchemaViolation"),
    ("validate", "qef", None, "SchemaViolation"),
    ("validate", "mc", None, "SchemaViolation"),
    ("validate", "mc", {"samples": 150, "seed": 0, "batch": 100}, "InvalidParameter"),
], ids=["qef-no-qef", "validate-no-qef", "validate-no-mc", "validate-bad-mc"])
def test_config_errors_come_before_numeric_work(tmp_path, capsys, command, section, change,
                                               error):
    # a capture above hs_exact / hs_total = 0.999833 fails the basis (exit
    # 3), but a missing or invalid section the command reads is a config
    # error first
    cfg = copy.deepcopy(README_CONFIG)
    cfg["eigen"]["capture_fraction"] = 0.9999
    cfg["output_dir"] = str(tmp_path)
    assert cli.main([command, "--config", write_config(tmp_path, cfg, "capture.json")]) == 3
    assert stderr_code(capsys) == "CaptureUnreachable"
    if change is None:
        del cfg[section]
    else:
        cfg[section] = change
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert stderr_code(capsys) == error


def test_theta_cells_agree_across_files(tmp_path):
    # an integer theta in the config is written as the float every file
    # computes with, in qkl.csv and mc.csv as in qef.csv
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0, 0.348]
    path = write_config(tmp_path, cfg)
    assert cli.main(["qef", "--config", path]) == 0
    assert cli.main(["validate", "--config", path]) == 0
    cells = {name: sorted({row[0] for row in read_rows(tmp_path / name)[1]})
             for name in ("qef.csv", "qkl.csv", "mc.csv")}
    assert cells == dict.fromkeys(cells, ["0.0000000000000000e+00", f"{0.348:.16e}"])


def test_validate_refuses_all_supercritical(tmp_path, capsys):
    # with no subcritical theta there is nothing to validate: not a PASS
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [15.0]
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", path]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "SupercriticalTheta"
    assert "qef.theta_list" in err["message"] and "9.1397" in err["message"]
    assert not (tmp_path / "mc.csv").exists()


def test_validate_requires_mc_section(tmp_path, capsys):
    cfg = base_config(tmp_path)
    del cfg["mc"]
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", path]) == 2
    assert stderr_code(capsys) == "SchemaViolation"


def test_validate_rejects_tiny_sample_count(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["mc"]["samples"] = 0
    path = write_config(tmp_path, cfg)
    assert cli.main(["validate", "--config", path]) == 2
    assert stderr_code(capsys) == "SchemaViolation"


@pytest.mark.parametrize("command, section, key", [
    ("fock", "fock", "N"),
    ("eigen", "grid", "panels"),
    ("eigen", "grid", "nodes_per_panel"),
    ("validate", "mc", "samples"),
    ("validate", "mc", "increments_per_panel"),
])
def test_size_beyond_exact_doubles_is_one_json_error(tmp_path, capsys, command, section, key):
    # 10**30 ended in numpy's ValueError or OverflowError traceback, exit 1;
    # the schema caps every size at 2**53 - 1, the largest integer a double
    # holds exactly, whose first array is already 64 PiB
    cfg = base_config(tmp_path)
    cfg[section][key] = 10 ** 30
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert json.loads(line) == {
        "error": "SchemaViolation",
        "message": f"{section}/{key}: {10 ** 30} is greater than the maximum of {2 ** 53 - 1}"}
    assert not list(tmp_path.glob("*.csv"))


def test_group_beyond_numpy_size_limit_is_one_json_error(tmp_path, capsys):
    # each size passes the 2**53 - 1 cap, but one group's draws are 2**52
    # rows of 8 * 63 * 2 normals, more bytes than numpy's index type holds:
    # run_group's np.empty raised a bare ValueError, exit 1
    cfg = copy.deepcopy(README_CONFIG)
    cfg["mc"].update(samples=2 ** 53 - 1, batch=2, increments_per_panel=63)
    cfg["output_dir"] = str(tmp_path)
    assert cli.main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "InvalidParameter"
    assert "mc.samples" in payload["message"] and "mc.batch" in payload["message"]
    assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("command, section, key, value, fields", [
    ("eigen", "grid", "panels", 200000, "grid.panels = 200000 and grid.nodes_per_panel = 16"),
    ("validate", "mc", "increments_per_panel", 10 ** 8,
     "grid.panels = 8 and mc.increments_per_panel = 100000000"),
])
def test_grid_beyond_physical_memory_is_refused_before_allocating(tmp_path, command, section,
                                                                   key, value, fields):
    # a dense (N n)^2 Nystrom matrix, or the (m n)^2 midpoint kernel of the
    # Z-route, beyond the machine's memory can never fit; the run allocated
    # 3.05 GiB of lag exponentials, or 5.96 GiB of increment bounds, before
    # numpy failed, and under a 2 GiB address space it ended in the generic
    # "cannot make" message instead of naming the fields
    cfg = copy.deepcopy(README_CONFIG)
    cfg[section][key] = value
    cfg["output_dir"] = str(tmp_path)
    limit = 2 * 2 ** 30
    out = subprocess.run(
        [sys.executable, "-m", "qeflab.cli", command, "--config", write_config(tmp_path, cfg)],
        capture_output=True, text=True, env=_cli_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert out.returncode == 2 and out.stdout == ""
    [line] = out.stderr.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "InvalidParameter"
    assert payload["message"].startswith(fields + " with oscillator.n = 2 give a dense")
    assert "bytes of physical memory" in payload["message"]
    assert not list(tmp_path.glob("*.csv"))


def test_validate_rejects_single_batch(tmp_path, capsys):
    # the batch-means standard error divides by batch - 1
    cfg = copy.deepcopy(README_CONFIG)
    cfg["mc"] = {"samples": 40, "seed": 0, "batch": 1}
    cfg["output_dir"] = str(tmp_path)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
    assert len(err) == 1
    assert "mc/batch" in json.loads(err[0])["message"]
    assert not (tmp_path / "mc.csv").exists()


def test_fock_pass_and_tolerance_breach(tmp_path):
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.main(["fock", "--config", path]) == 0
    header, rows = read_rows(tmp_path / "fock.csv")
    assert header == ["N", "omega", "corner_error", "ode_residual"]
    assert len(rows) == 1
    assert rows[0][0] == "8"
    cfg["fock"]["corner_tol"] = 1e-16
    path = write_config(tmp_path, cfg, name="tight.json")
    assert cli.main(["fock", "--config", path]) == 3


def test_fock_ignores_quad_order(tmp_path):
    # the Gaussian average is in closed form; quad_order is accepted but unused
    outputs = []
    for order in (12, 40):
        cfg = copy.deepcopy(README_CONFIG)
        cfg["fock"]["quad_order"] = order
        cfg["output_dir"] = str(tmp_path / str(order))
        assert cli.main(["fock", "--config", write_config(tmp_path, cfg)]) == 0
        outputs.append((tmp_path / str(order) / "fock.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_fock_ode_step_is_refused(tmp_path, capsys):
    # the ODE check's derivative is exact, so its difference step left the schema
    code, err, _ = run_fock(tmp_path, capsys, {"N": 8, "omega_list": [0.1], "ode_step": 1e-3})
    assert code == 2
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "SchemaViolation"
    assert "ode_step" in payload["message"]


def run_fock(tmp_path, capsys, fock_cfg):
    """Exit code, stderr lines and fock.csv cells of one fock run.

    numpy reports through the warnings module, which pytest captures
    instead of printing; each such warning counts as a stderr line here.
    """
    cfg = base_config(tmp_path)
    cfg["fock"] = fock_cfg
    path = write_config(tmp_path, cfg)
    (tmp_path / "fock.csv").unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["fock", "--config", path])
    err = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
    cells = read_rows(tmp_path / "fock.csv")[1] if code == 0 else []
    return code, err, cells


@pytest.mark.parametrize("fock_cfg, fields", [
    # e^{omega (2N - 3)} overflows: exited 0 with a nan corner_error
    ({"N": 120, "omega_list": [3.0], "quad_order": 40}, ("fock.N", "fock.omega_list")),
    # the same overflow used to print numpy warnings before the JSON line
    ({"N": 40, "omega_list": [10.0], "quad_order": 40}, ("fock.N", "fock.omega_list")),
    # a bad value after a good one still ends the run in one JSON error
    ({"N": 8, "omega_list": [0.5, 25.0], "quad_order": 12}, ("fock.omega_list", "25.0")),
    # tanh omega rounds to 1: exited 2 with a message about sigma naming no field
    ({"N": 8, "omega_list": [20.0], "quad_order": 12}, ("fock.omega_list", "20.0", "19")),
    # a 5e6-level basis needs a 182 TiB matrix, beyond a 47-bit address
    # space, so its allocation fails at once whatever the overcommit
    # policy: numpy's _ArrayMemoryError traceback ended the run, exit 1
    ({"N": 5 * 10 ** 6, "omega_list": [0.1]}, ("cannot make", "TiB")),
])
def test_fock_out_of_range_is_one_json_error(tmp_path, capsys, fock_cfg, fields):
    code, err, _ = run_fock(tmp_path, capsys, fock_cfg)
    assert code == 2
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "InvalidParameter"
    assert all(field in payload["message"] for field in fields)


def test_fock_large_basis_stays_finite(tmp_path, capsys):
    # a 160-node Gauss-Hermite rule overflowed here; the closed form does not
    code, err, cells = run_fock(tmp_path, capsys,
                                {"N": 120, "omega_list": [2.9], "quad_order": 160})
    assert code == 0
    assert err == []
    assert all(math.isfinite(float(cell)) for row in cells for cell in row)


def test_fock_near_sigma_sup_stays_finite(tmp_path, capsys):
    # sigma = sqrt(2 tanh 10) lies within 5e-9 of sqrt(2), where f ends;
    # the ODE check evaluates f and f' at sigma only, so the cells exist
    code, err, cells = run_fock(tmp_path, capsys,
                                {"N": 8, "omega_list": [10.0], "quad_order": 12})
    assert code == 0
    assert err == []
    assert all(math.isfinite(float(cell)) for row in cells for cell in row)


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(N=st.integers(4, 160), omegas=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=2))
def test_fock_reports_finite_cells_or_one_json_error(tmp_path, capsys, N, omegas):
    code, err, cells = run_fock(tmp_path, capsys, {"N": N, "omega_list": omegas})
    assert code in (0, 2, 3)
    assert err == [] or (len(err) == 1 and isinstance(json.loads(err[0]), dict))
    assert all(math.isfinite(float(cell)) for row in cells for cell in row)


def test_fock_at_a_thousand_levels_meets_the_smoke_bounds(tmp_path, capsys):
    # the CI smoke's bounds relative to the corner scale e^{omega (N - 1)},
    # at a basis far above the other tests' N <= 160
    code, err, cells = run_fock(tmp_path, capsys, {"N": 1000, "omega_list": [0.1]})
    assert code == 0
    assert err == []
    N, omega, corner, ode = (float(cell) for cell in cells[0])
    assert (N, omega) == (1000.0, 0.1)
    scale = math.exp(omega * (N - 1))
    assert corner <= 1e-4 * scale
    assert ode <= 1e-6 * scale


def test_long_horizon_qef_succeeds(tmp_path, capsys):
    # at T = 16 the exponential's shooting eigenfunctions were far from
    # orthonormal, and the Gram gate ended the run; on the split, qef exits
    # 0 with an empty stderr, xi = 1 at theta = 0, 1.6e-4 from e^{theta T}
    # at 0.348 (two panels per unit of T), and theta = 15 supercritical
    cfg = base_config(tmp_path)
    cfg["oscillator"]["T"] = 16.0
    cfg["grid"] = {"panels": 32, "nodes_per_panel": 16}
    path = write_config(tmp_path, cfg)
    assert cli.main(["qef", "--config", path]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_rows(tmp_path / "qef.csv")
    assert [row[-2] for row in rows][::2] == ["1.0000000000000000e+00", "diverged"]
    assert abs(float(rows[1][-2]) / math.exp(0.348 * 16.0) - 1.0) <= 1e-3


def test_broken_assembly_is_one_json_error(tmp_path, capsys, monkeypatch):
    # the scan's built-in check of D(omega) ends the run with exit 3
    monkeypatch.setattr(eigensolver, "bvp_matrices", planted_bvp_matrices("transpose"))
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["eigen", "--config", path]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "DeterminantIdentityViolated"
    assert not any(tmp_path.glob("*.csv"))


def test_long_horizon_squeezed_eigen_succeeds(tmp_path, capsys):
    # squeezed oscillator at T = 4: the exponential's eigenfunctions were
    # not orthonormal (Gram deviation 8.1e-7), and the Gram gate ended the
    # run; on the split, eigen writes 8 pairs within 2.6e-5 omega_1 of the
    # Nystrom rows, with an empty stderr
    cfg = base_config(tmp_path)
    cfg["oscillator"].update(R=[[1.0, 0.3], [0.3, 2.0]], M=[[1.0, 0.5], [0.2, 1.0]], T=4.0)
    cfg["grid"] = {"panels": 32, "nodes_per_panel": 16}
    path = write_config(tmp_path, cfg)
    assert cli.main(["eigen", "--config", path]) == 0
    assert capsys.readouterr().err == ""
    assert max(shooting_gaps(tmp_path)) <= 2e-4


def shooting_gaps(out):
    """|omega_shooting - omega_Nystrom| / omega_1 row by row, from eigen's CSVs."""
    _, shooting = read_rows(out / "eigen_shooting.csv")
    _, nystrom = read_rows(out / "eigen_nystrom.csv")
    top = float(nystrom[0][1])
    return [abs(float(s[1]) - float(w[1])) / top for s, w in zip(shooting, nystrom)]


@pytest.mark.parametrize("T", [200.0, 400.0])
def test_horizon_beyond_the_exponential_is_one_json_error(tmp_path, capsys, T):
    # README oscillator on 2 x 4: e^{T D(omega)} overflowed at T = 400 and
    # held the tail check off by 4.2e-2 at T = 200.  On the split the tail
    # check passes, and the grid's top Nystrom seed (panels 100 wide) has no
    # root: one JSON RefinementStalled naming it, with no numpy warning
    cfg = base_config(tmp_path)
    cfg["oscillator"]["T"] = T
    cfg["grid"] = {"panels": 2, "nodes_per_panel": 4}
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["eigen", "--config", path]) == 3
    err = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "RefinementStalled"
    assert "has no kernel" in payload["message"]
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("T, R, M", [
    (1e6, None, None),                                  # README
    (100.0, [[1e4, 0.0], [0.0, 1e4]], None),            # T ||A||_1 = 4e6
    (1e6, [[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]]),   # closed oscillator
])
def test_huge_horizon_is_one_json_error(tmp_path, capsys, T, R, M):
    # hs_exact's work grows with log(T ||A||_1), not T ||A||_1, so these end in
    # one JSON verdict of the scan on the 2 x 4 grid, not in a MemoryError:
    # RefinementStalled, as the grid's seeds have no roots (the tail check
    # passes, 1.7e-7 off at T = 1e6 with omega_inf placed by hs_exact; placed
    # by the grid's hs_total, 2.7e11 on panels 5e5 wide, it read rounding)
    cfg = base_config(tmp_path)
    cfg["oscillator"]["T"] = T
    cfg["oscillator"].update({k: v for k, v in (("R", R), ("M", M)) if v is not None})
    cfg["grid"] = {"panels": 2, "nodes_per_panel": 4}
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["eigen", "--config", path]) == 3
    err = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "RefinementStalled"
    assert not any(tmp_path.glob("*.csv"))


def test_long_horizon_false_roots_never_reach_a_basis(tmp_path, capsys):
    # README oscillator at T = 8: on the exponential the scan certified
    # minima with no Nystrom partner (3 of 11), and the Gram gate refused
    # their basis (deviation 0.30).  On the split every one of the 10
    # shooting omegas has its Nystrom partner, within 3.2e-5 omega_1
    cfg = base_config(tmp_path)
    cfg["oscillator"]["T"] = 8.0
    cfg["eigen"]["capture_fraction"] = 0.95
    cfg["grid"] = {"panels": 64, "nodes_per_panel": 16}
    path = write_config(tmp_path, cfg)
    assert cli.main(["eigen", "--config", path]) == 0
    assert capsys.readouterr().err == ""
    gaps = shooting_gaps(tmp_path)
    assert len(gaps) == 10
    assert max(gaps) <= 2e-4


@pytest.mark.parametrize("index", range(20))
def test_envelope_slice_fails_only_by_contract(tmp_path, capsys, index):
    # 20 seeded draws of the operating-envelope corpus: every run of the
    # four config-driven commands succeeds or ends in a verdict (model-check
    # 3 from a failing row, validate 4) with an empty stderr, or exits 2 or
    # 3 with one JSON line, and no numpy RuntimeWarning escapes
    path = write_config(tmp_path, envelope_config(np.random.default_rng([21, index]), tmp_path))
    for command, verdict in (("model-check", 3), ("eigen", None), ("qef", None),
                             ("validate", 4)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--config", path])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3, 4)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code in (0, verdict):
            assert err == []
        else:
            assert len(err) == 1 and "error" in json.loads(err[0])


@pytest.mark.parametrize("command", ["qef", "validate"])
def test_drift_not_hurwitz_is_refused_before_the_eigen_scan(tmp_path, capsys, command):
    # envelope seed 22, config 58 has no stationary state; its eigen scan
    # stalls, but the closed form needs P0 first and refuses the drift
    path = write_config(tmp_path, envelope_config(np.random.default_rng([22, 58]), tmp_path))
    assert cli.main([command, "--config", path]) == 3
    assert stderr_code(capsys) == "NotHurwitz"
    assert cli.main(["eigen", "--config", path]) == 3
    assert stderr_code(capsys) == "RefinementStalled"


@pytest.mark.parametrize("index", [23, 37])
def test_validate_fail_names_each_missing_route(tmp_path, capsys, index):
    # envelope seed 22, configs 23 and 37 exit 4: one stdout line per
    # (theta, route) outside 3 standard errors of xi gives its z-score and
    # 2 theta r, here past 1, where the estimator's variance is infinite
    path = write_config(tmp_path, envelope_config(np.random.default_rng([22, index]), tmp_path))
    assert cli.main(["qef", "--config", path]) == 0
    _, qef_rows = read_rows(tmp_path / "qef.csv")
    capsys.readouterr()
    assert cli.main(["validate", "--config", path]) == 4
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "validate: FAIL"
    closed = {float(row[0]): (float(row[3]), float(row[5]))
              for row in qef_rows if row[5] != "diverged"}
    _, mc_rows = read_rows(tmp_path / "mc.csv")
    want = []
    for row in mc_rows:
        theta, mean, stderr = float(row[0]), float(row[2]), float(row[3])
        radius, xi = closed[theta]
        if abs(mean - xi) > 3.0 * stderr:
            assert row[7] == "true"
            want.append((theta, row[1], (mean - xi) / stderr, 2.0 * theta * radius))
    assert want
    got = [line for line in out if line.startswith("validate: theta")]
    assert len(got) == len(want)
    for line, (theta, route, z, x) in zip(got, want):
        assert line.startswith(f"validate: theta {theta:.6g} route {route} misses xi by ")
        assert f"z = {z:+.3g} standard errors; 2 theta r = {x:.3g}" in line
        assert x >= 1.0 and line.endswith(">= 1, where the estimator's variance is infinite")


def test_out_override(tmp_path):
    cfg = base_config(tmp_path / "configured")
    path = write_config(tmp_path, cfg)
    override = tmp_path / "elsewhere"
    assert cli.main(["model-check", "--config", path,
                     "--out", str(override)]) == 0
    assert (override / "model.csv").exists()
    assert not (tmp_path / "configured" / "model.csv").exists()


CONFIG = "<config>"


@pytest.mark.parametrize("argv, named", [
    ([], "missing command"),
    (["bogus", "--config", CONFIG], "'bogus'"),
    (["eigen"], "--config"),
    (["eigen", "--config"], "--config"),
    (["eigen", "--config", CONFIG, "--seed", "abc"], "'abc'"),
    (["eigen", "--config", CONFIG, "--seed", "-1"], "'-1'"),
    (["validate", "--config", CONFIG, "--seed", str(2 ** 64)], str(2 ** 64)),
    (["eigen", "--config", CONFIG, "--extra", "1"], "'--extra'"),
    (["eigen", "--config", CONFIG, "stray"], "'stray'"),
], ids=["empty", "unknown-command", "no-config", "config-without-value", "seed-abc",
        "seed-negative", "seed-2**64", "unknown-option", "stray-argument"])
def test_malformed_command_line_is_one_usage_error(tmp_path, capsys, argv, named):
    # no usage text and no SystemExit: one JSON line naming the argument, exit 2
    path = write_config(tmp_path, base_config(tmp_path))
    argv = [path if arg == CONFIG else arg for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        pytest.fail(f"main raised SystemExit({exc.code})")
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UsageError"
    assert named in payload["message"]
    assert not any(tmp_path.rglob("*.csv"))


def test_equals_form_and_last_option_wins(tmp_path):
    path = write_config(tmp_path, base_config(tmp_path / "configured"))
    first, last = tmp_path / "first", tmp_path / "last"
    assert cli.main(["model-check", f"--config={path}", f"--out={first}", "--out", str(last)]) == 0
    assert (last / "model.csv").exists()
    assert not first.exists() and not (tmp_path / "configured").exists()


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["eigen", "-h"]])
def test_help_is_one_usage_line(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [cli.USAGE]
    assert err == ""


def test_cli_run_never_imports_argparse(tmp_path):
    # argparse costs milliseconds per call to import and build; the CLI parses by hand
    path = write_config(tmp_path, base_config(tmp_path))
    code = ("import sys; from qeflab import cli; "
            f"rc = cli.main(['fock', '--config', {path!r}]); "
            "print(rc, 'argparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command", ["eigen", "qef"])
def test_nonfinite_hs_norm_is_one_json_error(tmp_path, capsys, command):
    # at T = 1e300 the kernel quadrature gives a nan HS norm, at T = 1e-300
    # a zero one; either is an input error that names oscillator.T, where a
    # band of (nan, nan) or (0.0, 0.0) would name no config field
    for T in (1e300, 1e-300):
        cfg = base_config(tmp_path)
        cfg["oscillator"]["T"] = T
        path = write_config(tmp_path, cfg)
        assert cli.main([command, "--config", path]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InvalidParameter"
        assert "oscillator.T" in err["message"] and "HS norm" in err["message"]
        assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["model-check", "eigen", "qef", "validate"])
def test_ragged_matrix_is_a_schema_violation(tmp_path, capsys, command):
    # the schema cannot say "rectangular"; the CLI must still exit 2, naming the field
    cfg = base_config(tmp_path)
    cfg["oscillator"]["R"] = [[1.0], [0.0, 1.0]]
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "SchemaViolation",
                   "message": "oscillator/R: rows must all have the same length"}


@pytest.mark.parametrize("command", ["model-check", "eigen", "qef", "validate"])
def test_asymmetric_R_is_one_json_error(tmp_path, capsys, command):
    # with an asymmetric R, A = 2 Theta (R + M^T J M) describes no
    # Hamiltonian: the spec is refused before any check or kernel work.
    # At 1e300 the Frobenius norm of R overflowed, the tolerance became inf
    # and the spec was accepted
    for R in ([[1.0, 0.5], [0.0, 1.0]], [[1e300, 1e300], [0.0, 1e300]]):
        cfg = base_config(tmp_path)
        cfg["oscillator"]["R"] = R
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([command, "--config", path]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "InvalidParameter",
                                        "message": "R is not symmetric within tolerance"}
        assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["model-check", "eigen", "qef", "validate"])
@pytest.mark.parametrize("oscillator, error", [
    # A = 2 Theta (R + M^T J M) overflows: numpy warnings, then a traceback
    # from is_hurwitz's eigvals on inf entries
    ({"Theta": [[0.0, 1e200], [-1e200, 0.0]], "R": [[1e200, 0.0], [0.0, 1e200]]}, "NonFinite"),
    ({"M": [[1e160, 0.0], [0.0, 1e160]]}, "NonFinite"),
    # A is finite but A Theta overflows: warnings before each outcome
    ({"Theta": [[0.0, 1e150], [-1e150, 0.0]], "R": [[1e150, 0.0], [0.0, 1e150]]}, "NonFinite"),
    # A is finite but norms of R and of A Theta overflowed, and so did the
    # kernel's matrix exponentials, each with a warning before the outcome
    ({"R": [[1e300, 0.0], [0.0, 1e300]]}, None),
], ids=["Theta-R-1e200", "M-1e160", "Theta-R-1e150", "R-1e300"])
def test_overflowing_spec_is_one_json_error(tmp_path, capsys, command, oscillator, error):
    cfg = base_config(tmp_path)
    cfg["oscillator"].update(oscillator)
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", path])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 2, 3)
    if code == 0:
        assert err == []
        return
    assert len(err) == 1
    payload = json.loads(err[0])
    assert error is None or payload["error"] == error
    if error == "NonFinite":
        assert code == 2 and "oscillator.Theta, R and M" in payload["message"]
    assert not any(tmp_path.glob("*.csv"))


def test_huge_theta_diverges_instead_of_overflowing(tmp_path):
    # far past the critical value, with C still finite, the row must read
    # diverged, not raise, and validate tests the other thetas
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.348, 1e10]
    path = write_config(tmp_path, cfg)
    assert cli.main(["qef", "--config", path]) == 0
    _, rows = read_rows(tmp_path / "qef.csv")
    assert [r[5] == "diverged" for r in rows] == [False, True]
    assert rows[1][6] == "diverged"
    assert all(np.isfinite(float(cell)) for cell in rows[1][1:5])
    assert cli.main(["validate", "--config", path]) == 0
    _, rows = read_rows(tmp_path / "mc.csv")
    assert [float(r[0]) for r in rows] == [0.348, 0.348]


@pytest.mark.parametrize("command", ["qef", "validate"])
def test_theta_whose_C_overflows_is_one_json_error(tmp_path, capsys, command):
    # theta^2 overflows a double in C's tail term, so no finite row exists:
    # one JSON error naming the field and the value, and no CSV
    cfg = base_config(tmp_path)
    cfg["qef"]["theta_list"] = [0.0, 1e300]
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidParameter"
    assert "qef.theta_list" in err["message"] and "1e+300" in err["message"]
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_output_dir_that_is_a_file(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    path = write_config(tmp_path, base_config(taken))
    assert cli.main([command, "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SchemaViolation"
    assert err["message"].startswith("cannot create output directory: ")


@pytest.mark.parametrize("command, first", [
    ("model-check", "model.csv"), ("eigen", "eigen_shooting.csv"), ("qef", "qef.csv"),
    ("validate", "mc.csv"), ("fock", "fock.csv")])
def test_unwritable_output_is_one_json_error(tmp_path, capsys, command, first):
    # a directory in the place of the command's first CSV: one JSON line
    # and exit 2, as for an output directory that cannot be created
    (tmp_path / first).mkdir()
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "SchemaViolation"
    assert err["message"].startswith("cannot write output file: ")
    assert first in err["message"]
    assert "wrote" not in captured.out
