import json
import math
from pathlib import Path

from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcenter import cli
from hypcenter import measures as ms
from hypcenter.errors import SchemaError

TANH = math.tanh
GOLDEN = Path(__file__).parent / "golden"

SPHERE3 = {
    "dimension": 2,
    "atoms": [
        {"x": [1.0, 0.0], "w": 1.0},
        {"x": [-0.5, 0.8660254037844386], "w": 1.0},
        {"x": [-0.5, -0.8660254037844386], "w": 1.0},
    ],
    "weight": {"kind": "identity", "params": {}},
}

TWO_ZEROS = {
    "dimension": 1,
    "atoms": [{"x": [TANH(2.0)], "w": 1.0}, {"x": [-TANH(2.0)], "w": 1.0}],
    "weight": {"kind": "min_r_arctanh_inv", "params": {}},
    "options": {"multistart": 12},
}

NO_ZERO = {
    "dimension": 1,
    "atoms": [{"x": [1.0], "w": 1.0}, {"x": [-1.0], "w": -1.0}],
    "weight": {"kind": "identity", "params": {}},
    "options": {"initial": [0.1]},
}


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return cli.main(args)


class TestCenter:
    def test_symmetric_sphere(self, tmp_path):
        job = write_job(tmp_path, SPHERE3)
        out = str(tmp_path / "report.json")
        assert run(["center", "--input", job, "--output", out]) == 0
        report = json.loads(open(out).read())
        assert report["converged"] is True
        assert np.linalg.norm(report["x_c"]) < 1e-9
        assert report["hypothesis_class"] == "boundary_strict"

    def test_ambiguous_exit_code(self, tmp_path):
        job = write_job(tmp_path, TWO_ZEROS)
        out = str(tmp_path / "report.json")
        assert run(["center", "--input", job, "--output", out]) == 2
        report = json.loads(open(out).read())
        assert report["uniqueness"]["kind"] == "ambiguous"
        assert len(report["uniqueness"]["representatives"]) >= 2

    def test_divergent_exit_code(self, tmp_path):
        job = write_job(tmp_path, NO_ZERO)
        out = str(tmp_path / "report.json")
        assert run(["center", "--input", job, "--output", out]) == 3
        report = json.loads(open(out).read())
        assert report["error"] == "divergent_iterates"

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["center", "--input", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_schema_violations(self, tmp_path, capsys):
        identity = {"kind": "identity", "params": {}}
        for doc in (
            {"dimension": 2, "atoms": []},
            {"dimension": 2, "atoms": [{"x": [0.1], "w": 1.0}], "weight": identity},
            {"dimension": 1, "atoms": [{"x": [0.1], "w": 1.0}],
             "weight": {"kind": "nope", "params": {}}},
            {"dimension": 1, "atoms": [{"x": [1.5], "w": 1.0}], "weight": identity},
            {"dimension": 2, "atoms": [{"x": [0.1, "a"], "w": 1.0}],
             "weight": identity},
            {"dimension": 2, "atoms": [{"x": [0.1, [0.2]], "w": 1.0}],
             "weight": identity},
            {"dimension": 2, "atoms": [{"x": [0.1, 0.2], "w": None}],
             "weight": identity},
        ):
            for command in ("center", "energy", "fold"):
                capsys.readouterr()
                assert run([command, "--input", write_job(tmp_path, doc)]) == 1
                assert "error" in capsys.readouterr().err
        # well-formed 1-d and 2-d jobs that every command accepts, broken in
        # one field at a time
        line = {"dimension": 1, "atoms": [{"x": [0.3], "w": 1.0}, {"x": [-0.2], "w": 1.0}],
                "weight": identity, "ray": {"dir": [1.0]},
                "halfspace": {"p": [1.0], "t": 0.1}}
        plane = {"dimension": 2,
                 "atoms": [{"x": [0.5, 0.1], "w": 1.0}, {"x": [-0.1, 0.3], "w": 2.0}],
                 "weight": identity, "ray": {"dir": [1.0, 0.0]},
                 "halfspace": {"p": [1.0, 0.0], "t": 0.1}}
        table = {"r": [0.0, 1.0], "g": [0.0, 1.0], "monotonicity": "up"}
        broken = [
            (dict(plane, weight=weight), ("center", "energy", "fold"))
            for weight in (
                {"kind": "identity", "params": [1]},
                {"kind": "identity", "params": {"q": 1}},
                {"kind": "identity", "params": {}, "scale": "x"},
                {"kind": "clamped_linear", "params": {"c": "x"}},
                {"kind": "table", "params": table},
                {"kind": ["identity"], "params": {}},
                {"kind": "identity", "params": {}, "scale": math.inf},
            )
        ]
        broken.append((dict(line, dimension=True), ("center", "energy", "fold")))
        broken += [
            (dict(plane, options=options), ("center", "fold"))
            for options in (
                {"strategy": "bogus"},
                {"initial": "x"},
                {"initial": [0.1, [0.2]]},
                {"multistart": "3"},
            )
        ]
        for good in (line, plane):
            for command in ("center", "energy", "fold"):
                assert run([command, "-i", write_job(tmp_path, good), "-o", "-"]) == 0
        for doc, commands in broken:
            job = write_job(tmp_path, doc)
            for command in commands:
                capsys.readouterr()
                assert run([command, "--input", job]) == 1
                assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "ray",
        [
            {"dir": [1.0, 0.0], "tau_max": "x"},
            {"dir": [1.0, 0.0], "count": "x"},
            {"dir": [1.0, 0.0], "count": None},
            {"dir": [1.0, "a"]},
            {"dir": [1.0, 0.0], "base": ["a", 0.0]},
        ],
    )
    def test_energy_ray_violations(self, tmp_path, capsys, ray):
        doc = dict(SPHERE3, ray=ray)
        assert run(["energy", "--input", write_job(tmp_path, doc)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_multistart_flag_overrides_file(self, tmp_path):
        doc = dict(TWO_ZEROS)
        doc["options"] = {}  # no multistart in the file; flag supplies it
        job = write_job(tmp_path, doc)
        out = str(tmp_path / "report.json")
        assert run(["center", "--input", job, "--output", out,
                    "--multistart", "12"]) == 2
        assert json.loads(open(out).read())["uniqueness"]["kind"] == "ambiguous"

    @pytest.mark.parametrize(
        "flags, options",
        [(["--multistart", "-3"], {}), (["--multistart", "0"], {}),
         ([], {"multistart": True}), ([], {"multistart": 0})],
    )
    def test_bad_multistart_is_usage_error(self, tmp_path, capsys, flags, options):
        job = write_job(tmp_path, dict(SPHERE3, options=options))
        out = tmp_path / "report.json"
        assert run(["center", "--input", job, "--output", str(out), *flags]) == 1
        assert "multistart" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, options, name",
        [(["--tol", "nan"], {}, "tol_residual"), (["--tol", "inf"], {}, "tol_residual"),
         ([], {"tol_residual": True}, "tol_residual"), ([], {"max_iters": 2.5}, "max_iters"),
         ([], {"max_iters": True}, "max_iters"), ([], {"max_iters": "3"}, "max_iters")],
    )
    def test_bad_solve_option_is_usage_error(self, tmp_path, capsys, flags, options, name):
        job = write_job(tmp_path, dict(SPHERE3, options=options))
        out = tmp_path / "report.json"
        assert run(["center", "--input", job, "--output", str(out), *flags]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_newton_strategy_flag(self, tmp_path):
        job = write_job(tmp_path, SPHERE3)
        out = str(tmp_path / "report.json")
        assert run(["center", "--input", job, "--output", out,
                    "--strategy", "newton", "--tol", "1e-11"]) == 0
        report = json.loads(open(out).read())
        assert report["converged"] is True
        assert report["residual"] < 1e-11

    def test_descent_strategy_converges(self, tmp_path):
        # descent reaches the default tolerance on the 200-atom golden job
        out = tmp_path / "report.json"
        assert run(["center", "-i", str(GOLDEN / "center_200_3d.json"), "-o", str(out),
                    "--strategy", "descent"]) == 0
        assert json.loads(out.read_text())["converged"] is True

    def test_reports_bit_identical(self, tmp_path):
        job = write_job(tmp_path, SPHERE3)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(["center", "--input", job, "--output", a, "--seed", "7"])
        run(["center", "--input", job, "--output", b, "--seed", "7"])
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize(
        "command, job, flags, report",
        [
            # sphere atoms, and Cartesian rows within the snap tolerance of it
            ("center", "center_sphere_2d.json", [], "center_sphere_2d.report.json"),
            ("center", "center_200_3d.json", ["--strategy", "newton"],
             "center_200_3d.newton.report.json"),
            ("fold", "fold_2d.json", [], "fold_2d.report.json"),
        ],
    )
    def test_reports_match_golden(self, tmp_path, command, job, flags, report):
        # re-recorded when x.y in the Mobius kernel became a stacked per-row
        # dot: every energy evaluation moved at the last bit; the newton
        # report again when the Newton model took the closed-form Hessian,
        # all three when the kernel took the sum form, and the two default-
        # strategy reports when Newton became the default
        out = tmp_path / "report.json"
        assert run([command, "-i", str(GOLDEN / job), "-o", str(out), *flags]) == 0
        assert out.read_bytes() == (GOLDEN / report).read_bytes()

    def test_recentered_output_reingests(self, tmp_path):
        job = write_job(tmp_path, {
            "dimension": 2,
            "atoms": [{"x": [0.5, 0.1], "w": 1.0}, {"x": [-0.1, 0.3], "w": 2.0}],
            "weight": {"kind": "identity", "params": {}},
        })
        out = str(tmp_path / "report.json")
        assert run(["center", "--input", job, "--output", out]) == 0
        report = json.loads(open(out).read())
        second_job = write_job(tmp_path, report["recentered_input"], "again.json")
        out2 = str(tmp_path / "report2.json")
        assert run(["center", "--input", second_job, "--output", out2]) == 0
        report2 = json.loads(open(out2).read())
        # already centered: the second solve stays at the origin
        assert np.linalg.norm(report2["x_c"]) < 1e-9


class TestEnergyProfile:
    def test_profile_shape(self, tmp_path):
        doc = dict(SPHERE3)
        doc["ray"] = {"dir": [1.0, 0.0], "tau_max": 5.0, "count": 6}
        job = write_job(tmp_path, doc)
        out = str(tmp_path / "profile.json")
        assert run(["energy", "--input", job, "--output", out]) == 0
        report = json.loads(open(out).read())
        samples = report["samples"]
        assert samples[0]["tau"] == 0.0
        assert samples[0]["energy"] == 0.0  # renormalized energy vanishes at 0
        assert {s["direction"] for s in samples} == {1, -1}
        by_tau = {s["tau"]: s["energy"] for s in samples if s["direction"] == 1}
        assert by_tau[5.0] > by_tau[2.0]  # blow-up trend toward the boundary

    def test_symmetric_profile(self, tmp_path):
        doc = {
            "dimension": 1,
            "atoms": [{"x": [0.5], "w": 1.0}, {"x": [-0.5], "w": 1.0}],
            "weight": {"kind": "identity", "params": {}},
            "ray": {"dir": [1.0], "tau_max": 1.0, "count": 5},
        }
        job = write_job(tmp_path, doc)
        out = str(tmp_path / "profile.json")
        assert run(["energy", "--input", job, "--output", out]) == 0
        samples = json.loads(open(out).read())["samples"]
        plus = [s["energy"] for s in samples if s["direction"] == 1]
        minus = [s["energy"] for s in samples if s["direction"] == -1]
        np.testing.assert_allclose(plus, minus, atol=1e-12)

    def test_missing_ray(self, tmp_path):
        job = write_job(tmp_path, SPHERE3)
        assert run(["energy", "--input", job]) == 1


class TestFold:
    def test_measure_inside_halfspace_matches_center(self, tmp_path):
        doc = {
            "dimension": 2,
            "atoms": [{"x": [-0.5, 0.1], "w": 1.0}, {"x": [-0.1, -0.3], "w": 1.0}],
            "weight": {"kind": "identity", "params": {}},
            "halfspace": {"p": [1.0, 0.0], "t": 0.0},
        }
        job = write_job(tmp_path, doc)
        fold_out = str(tmp_path / "fold.json")
        center_out = str(tmp_path / "center.json")
        assert run(["fold", "--input", job, "--output", fold_out]) == 0
        assert run(["center", "--input", job, "--output", center_out]) == 0
        fold_rep = json.loads(open(fold_out).read())
        center_rep = json.loads(open(center_out).read())
        np.testing.assert_allclose(fold_rep["x_c"], center_rep["x_c"], atol=1e-12)

    def test_orthogonality_residual(self, tmp_path):
        doc = {
            "dimension": 2,
            "atoms": [{"x": [0.5, 0.2], "w": 1.0}, {"x": [-0.4, 0.3], "w": 1.0}],
            "weight": {"kind": "identity", "params": {}},
            "halfspace": {"p": [1.0, 0.0], "t": 0.1},
        }
        job = write_job(tmp_path, doc)
        out = str(tmp_path / "fold.json")
        assert run(["fold", "--input", job, "--output", out]) == 0
        report = json.loads(open(out).read())
        assert report["orthogonality_residual"] < 1e-10 * 2.0

    def test_sphere_atoms_fold_onto_sphere(self, tmp_path):
        h = {"p": [0.6, 0.8], "t": 0.15}
        job = write_job(tmp_path, dict(SPHERE3, halfspace=h))
        out = str(tmp_path / "fold.json")
        assert run(["fold", "--input", job, "--output", out]) == 0
        report = json.loads(open(out).read())
        assert report["converged"] is True
        assert report["orthogonality_residual"] < 1e-9

    def test_missing_halfspace(self, tmp_path):
        job = write_job(tmp_path, SPHERE3)
        assert run(["fold", "--input", job]) == 1

    def test_malformed_halfspace(self, tmp_path, capsys):
        for halfspace in ({"p": [1.0, "a"], "t": 0.1}, {"p": [1.0, 0.0], "t": None}):
            job = write_job(tmp_path, dict(SPHERE3, halfspace=halfspace))
            assert run(["fold", "--input", job]) == 1
            assert capsys.readouterr().err.startswith("error: ")


def test_clamped_linear_plateau_at_one(tmp_path):
    doc = dict(SPHERE3, weight={"kind": "clamped_linear", "params": {"c": 1.0}})
    doc["atoms"] = doc["atoms"] + [{"x": [0.2, -0.1], "w": 0.5}]
    out = str(tmp_path / "report.json")
    assert run(["center", "--input", write_job(tmp_path, doc), "--output", out]) == 0
    assert json.loads(open(out).read())["converged"] is True


class TestReproduce:
    def test_list(self, tmp_path):
        out = str(tmp_path / "list.json")
        assert run(["reproduce", "--list", "--output", out]) == 0
        names = json.loads(open(out).read())["fixtures"]
        assert names == sorted(names)
        assert "two-zeros" in names and "signed-circle" in names

    @pytest.mark.parametrize(
        "name", ["two-zeros", "flat-interval", "signed-ball", "signed-circle",
                 "signed-no-zero"]
    )
    def test_fixture_passes(self, tmp_path, name):
        out = str(tmp_path / f"{name}.json")
        assert run(["reproduce", name, "--output", out]) == 0
        assert json.loads(open(out).read())["ok"] is True

    def test_escaping_mass_hits_float64_floor(self, tmp_path):
        # the fixture's far atom carries its exact radial datum sech^2(k^2),
        # which keeps the k=3 field value clear of the ~1.4e-10 floor that
        # the nearest double to tanh 9 would impose
        out = str(tmp_path / "escaping.json")
        assert run(["reproduce", "escaping-mass", "--output", out]) == 0
        report = json.loads(open(out).read())
        assert report["ok"] is True
        assert all(c["ok"] for c in report["checks"])
        (field_k3,) = [
            c for c in report["checks"] if c["description"].startswith("V(-tanh 3)")
        ]
        assert abs(field_k3["value"]) < 1e-10

    def test_unknown_name(self):
        assert run(["reproduce", "not-a-fixture"]) == 1


@pytest.mark.parametrize(
    "command, flags",
    [
        ("verify", ["--strategy", "newton"]),
        ("verify", ["--tol", "5", "--multistart", "9", "--max-iters", "3"]),
        ("energy", ["--strategy", "newton"]),
        ("reproduce", ["two-zeros", "--multistart", "4"]),
    ],
)
def test_solve_flags_only_on_solving_commands(tmp_path, command, flags):
    args = [command, *flags, "--output", str(tmp_path / "out.json")]
    if command == "energy":
        args += ["--input", write_job(tmp_path, dict(SPHERE3, ray={"dir": [1.0, 0.0]}))]
    assert run(args) == 1
    assert not (tmp_path / "out.json").exists()


OK_ATOM = {"x": [0.1, 0.2], "w": 1.0}


@pytest.mark.parametrize("doc, message", [
    ({"atoms": [OK_ATOM]}, 'input needs "dimension" and "atoms"'),
    ({"dimension": 2}, 'input needs "dimension" and "atoms"'),
    ({"dimension": 0, "atoms": [OK_ATOM]}, '"dimension" must be a positive integer'),
    ({"dimension": True, "atoms": [OK_ATOM]}, '"dimension" must be a positive integer'),
    ({"dimension": 2.0, "atoms": [OK_ATOM]}, '"dimension" must be a positive integer'),
    ({"dimension": 2, "atoms": []}, '"atoms" must be a nonempty list'),
    ({"dimension": 2, "atoms": {"x": [0.1, 0.2], "w": 1.0}}, '"atoms" must be a nonempty list'),
    ({"dimension": 2, "atoms": [OK_ATOM, {"x": [0.1, 0.2]}]}, 'each atom needs "x" and "w"'),
    ({"dimension": 2, "atoms": [{"w": 1.0}, OK_ATOM]}, 'each atom needs "x" and "w"'),
    ({"dimension": 2, "atoms": [[0.1, 0.2]]}, 'each atom needs "x" and "w"'),
    ({"dimension": 2, "atoms": [OK_ATOM, {"x": [0.1], "w": 1.0}]},
     "atom coordinates must be lists of length 2"),
    ({"dimension": 2, "atoms": [{"x": "ab", "w": 1.0}]},
     "atom coordinates must be lists of length 2"),
    # a missing key anywhere outranks a bad length before it or after it
    ({"dimension": 2, "atoms": [{"x": [0.1], "w": 1.0}, {"x": [0.1, 0.2]}]},
     'each atom needs "x" and "w"'),
    ({"dimension": 2, "atoms": [{"w": 1.0}, {"x": [0.1, 0.2, 0.3], "w": 1.0}]},
     'each atom needs "x" and "w"'),
    ({"dimension": 2, "atoms": [{"x": [2.0, 0.0], "w": 1.0}]},
     "|coords| = 2.0 lies outside the closed unit ball"),
    ({"dimension": 2, "atoms": [{"x": ["a", 0.0], "w": 1.0}]},
     "atom coordinates must be numbers"),
    ({"dimension": 2, "atoms": [{"x": [0.1, 0.0], "w": "a"}]},
     "atom weights must be finite numbers"),
])
def test_parse_measure_schema_messages(doc, message):
    with pytest.raises(SchemaError) as info:
        cli.parse_measure(doc)
    assert str(info.value) == message


def test_verify_subcommand(tmp_path):
    out = str(tmp_path / "verify.json")
    assert run(["verify", "--output", out, "--seed", "3"]) == 0
    report = json.loads(open(out).read())
    assert report["pass"] is True
    assert all(s["pass"] for s in report["scans"])
    kinds = {s["kind"] for s in report["scans"]}
    assert {"gradient_check", "cocycle_check", "convexity_scan",
            "continuity_check", "zero_set_1d", "distance_convexity"} <= kinds


def reference_render(value):
    """The renderer with one recursive call per value: the reference the
    one-pass float formatting must match byte for byte."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise SchemaError("reports cannot carry non-finite numbers")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return reference_render(value.tolist())
    if isinstance(value, Mapping):
        inner = ", ".join(f"{json.dumps(k)}: {reference_render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference_render(v) for v in value) + "]"
    raise SchemaError(f"cannot serialize {type(value).__name__} into a report")


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e22, 1e16, 0.1, 1.0,
               1.7976931348623157e308, 123456789.125, -1.5e-7]
# nested payloads whose float runs hold numpy numbers, bools and ints
PLAIN = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(), st.floats().map(np.float64), st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.sampled_from(EDGE_FLOATS),
)
PAYLOADS = st.recursive(
    PLAIN,
    lambda inner: st.lists(inner, max_size=6) | st.tuples(inner, inner)
    | st.lists(st.floats(), max_size=6)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


def measure(locations, weights):
    """A measure built from raw rows, as the recentred report measure is."""
    locations = np.array(locations, dtype=float)
    return ms.AtomicMeasure(locations, np.array(weights, dtype=float),
                            np.zeros(len(locations), dtype=bool))


def render_outcome(render, value):
    try:
        return render(value)
    except SchemaError as exc:
        return SchemaError, str(exc)


class TestRender:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("wrap", [
        lambda v: v,
        lambda v: [0.5, v, 1.0],
        lambda v: {"a": [[0.25], [0.5, v]]},
        lambda v: [1, np.float64(v)],
        lambda v: np.array([0.5, v]),
        lambda v: measure([[0.1, 0.2], [0.3, v]], [1.0, 2.0]),
        lambda v: measure([[0.1, 0.2]], [v]),
    ], ids=["lone", "list", "nested", "np.float64", "ndarray", "atom_x", "atom_w"])
    def test_non_finite_rejected(self, bad, wrap):
        with pytest.raises(SchemaError, match="non-finite"):
            cli._render(wrap(bad))

    @pytest.mark.parametrize("value", [
        EDGE_FLOATS,
        [[x] for x in EDGE_FLOATS],
        {"edge": tuple(EDGE_FLOATS), "neg": [-x for x in EDGE_FLOATS]},
        [True, np.bool_(False), 1.0, np.bool_(True)],
        [np.int64(-3), np.uint8(7), 2.5, np.int32(0)],
        [[], (), {}, [[]], {"e": []}],
        [1, 2.0, -3, 0.1, True, None, "x"],
        np.array(EDGE_FLOATS),
        np.array([[1, 2], [3, 4]]),
        [np.float32(0.1), np.float64(0.1), 0.1],
    ], ids=["floats", "singletons", "dict", "bools", "numpy_ints", "empty", "mixed",
            "ndarray", "int_array", "float32"])
    def test_matches_reference(self, value):
        assert cli._render(value) == reference_render(value)

    def test_measure_matches_per_atom_dicts(self):
        rng = np.random.default_rng(5)
        locs = rng.uniform(-0.5, 0.5, size=(40, 3))
        locs[:5] = [[-0.0, 5e-324, 1e-22], [1.0, 0.0, 0.0], [0.1, 0.2, 0.3],
                    [1e-300, -1e-300, 0.5], [0.6, 0.8, 0.0]]
        w = rng.uniform(-1.0, 1.0, size=40)
        atoms = [{"x": x, "w": wi} for x, wi in zip(locs.tolist(), w.tolist())]
        assert cli._render(measure(locs, w)) == reference_render(atoms)
        assert cli._render(measure(locs[:, :1], w)) == reference_render(
            [{"x": x[:1], "w": wi} for x, wi in zip(locs.tolist(), w.tolist())])

    @settings(derandomize=True, max_examples=300)
    @given(PAYLOADS)
    def test_nested_payloads_match_reference(self, value):
        assert render_outcome(cli._render, value) == render_outcome(reference_render, value)
