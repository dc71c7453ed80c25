"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/fluxdg", "tests", "demos")


def unused_imports(path):
    """(line, name) of every name `path` imports but never reads. A name
    counts as read when it occurs as an identifier anywhere in the module
    (scopes are not told apart) or is listed in a module-level __all__;
    an import whose line carries `# noqa: F401` is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            exempt = any(
                "noqa: F401" in lines[i - 1] for i in (node.lineno, alias.lineno)
            )
            if name != "*" and name not in used and not exempt:
                found.append((alias.lineno, name))
    return found


def private_sibling_imports(path):
    """(line, module, name) of every underscore name that `path` takes from
    another module of its own package: imported by a relative import, or
    read as an attribute of a sibling module that a relative import bound
    (`from . import batched as _batched`, then `_batched._line_rows`).
    Dunder names such as `__name__` are not private."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                if alias.name.startswith("_"):
                    found.append((node.lineno, node.module, alias.name))
    found += [
        (node.lineno, modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
    ]
    return found


def test_no_private_names_across_modules():
    """A name that another module of the package needs is public."""
    found = [
        "%s:%d %s.%s" % (path.relative_to(ROOT), line, module, name)
        for path in sorted((ROOT / "src/fluxdg").glob("*.py"))
        for line, module, name in private_sibling_imports(path)
    ]
    assert not found, found


def test_private_name_check_sees_module_attributes(tmp_path):
    """The check above flags an underscore name read through a sibling
    module as well as one imported from it, and leaves public and dunder
    names alone."""
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import batched as _batched\n"
        "from .geometry import _line_axes, line_major\n"
        "_batched._line_rows(_batched.mesh_surface, _batched.__name__)\n"
    )
    assert sorted(private_sibling_imports(path)) == [
        (2, "geometry", "_line_axes"),
        (3, "batched", "_line_rows"),
    ]


def test_no_unused_imports():
    unused = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert not unused, unused


def calls(tree):
    """(line, name) of every call in `tree`, as `f(...)` or `module.f(...)`."""
    return [
        (node.lineno, node.func.id if isinstance(node.func, ast.Name) else node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]


def called_names(path):
    """Names of every function `path` calls, as `f(...)` or `module.f(...)`."""
    return {name for _, name in calls(ast.parse(path.read_text(), str(path)))}


def test_integrate_is_the_only_time_loop():
    """Solutions advance in time only through timeint.integrate: rk_step is
    called nowhere else in the package, the tests or the demos, apart from
    the integrator's own tests."""
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == ROOT / "tests/test_timeint.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            if path == ROOT / "src/fluxdg/timeint.py":
                (integrate,) = [
                    node
                    for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "integrate"
                ]
                assert "rk_step" in {name for _, name in calls(integrate)}
                tree.body.remove(integrate)
            found += [
                "%s:%d" % (path.relative_to(ROOT), line)
                for line, name in calls(tree)
                if name == "rk_step"
            ]
    assert not found, found


def verify_table_checks():
    """The check_* functions named in the table of verify.verify_all."""
    path = ROOT / "src/fluxdg/verify.py"
    tree = ast.parse(path.read_text(), str(path))
    (body,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_all"
    ]
    return {
        node.id
        for node in ast.walk(body)
        if isinstance(node, ast.Name) and node.id.startswith("check_")
    }


def test_acceptance_calls_every_verify_check():
    """Every check that `fluxdg verify` runs is also called from
    tests/test_acceptance.py, which runs it over wider ranges."""
    checks = verify_table_checks()
    assert len(checks) == 10, sorted(checks)
    missing = sorted(checks - called_names(ROOT / "tests/test_acceptance.py"))
    assert not missing, missing


def attribute_owners(path, attr):
    """(top-level function name, line) of every `.attr` in `path`; the name
    is None for a read outside the module's functions."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        (node.name if isinstance(node, ast.FunctionDef) else None, sub.lineno)
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and sub.attr == attr
    ]


def test_batched_has_one_cartesian_dispatch_rule():
    """fluxdg.batched reads mesh.is_cartesian only in its geometry helpers,
    _line_geometry for the node lines and _face_geometry for the
    interfaces. Every other function takes the axis form from them (an
    axis index in place of normal rows), so Cartesian meshes have one
    dispatch rule and no second code path."""
    found = attribute_owners(ROOT / "src/fluxdg/batched.py", "is_cartesian")
    owners = {name for name, _ in found}
    assert owners == {"_line_geometry", "_face_geometry"}, found


def test_batched_reads_metric_terms_only_in_geometry_helpers():
    """fluxdg.batched reads the line-ordered volume metric store (.line_ja)
    only in _line_geometry, which hands the pair loops a direction's block
    of it, and in _face_geometry, which reads the Cartesian face area; it
    reads the face metric terms (.face_ja) only in _face_geometry, which
    hands the interface fluxes and the Gauss coupling their rows as views
    of the store, and no node-layout .ja at all. Every pair normal is
    formed from those views in the scratch block, so no second,
    re-laid-out copy of the metric terms comes back."""
    path = ROOT / "src/fluxdg/batched.py"
    for attr, want in (
        ("line_ja", {"_line_geometry", "_face_geometry"}),
        ("face_ja", {"_face_geometry"}),
        ("ja", set()),
    ):
        found = attribute_owners(path, attr)
        assert {name for name, _ in found} == want, (attr, found)


def test_batched_public_names():
    """fluxdg.batched defines exactly these public names: the lane type,
    the log means, the one two-point entry and the mesh entry points that
    rhs calls. perfbench/tracing.py traces the mesh_* names, so renaming
    one fails here instead of silently zeroing a per-layer metric."""
    tree = ast.parse((ROOT / "src/fluxdg/batched.py").read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in defined if not name.startswith("_")}
    assert public == {
        "Lanes",
        "logmean_batched",
        "inv_logmean_batched",
        "flux_lanes",
        "mesh_fluxdiff_volume",
        "mesh_surface",
        "mesh_gauss_volume",
        "mesh_gauss_surface",
    }, sorted(public)


def sibling_imports(path):
    """The modules of its own package that `path` imports by relative
    import: `from .geometry import ...` gives geometry, `from . import
    batched` gives batched."""
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_only_named_modules_import_the_oracle():
    """Within the package, fluxdg.reference (the scalar oracle) is imported
    only by discretization (its kernel dispatch), verify, harness (the
    microbench gate) and __init__ (re-exports), and the oracle imports
    neither batched nor discretization: the production kernel never leans
    on the oracle, nor the oracle on it."""
    importers = {
        path.stem
        for path in (ROOT / "src/fluxdg").glob("*.py")
        if "reference" in sibling_imports(path)
    }
    assert importers == {"discretization", "verify", "harness", "__init__"}, sorted(
        importers
    )
    oracle = sibling_imports(ROOT / "src/fluxdg/reference.py")
    assert not oracle & {"batched", "discretization"}, sorted(oracle)


# the functions of tests/ that name the scalar oracle's kernel for something
# other than comparing its rhs with the batched one, which goes through
# verify.compare_kernels or verify.check_batched_kernel
ORACLE_USERS = {
    "test_acceptance.py::vortex_samples": "an anchor run on the oracle",
    "test_acceptance.py::test_timing_trends_soft": "times the oracle",
    "test_acceptance.py::test_kinetic_energy_preservation": "each kernel's "
    "kinetic energy identity",
    "test_batched.py::test_split_gauss_rhs_builds_no_conserved_faces": "counts "
    "each kernel's conversions",
    "test_discretization.py::test_lgl_fluxdiff_preserves_pressure_equilibrium":
    "each kernel's pressure equilibrium",
    "test_discretization.py::test_entropy_projection_reports_bad_face_state":
    "admissibility gate",
    "test_discretization.py::test_gauss_trace_admissibility_names_owner":
    "admissibility gate",
    "test_discretization.py::test_rhs_admissibility_gate_names_location":
    "admissibility gate",
    "test_discretization.py::test_reference_rhs_reaches_every_oracle_function":
    "the oracle reachability sweep",
    "test_discretization.py::test_rhs_runs_every_one_point_volume_statement":
    "the statement sweep of both kernels",
    "test_discretization.py::test_rhs_runs_every_two_point_volume_statement":
    "the statement sweep of both kernels",
    "test_harness.py::test_pid_row_layout": "the label of an oracle row",
    "test_hygiene.py::test_only_named_modules_import_the_oracle": "the module",
    "test_hygiene.py::test_tests_compare_kernels_through_verify": "this check",
}


def test_tests_compare_kernels_through_verify():
    """A test function selects the oracle's kernel, the string "reference"
    or KERNELS, in a keyword, a parametrization or anywhere else in its body
    but as the key that reads a compare_kernels count, only for one of the
    reasons above; and no test picks a curved mapping degree by dimension,
    the rule the library dropped (curved meshes are isoparametric or map at
    verify.SUB_PARAMETRIC_DEGREE)."""
    found = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        source = path.read_text()
        if re.search(r"2 if [\w()]+ == 2 else 1", source):
            found.add(path.name)
        for fn in ast.parse(source, str(path)).body:
            nodes = list(ast.walk(fn)) if isinstance(fn, ast.FunctionDef) else []
            keys = {id(n.slice) for n in nodes if isinstance(n, ast.Subscript)}
            if any(
                (isinstance(n, ast.Constant) and n.value == "reference")
                or (isinstance(n, ast.Name) and n.id == "KERNELS")
                for n in nodes
                if id(n) not in keys
            ):
                found.add("%s::%s" % (path.name, fn.name))
    assert found == set(ORACLE_USERS), sorted(found ^ set(ORACLE_USERS))
