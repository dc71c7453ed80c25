"""Source hygiene checks that need nothing beyond the standard library."""

import ast
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
    """(line, module, name) of every underscore name that `path` imports
    from another module of its own package (a relative import)."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_names_across_modules():
    """A name that another module of the package needs is public."""
    found = [
        "%s:%d %s.%s" % (path.relative_to(ROOT), line, module, name)
        for path in sorted((ROOT / "src/fluxdg").glob("*.py"))
        for line, module, name in private_sibling_imports(path)
    ]
    assert not found, found


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
    interfaces. Every other function takes the axis form from them (no
    normal rows), so Cartesian meshes have one dispatch rule and no second
    code path."""
    found = attribute_owners(ROOT / "src/fluxdg/batched.py", "is_cartesian")
    owners = {name for name, _ in found}
    assert owners == {"_line_geometry", "_face_geometry"}, found
