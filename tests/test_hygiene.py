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


def called_names(path):
    """Names of every function `path` calls, as `f(...)` or `module.f(...)`."""
    tree = ast.parse(path.read_text(), str(path))
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


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
