"""The package's export list and import graph: a deleted function must leave
no stale name, and the library never calls the oracles it is checked against."""

import ast
from pathlib import Path

import relcalc

PACKAGE = Path(relcalc.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in relcalc.__all__ if not hasattr(relcalc, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(relcalc.__all__) == len(set(relcalc.__all__))


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "oracles":
                return True
            if any(alias.name == "oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "oracles" for alias in node.names):
                return True
    return False


def test_only_the_cli_imports_the_oracles():
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if _imports_oracles(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["cli.py"]


def _names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_the_cli_fixes_basis_phases():
    # column phases are a report convention, not part of a subspace
    users = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if "_phase_canonical" in _names(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert users == ["cli.py"]


def test_weighted_solvers_take_the_block_form():
    # solve, w1w2_solve (lss.py) and spline_solve (splines.py) project
    # through the paper's block form, which weighted.py alone defines, and
    # complementability, shorted and krein_classify (weighted.py) read the
    # same block split; check_normal (lss.py) reads the normal equation on
    # U*W for the basis U of ran A; the relation route (make_pws,
    # identity_minus, the calculus) is a test-only cross-check for all seven
    for module in ("lss.py", "splines.py"):
        names = set(_names(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))))
        assert not names & {"make_pws", "identity_minus"}, module
    names = set(_names(ast.parse((PACKAGE / "lss.py").read_text(encoding="utf-8"))))
    assert not names & {"adjoint", "compose", "graph_of_matrix", "image", "null_space"}
    names = set(_names(ast.parse((PACKAGE / "weighted.py").read_text(encoding="utf-8"))))
    calculus = {"compose", "parts", "invert", "canonical_blocks", "relation_equals", "as_matrix"}
    assert not names & calculus
    definers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(
            isinstance(node, ast.FunctionDef) and node.name == "_project_by_blocks"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert definers == ["weighted.py"]


def test_multivalued_projections_take_the_graph_blocks():
    # mvproj.py builds the corners, the generated super-idempotent and the
    # fixed points ker(I - E) from spans of the graph blocks; the projector
    # graphs, restrict and identity_minus are test-only cross-checks.
    # complementability's off-diagonal block is coefficient_x, not a span
    # of its own
    names = set(_names(ast.parse((PACKAGE / "mvproj.py").read_text(encoding="utf-8"))))
    assert not names & {"graph_of_matrix", "restrict", "identity_minus"}
    names = set(_names(ast.parse((PACKAGE / "weighted.py").read_text(encoding="utf-8"))))
    assert "coefficient_x" in names and "orthonormalize" not in names


THRESHOLD_FREE = ("lss.py", "relations.py", "mvproj.py", "weighted.py", "splines.py")


def test_rank_decisions_and_thresholds_live_in_subspaces():
    # every SVD rank decision is subspaces._cut_svd and every acceptance
    # threshold lives in subspaces.py, so the library modules above it call
    # no np.linalg.svd and write no number but 0, 1 and 2 (oracles.py stays
    # independent, and cli.py's report constants are its own)
    for module in THRESHOLD_FREE:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        svd = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "svd"
        ]
        numbers = [
            (node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) in (int, float, complex)
            and node.value not in (0, 1, 2)
        ]
        assert (svd, numbers) == ([], []), module


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; names listed in ``__all__``
    count as read, and ``from __future__`` imports are exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}
