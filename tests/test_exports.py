"""The package's export list, import graph and records: a deleted function
must leave no stale name, the library never calls the oracles it is checked
against, and a record holding arrays compares by identity."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import relcalc
import relcalc.cli

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


def test_only_relations_reads_the_block_caches():
    # parts is the one reader of dom, ran, ker and mul: every other module
    # reaches a graph block's cached half through it
    users = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if {"_half", "_halves"} & set(_names(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert users == ["relations.py"]


def test_only_unit_psd_reads_a_weights_eigenpairs():
    # a psd Weight keeps the eigenpairs that certify it, and every root of W
    # is cut from them on the scale of W / lambda, in weighted._unit_psd alone
    readers, reads = [], 0
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += sum(isinstance(node, ast.Attribute) and node.attr == "_eigh" for node in ast.walk(tree))
        readers += [
            (path.name, function.name)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and any(isinstance(node, ast.Attribute) and node.attr == "_eigh" for node in ast.walk(function))
        ]
    assert readers == [("weighted.py", "_unit_psd")] and reads == 1


class _RankCutoffReaders(ast.NodeVisitor):
    """The enclosing class and function of every reference to rank_cutoff."""

    def __init__(self):
        self.scope, self.readers = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Attribute(self, node):
        if node.attr == "rank_cutoff":
            self.readers.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "rank_cutoff":
            self.readers.append(".".join(self.scope))


def test_only_tolerance_rank_reads_the_cutoff():
    # one rank rule: every singular-value and eigenvalue cut is a
    # Tolerance.rank count, so a second copy of the comparison (a mask, a
    # threshold of its own) fails here
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _RankCutoffReaders()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        readers += [f"{path.name}:{name}" for name in visitor.readers]
    assert readers == ["subspaces.py:Tolerance.rank"]


def test_weighted_solvers_take_the_block_form():
    # solve, w1w2_solve (lss.py) and spline_solve (splines.py) project
    # through the paper's block form, which weighted.py alone defines, and
    # complementability and krein_classify (weighted.py) read the same block
    # split; shorted reads Anderson's form on the root of W; check_normal
    # (lss.py) reads the normal equation on U*(W / lambda) for the basis U
    # of ran A; the relation route (make_pws, identity_minus, the calculus)
    # is a test-only cross-check for all seven
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
    # complementability's block form is mvproj's, whose off-diagonal block
    # is coefficient_x, not a span of its own
    names = set(_names(ast.parse((PACKAGE / "mvproj.py").read_text(encoding="utf-8"))))
    assert not names & {"graph_of_matrix", "restrict", "identity_minus"}
    names = set(_names(ast.parse((PACKAGE / "weighted.py").read_text(encoding="utf-8"))))
    assert "_projection_blocks" in names and "orthonormalize" not in names


THRESHOLD_FREE = ("lss.py", "relations.py", "mvproj.py", "weighted.py", "splines.py")


def test_rank_decisions_and_thresholds_live_in_subspaces():
    # every SVD rank decision is subspaces._cut_svd and every acceptance
    # threshold lives in subspaces.py, so the library modules above it call
    # no np.linalg.svd and write no number but 0, 1 and 2 (oracles.py stays
    # independent, and cli.py's report constants are its own); every
    # eigendecomposition, a psd weight's own included, is weighted.py's
    for module in THRESHOLD_FREE:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        svd = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "svd"
        ]
        eig = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
        ]
        assert module == "weighted.py" or eig == [], module
        numbers = [
            (node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) in (int, float, complex)
            and node.value not in (0, 1, 2)
        ]
        assert (svd, numbers) == ([], []), module


def _full_matrices_uses(tree: ast.AST) -> int:
    return sum(
        isinstance(node, (ast.keyword, ast.arg)) and node.arg == "full_matrices" for node in ast.walk(tree)
    )


def test_only_svd_chooses_the_factor_shapes():
    # subspaces._svd asks for the full factors exactly when a matrix is wide,
    # so no other code passes or takes full_matrices (oracles.py stays
    # independent)
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
        if path.name != "oracles.py"
    }
    uses = {name: count for name, tree in trees.items() if (count := _full_matrices_uses(tree))}
    svd = next(
        node
        for node in ast.walk(trees["subspaces.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_svd"
    )
    assert uses == {"subspaces.py": 1} and _full_matrices_uses(svd) == 1


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


def _unread_parameters(tree: ast.AST):
    """``function.parameter`` for every parameter of a function,
    method or lambda that its body (nested scopes included) never reads."""
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = function.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            body = function.body if isinstance(function.body, list) else [function.body]
            read = {node.id for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            name = getattr(function, "name", "<lambda>")
            yield from (f"{name}.{p.arg}" for p in params if p.arg not in read)


def test_no_function_takes_a_parameter_it_never_reads():
    # a parameter no line reads looks like a decision the call makes: a
    # tol accepted "for the common signature" read as a construction at it
    unread = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := list(_unread_parameters(ast.parse(path.read_text(encoding="utf-8")))))
    }
    assert unread == {}


def _records_with_array_fields():
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"relcalc.{path.stem}")
        for value in vars(module).values():
            if (
                dataclasses.is_dataclass(value)
                and value.__module__ == module.__name__
                and any("ndarray" in str(f.type) for f in dataclasses.fields(value))
            ):
                yield value


def test_records_holding_arrays_are_eq_false():
    # a generated __eq__ compares ndarray fields with ==, whose truth value
    # raises for more than one entry
    records = list(_records_with_array_fields())
    assert relcalc.SplineProblem in records and relcalc.Weight in records
    assert [r.__name__ for r in records if r.__dataclass_params__.eq] == []


def _eye_spline():
    return relcalc.SplineProblem(np.eye(2), [[1.0, 0]], [1.0])


def _eye_lss():
    return relcalc.LssProblem(relcalc.graph_of_matrix(np.eye(2)), relcalc.Weight(np.eye(2), "psd"), np.ones(2))


RECORDS = {
    "Weight": lambda: relcalc.Weight(np.eye(2)),
    "LssProblem": _eye_lss,
    "LssSolution": lambda: relcalc.solve(_eye_lss()),
    "SplineProblem": _eye_spline,
    "SmoothingProblem": lambda: relcalc.SmoothingProblem(_eye_spline(), 1.0),
    "ProjectionBlocks": lambda: relcalc.projection_m(np.eye(2), np.array([[1.0, 0]])),
    "ProblemFile": lambda: relcalc.cli.parse(Path(__file__).parent / "data" / "lss-solve.json"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_holding_arrays_compare_by_identity(name):
    # before, == between two Weights or SplineProblems raised, two equal
    # LssProblems compared False, and hash raised TypeError
    first, second = RECORDS[name](), RECORDS[name]()
    assert type(first).__name__ == name
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2
