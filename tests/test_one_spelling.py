"""Each numeric rule of the library is written once, in its home function.

The guards read `src/` with `ast` and name every second spelling as
file:line. The rules and their homes:

- symmetrisation, 0.5 * (A + A^T): matrices.symmetrize;
- a vector's norm, np.linalg.norm or sqrt(x . x): matrices.euclidean_norm;
- the sign-fixed QR draw: verify._orthonormal;
- the slice loop over a stack's batches: quadratics._batches, the only
  reader of the one batch size;
- an example set's moment sum B_z c_z: quadratics._example_moments;
- the distortion Q_i itself: a scheme's coefficients are read only by the
  engine's literal K-step loop (engine._local_steps) and by the eigenvalue
  map (quadratics.scheme_q_eigenvalues), which distortion_matrix and the
  eigenvalue route share.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "local_update_lab"


@functools.cache
def sites() -> tuple:
    """(path, enclosing function name or None, node) for every node of every module of src/, parsed once."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10

    def walk(path, node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield path, inner, child
            yield from walk(path, child, inner)

    return tuple(
        site for path in paths for site in walk(path, ast.parse(path.read_text(encoding="utf-8")), None)
    )


def offending(predicate, home: str | None) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for path, function, node in sites()
        if predicate(node) and function != home
    ]


def same(a: ast.AST, b: ast.AST) -> bool:
    return ast.dump(a) == ast.dump(b)


def is_transpose_of(node: ast.AST, operand: ast.AST) -> bool:
    """node is operand.T, operand.swapaxes(...) or operand.transpose(...)."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return same(node.value, operand)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("swapaxes", "transpose")
        and same(node.func.value, operand)
    )


def is_symmetrisation(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and (is_transpose_of(node.right, node.left) or is_transpose_of(node.left, node.right))
    )


def is_linalg(node: ast.AST, name: str) -> bool:
    """node reads <something>.linalg.<name>."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    )


def is_sqrt_of_dot(node: ast.AST) -> bool:
    """node is sqrt(x.dot(x)), sqrt(np.dot(x, x)) or sqrt(np.vdot(x, x)), by any module's sqrt."""
    if not (isinstance(node, ast.Call) and len(node.args) == 1):
        return False
    func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
    inner = node.args[0]
    return (
        func == "sqrt"
        and isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Attribute)
        and inner.func.attr in ("dot", "vdot")
    )


def is_batch_slice(node: ast.AST) -> bool:
    """node is a slice x[i : i + step]."""
    return (
        isinstance(node, ast.Slice)
        and isinstance(node.lower, ast.Name)
        and isinstance(node.upper, ast.BinOp)
        and isinstance(node.upper.op, ast.Add)
        and same(node.upper.left, node.lower)
    )


def is_example_product(node: ast.AST) -> bool:
    """node is <example>.b_matrix @ <something>."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.MatMult)
        and isinstance(node.left, ast.Attribute)
        and node.left.attr == "b_matrix"
    )


def test_one_symmetrisation():
    assert offending(is_symmetrisation, "symmetrize") == []


def test_one_vector_norm():
    assert offending(lambda node: is_linalg(node, "norm") or is_sqrt_of_dot(node), "euclidean_norm") == []


def test_one_orthonormal_draw():
    assert offending(lambda node: is_linalg(node, "qr"), "_orthonormal") == []


def test_one_batch_slice_loop():
    assert offending(is_batch_slice, "_batches") == []


def test_batch_sizes_are_read_only_by_the_slice_loop():
    constants = {
        target.id
        for path, function, node in sites()
        if isinstance(node, ast.Assign) and function is None
        for target in node.targets
        if isinstance(target, ast.Name) and "BATCH" in target.id
    }
    assert len(constants) == 1  # one batch size, and the guard would pass vacuously without it
    readers = [
        f"{path.name}:{node.lineno}"
        for path, function, node in sites()
        if isinstance(node, ast.Name) and node.id in constants and isinstance(node.ctx, ast.Load)
        and function != "_batches"
    ]
    assert readers == []


def test_one_example_moment_sum():
    assert offending(is_example_product, "_example_moments") == []


def test_one_definition_of_the_distortion():
    homes = {("engine.py", "_local_steps"), ("quadratics.py", "scheme_q_eigenvalues")}
    readers = {
        (path.name, function, node.lineno)
        for path, function, node in sites()
        if isinstance(node, ast.Attribute) and node.attr == "coefficients"
    }
    assert {(name, function) for name, function, _ in readers} >= homes  # not vacuous
    assert sorted(f"{name}:{line}" for name, function, line in readers if (name, function) not in homes) == []
