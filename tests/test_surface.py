"""The package surface: what ``import sketchls`` loads, and which
definitions of ``src/sketchls`` the commands reach."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import sketchls

SRC = Path(sketchls.__file__).resolve().parent

# Definitions that no command reaches, each kept for the reason given.
# Anything else that no command reaches is deleted or moved into tests/.
UNREACHED = {
    # slow references, each compared with the fast path in tier-1
    "embed.materialize": "the explicit S, the reference of apply (test_embed.py)",
    "embed.exact_distortion": "eps of the sketched d-row basis, the reference of a "
                              "cell's eps (test_cli.py); bench/tracer.py wraps it",
    "embed.subspace_basis": "exact_distortion's basis; bench/tracer.py wraps it",
    "matio.save_matrix_market": "the writer of the Matrix Market round-trip tests "
                                "(test_matio.py)",
    "matio.MatrixHandle.csr": "read by save_matrix_market, and by the loader's tests "
                              "to compare CSR arrays bit for bit",
    # held by the benchmark
    "diagnostics.solve_sketched": "bench/tracer.py wraps it",
    "cli.parse_config": "bench/child.py calls it",
    # the backward-error checks that are to join the bound suite
    "diagnostics.BackwardErrorResult": "compute_eta_f's result",
    "diagnostics.compute_eta_f": "eta_F of the backward-error check, tier-1 only so far",
    "diagnostics.check_eta_f_upper": "EtaFUpper, tier-1 only so far",
    "diagnostics.e1_minimizer_gap": "the E1 minimality check, tier-1 only so far",
}


class _Reads(ast.NodeVisitor):
    """The names (``x``) and attribute names (``.x``) that code reads;
    annotations are not reads."""

    def __init__(self):
        self.names, self.attrs = set(), set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.generic_visit(node)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _reads(nodes) -> _Reads:
    reads = _Reads()
    for node in nodes:
        reads.visit(node)
    return reads


def unreached_definitions() -> set:
    """Every module-level function and class and every public method of
    ``src/sketchls`` that module-level code (``cli``'s ``main`` call among
    it) does not reach.  A definition is reached when reached code reads
    its name; a method, only as an attribute.  A class's reads are its
    bases, its body and its private and special methods."""
    defs = {}  # qualified name -> (name, is a method, its reads)
    roots = _Reads()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, False, _reads([node]))
            elif isinstance(node, ast.ClassDef):
                own = [*node.decorator_list, *node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = (
                            item.name, True, _reads([item]))
                    else:
                        own.append(item)
                defs[f"{path.stem}.{node.name}"] = (node.name, False, _reads(own))
            else:
                roots.visit(node)
    names, attrs = set(roots.names), set(roots.attrs)
    unreached = set(defs)
    grew = True
    while grew:
        grew = False
        for qual in sorted(unreached):
            name, method, reads = defs[qual]
            if name in attrs or (not method and name in names):
                unreached.discard(qual)
                names |= reads.names
                attrs |= reads.attrs
                grew = True
    return unreached


def test_every_definition_is_reached_or_kept_for_a_reason():
    unreached = unreached_definitions()
    assert unreached - set(UNREACHED) == set(), "reached by no command"
    assert set(UNREACHED) - unreached == set(), "reached now: drop from UNREACHED"
    assert all(UNREACHED.values())


def test_import_loads_no_numpy():
    # importing the package loads none of its modules, so an entry point
    # can set BLAS thread variables before numpy starts its thread pool
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sketchls; "
            "assert 'numpy' not in sys.modules, sorted(sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_bench_tracer_installs_and_uninstalls():
    # bench/tracer.py patches names of src/sketchls where their callers look
    # them up; a name that moves or is renamed breaks its install here
    path = SRC.parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = tracer.patched
    finally:
        tracer.uninstall()
    assert patched and all(owner.__dict__[attr] is raw for owner, attr, raw in patched)
