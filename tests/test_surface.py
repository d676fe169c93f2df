"""The package surface: what ``import sketchls`` loads, and which
definitions of ``src/sketchls`` the commands reach."""

import ast
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import sketchls

SRC = Path(sketchls.__file__).resolve().parent

# Definitions that no command reaches, each kept for the reason given.
# Anything else that no command reaches is deleted or moved into tests/.
UNREACHED = {
    # slow references, each compared with the fast path in tier-1
    "embed.exact_distortion": "eps of the sketched d-row basis, the reference of a "
                              "cell's eps (test_cli.py) and DRowProblem's default "
                              "eps; bench/tracer.py wraps it",
    "embed.subspace_basis": "exact_distortion's basis; bench/tracer.py wraps it",
    "embed.apply_adjoint": "bench/tracer.py wraps it; the d-row reference's "
                           "geometric defect",
    "matio.qr_ls_solve": "the Householder reference of the oracle and of a cell's "
                         "x_s (tests), and solve_sketched's solve; bench/tracer.py "
                         "wraps it",
    # held by the benchmark
    "diagnostics.solve_sketched": "bench/tracer.py wraps it; the d-row x_s of the tests",
    "cli.parse_config": "bench/child.py calls it",
}


class _Reads(ast.NodeVisitor):
    """The names (``x``) and attribute names (``.x``) that code reads, and
    the strings that could name an attribute (``getattr(m, "x")``);
    annotations are not reads."""

    def __init__(self):
        self.names, self.attrs, self.strings = set(), set(), set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.strings.add(node.value)

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


def _definitions():
    """``(defs, roots)``: each module-level function and class and each
    public method of ``src/sketchls`` by qualified name, as (name, is a
    method, its reads), and the reads of module-level code (``cli``'s
    ``main`` call among it).  A class's reads are its bases, its body and
    its private and special methods."""
    defs = {}
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
    return defs, roots


def _reached(defs, names: set, attrs: set) -> set:
    """The qualified names of ``defs`` that code reading ``names`` and
    ``attrs`` reaches, itself or through the reads of what it reaches.  A
    definition is reached when reached code reads its name; a method, only
    as an attribute."""
    names, attrs = set(names), set(attrs)
    reached = set()
    grew = True
    while grew:
        grew = False
        for qual in sorted(set(defs) - reached):
            name, method, reads = defs[qual]
            if name in attrs or (not method and name in names):
                reached.add(qual)
                names |= reads.names
                attrs |= reads.attrs
                grew = True
    return reached


def unreached_definitions() -> set:
    """Every definition of ``src/sketchls`` that no command reaches."""
    defs, roots = _definitions()
    return set(defs) - _reached(defs, roots.names, roots.attrs)


def test_every_definition_is_reached_or_kept_for_a_reason():
    unreached = unreached_definitions()
    assert unreached - set(UNREACHED) == set(), "reached by no command"
    assert set(UNREACHED) - unreached == set(), "reached now: drop from UNREACHED"
    assert all(UNREACHED.values())


def test_every_unreached_entry_has_a_reader():
    # an UNREACHED entry is held by a test or bench file that reads it, or
    # by the body of another held entry; once its last reader is gone it
    # fails here and is deleted.  bench/tracer.py patches names given as
    # strings, so a string is an attribute read
    defs, _ = _definitions()
    root = SRC.parents[1]
    readers = [path for path in sorted(root.glob("tests/*.py"))
               if path.name != Path(__file__).name] + sorted(root.glob("bench/*.py"))
    reads = _reads(ast.parse(path.read_text(encoding="utf-8")) for path in readers)
    held = _reached({qual: defs[qual] for qual in UNREACHED}, reads.names,
                    reads.attrs | reads.strings)
    assert set(UNREACHED) - held == set(), "read by no test or bench file"


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


def _write_sites():
    """``(module.function, what)`` for each call in ``src/sketchls`` that
    opens a file with a write mode (``open`` or ``<path>.open``; a mode
    that is not a literal counts as one) or makes a ``csv`` writer."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                if isinstance(func, ast.Attribute) and func.attr in ("writer", "DictWriter"):
                    sites.append((where, f"csv.{func.attr}"))
                is_open = isinstance(func, ast.Name) and func.id == "open"
                if not (is_open or isinstance(func, ast.Attribute) and func.attr == "open"):
                    continue
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                modes += node.args[1:2] if is_open else node.args[:1]
                mode = modes[0] if modes else ast.Constant("r")
                if not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                    sites.append((where, "open"))
    return sites


def test_one_write_site():
    # every file the commands write goes through matio.write_csv, so a new
    # output cannot fork the format
    assert sorted(_write_sites()) == [("matio.write_csv", "csv.writer"),
                                      ("matio.write_csv", "open")]


def test_two_body_parses():
    # a Matrix Market body is parsed by one loadtxt, straight from the file,
    # and by one line loop, so a third parse of it cannot come back
    loadtxt, reader_calls = [], Counter()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "loadtxt":
                    loadtxt.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
                if getattr(top, "name", None) == "load_matrix_market" and \
                        isinstance(func, ast.Name):
                    reader_calls[func.id] += 1
    assert loadtxt == ["matio._file_body"]
    assert (reader_calls["_file_body"], reader_calls["_line_body"]) == (1, 1)


# MatrixHandle's payload and caches, which only its own methods touch
HANDLE_PRIVATE = {"_data", "_qr_factor", "_spectral", "_lock"}


def test_handle_caches_have_one_owner():
    # the handle fills its factor and spectral caches itself, so no code
    # outside its methods reads or writes them, by attribute or by a string
    # (getattr); spectral_norms only computes what the handle caches
    uses = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = path.stem == "matio" and getattr(top, "name", None) == "MatrixHandle"
            for item in top.body if own else [top]:
                if own and isinstance(item, ast.FunctionDef):
                    continue
                for node in ast.walk(item):
                    name = getattr(node, "attr", getattr(node, "value", None))
                    if isinstance(name, str) and name in HANDLE_PRIVATE:
                        uses.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert uses == []


def test_one_source_driver():
    # run, sweep-d and check load a source, fit its d values and catch a
    # cell's exception in one function, so their run errors cannot drift
    # apart; _load's own handler is the source's load failure
    callers, catchers = {}, []
    for top in ast.parse((SRC / "cli.py").read_text(encoding="utf-8")).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callers.setdefault(node.func.id, set()).add(where)
            if isinstance(node, ast.ExceptHandler) and \
                    isinstance(node.type, ast.Name) and node.type.id == "Exception":
                catchers.append(where)
    assert callers["_load"] == callers["_fit_d"] == {"_source_runs"}
    assert sorted(catchers) == ["_load", "_source_runs"]


def test_bound_checks_take_eps_from_the_pair():
    # eps and the least-squares oracle are the pair's own (P.eps, P.oracle),
    # so a diagnostics function that takes the pair P takes neither beside
    # it: a caller cannot pass another problem's
    tree = ast.parse((SRC / "diagnostics.py").read_text(encoding="utf-8"))
    both = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and [a.arg for a in node.args.args][:1] == ["P"]
            and {"eps", "oracle"} & {a.arg for a in ast.walk(node.args)
                                     if isinstance(a, ast.arg)}]
    assert both == [], f"{both} take eps or an oracle beside P, which holds its own"
