"""Checks on the package source itself."""

import ast
import dataclasses
import re
from pathlib import Path

import oplattice

SOURCES = sorted(Path(oplattice.__file__).parent.glob("*.py"))


def test_sources_were_found():
    assert any(path.name == "algebra.py" for path in SOURCES)


def test_every_raise_names_a_package_error():
    # `errors.OperatorAlgebraError` is the base of every error the package raises: a raise names
    # a class of `errors`, but for `run_scenario` re-raising its error's own type with the
    # scenario's name, and the CLI's exit
    defined = {name for name, value in vars(oplattice.errors).items()
               if isinstance(value, type) and issubclass(value, oplattice.OperatorAlgebraError)}
    raised = [
        (path.name, ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert len(raised) > 50
    assert sorted(r for r in raised if r[1] not in defined) == [
        ("cli.py", "SystemExit"), ("scenarios.py", "type(exc)")]


def test_no_assert_statements_in_the_package():
    # invariants raise NumericalError: `assert` disappears under `python -O`
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_seeding_builds_numpy_generators():
    # one home for generator construction: a sampler seeding its own generators would bring
    # back a generator per trial, which one bulk draw of `seeding.uniforms` per stage replaced
    builders = ("default_rng", "SeedSequence", "Philox", "PCG64", "Generator")
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "seeding.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in builders)
        or (isinstance(node, ast.Name) and node.id in builders)
    ]
    assert found == []


def test_the_sampling_stages_draw_from_no_generator():
    # a sampling stage reads the rows of its `uniforms` call; a per-generator draw method there
    # is a draw per trial again
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name in ("logic.py", "states.py", "scenarios.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("standard_normal", "integers", "random")
    ]
    assert found == []


def test_only_numerics_writes_json_text():
    # one home for the JSON text: a second writer could drift from the bytes `numerics.dumps`
    # writes, or bring back the per-entry formatting it replaced
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "numerics.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps", "JSONEncoder")
            and isinstance(node.value, ast.Name) and node.value.id == "json")
        or (isinstance(node, ast.ImportFrom) and node.module == "json")
    ]
    assert found == []


def test_only_numerics_compares_operator_norms():
    # one home for norm-bound decisions: `numerics.norm_at_most` screens by the Frobenius norm
    # and keeps every verdict of the SVD; an inline comparison would bring the SVD back
    compared = re.compile(r"operator_norm\(.*\)\s*(<=|>=|<|>)")
    found = [
        f"{path.name}:{number}"
        for path in SOURCES
        if path.name != "numerics.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if compared.search(line)
    ]
    assert found == []


def _returns_norm(expr, norms) -> bool:
    """A call of one of `norms`, an item of one, or a tuple holding one."""
    if isinstance(expr, ast.Call):
        func = expr.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in norms
    if isinstance(expr, ast.Subscript):
        return _returns_norm(expr.value, norms)
    return isinstance(expr, ast.Tuple) and any(_returns_norm(e, norms) for e in expr.elts)


def norm_names_compared(source: str) -> list[int]:
    """Lines comparing an operator norm, held in a name bound in the same function or taken
    straight from a call: of `operator_norm`, or of a function of the module that returns one
    (to a fixed point)."""
    functions = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)]
    norms = {"operator_norm"}
    while more := {f.name for f in functions for node in ast.walk(f) if isinstance(node, ast.Return)
                   and node.value is not None and _returns_norm(node.value, norms)} - norms:
        norms |= more
    lines = []
    for f in functions:
        held = {target.id for node in ast.walk(f)
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
                and node.value is not None and _returns_norm(node.value, norms)
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                for target in ast.walk(t)
                if isinstance(target, ast.Name)}
        lines += [node.lineno for node in ast.walk(f) if isinstance(node, ast.Compare)
                  and any(isinstance(o, ast.Subscript) and isinstance(o.value, ast.Name)
                          and o.value.id in held or isinstance(o, ast.Name) and o.id in held
                          or _returns_norm(o, norms) for o in (node.left, *node.comparators))]
    return lines


def test_no_operator_norm_is_held_and_then_compared():
    # the line regex above misses a norm bound to a name, directly or through a helper that
    # returns it, and compared on a later line, or a helper's norm compared straight away:
    # the same inline SVD verdict
    sample = (
        "def _law(p, q):\n"
        "    return operator_norm(q - p), (p, q)\n"
        "def report(p, q, tol):\n"
        "    residuals, derived = _law(p, q)\n"
        "    return residuals <= tol\n"
        "def check(p, q, tol):\n"
        "    return _law(p, q)[0] <= tol\n"
    )
    assert norm_names_compared(sample) == [5, 7]
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "numerics.py"
        for line in norm_names_compared(path.read_text())
    ]
    assert found == []


def test_every_seed_stream_has_a_reader():
    # a deleted sampler must not leave its stream id behind: each `STREAM_*` constant of
    # `seeding` is read (a name or an attribute, not just an import) in another module
    seeding = next(path for path in SOURCES if path.name == "seeding.py")
    streams = {
        target.id
        for node in ast.parse(seeding.read_text()).body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("STREAM_")
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in SOURCES
        if path != seeding
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert streams and sorted(streams - read) == []


def test_scenarios_never_close_words():
    # a scenario calls `generated_algebra` itself: `close` is the same algebra under the name the
    # benchmark traces, so a scenario stage that called it would count as a traced `close`
    scenarios = next(path for path in SOURCES if path.name == "scenarios.py")
    found = [
        node.lineno
        for node in ast.walk(ast.parse(scenarios.read_text(), filename=str(scenarios)))
        if (isinstance(node, ast.Name) and node.id == "close")
        or (isinstance(node, ast.Attribute) and node.attr == "close")
        or (isinstance(node, ast.alias) and node.name == "close")
    ]
    assert found == []


def test_only_the_named_functions_read_a_basis():
    # every scenario stage, draw and membership check reads the sectors' frame; an algebra
    # builds its basis only when read, so a stage that read one would pay for a (k, d, d) array
    # no report holds. `sectors` reads a basis only to decompose a basis passed in, `same_span`
    # the units of its smaller side, and `algebra_to_json` writes it; no other module reads one
    allowed = {"algebra.py": {"same_span", "algebra_to_json"},
               "sectors.py": {"_decompose", "_certify"}}
    readers = {
        path.name: {
            top.name if isinstance(top, ast.FunctionDef) else f"line {node.lineno}"
            for top in ast.parse(path.read_text(), filename=str(path)).body
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "basis"
        }
        for path in SOURCES
    }
    assert readers == {path.name: allowed.get(path.name, set()) for path in SOURCES}


def test_every_tolerance_field_has_a_reader():
    # a threshold that nothing reads is a knob with no effect: each field of `Tolerance` is
    # read as an attribute (`.<field>`) in some module other than `numerics`, its home
    fields = {f.name for f in dataclasses.fields(oplattice.Tolerance)}
    read = {
        node.attr
        for path in SOURCES
        if path.name != "numerics.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
    }
    assert fields and sorted(fields - read) == []


def test_the_cli_imports_only_exported_names():
    # the CLI is a client of the package's public API: a name it needs is exported by
    # `oplattice/__init__.py`, never a private helper reached into from one module

    def imported(name):
        path = next(path for path in SOURCES if path.name == name)
        return {
            alias.name
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }

    used = imported("cli.py")
    assert used and sorted(used - imported("__init__.py")) == []


def _named(path) -> set:
    """Every identifier a module's code names: names, attributes, imports and definitions."""
    return {
        node.id if isinstance(node, ast.Name) else
        node.attr if isinstance(node, ast.Attribute) else node.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef))
    }


def test_the_structure_is_read_by_one_route():
    # the generators' commutant is chained from h's refined clusters, and a caller basis is read
    # through that same chain: no null-space system, and no second reader of eigenvalue clusters
    named = {path.name: _named(path) for path in SOURCES}
    assert [name for name in ("algebra.py", "sectors.py") if "null_space" in named[name]] == []
    assert sorted(name for name, names in named.items() if "spectral_clusters" in names) == [
        "numerics.py", "sectors.py"]


def test_both_samplers_cut_one_spectrum():
    # a projector and an orthogonal family are cut from one element's clusters by one helper
    # (`logic._spectral_cuts`): no second reader of cluster breaks, and no `eigh` in `states`
    named = {path.name: _named(path) for path in SOURCES}
    assert sorted(name for name, names in named.items() if "cluster_breaks" in names) == [
        "logic.py", "numerics.py"]
    assert "eigh" not in named["states.py"]


def test_one_constructor_builds_an_algebra_off_its_sectors():
    # every sector-built algebra holds its own decomposition, made by `algebra._with_sectors`
    # alone: a second `object.__new__(AlgebraBasis)` or a side channel of another algebra's
    # sectors or defects would bring back the double swap
    built = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
        and [ast.unparse(a) for a in node.args] == ["AlgebraBasis"]
    ]
    assert len(built) == 1 and built[0].startswith("algebra.py:")
    named = {path.name: _named(path) for path in SOURCES}
    assert sorted(name for name, names in named.items()
                  if names & {"_sectors", "_defects", "_commuting_with"}) == []


def test_a_sector_is_its_isometry():
    # a sector stores V alone and derives z = V V*, so the two cannot disagree; the dimension
    # function is the trace tr(V* p V), with no SVD; a scenario evaluates the central
    # projectors it built itself, never re-validating them as a `LogicalState` would
    assert [f.name for f in dataclasses.fields(oplattice.Sector)] == [
        "block_size", "multiplicity", "isometry"]
    sectors = next(path for path in SOURCES if path.name == "sectors.py")
    (reduced,) = [node for node in ast.parse(sectors.read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_reduced_ranks"]
    named = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(reduced) if isinstance(node, (ast.Attribute, ast.Name))}
    assert named & {"svd", "singular_rank"} == set()
    scenarios = next(path for path in SOURCES if path.name == "scenarios.py")
    assert "LogicalState" not in _named(scenarios)


def test_one_kernel_turns_eigenvector_columns_into_a_proposition():
    # every sampled projector is `numerics.run_projectors` of a run of block columns, made by
    # one helper (`logic._run_blocks`) for both samplers: the family draws form no product of
    # their own, so each member has the bits of its slices' `range_projector`. The one
    # exception, made by that helper too: a 1 x 1 block is its place mask, `run_projectors`' bits
    named = {path.name: _named(path) for path in SOURCES}
    assert sorted(name for name, names in named.items() if "suffix_projectors" in names) == []
    assert sorted(name for name, names in named.items() if "run_projectors" in names) == [
        "logic.py", "numerics.py"]
    assert sorted(name for name, names in named.items() if "_run_blocks" in names) == [
        "logic.py", "states.py"]
    states = next(path for path in SOURCES if path.name == "states.py")
    draws = [node for node in ast.parse(states.read_text()).body
             if isinstance(node, ast.FunctionDef)
             and node.name in ("_random_orthogonal_families", "random_orthogonal_family")]
    assert len(draws) == 2
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                   for draw in draws for node in ast.walk(draw))
    assert "range_projector" not in {node.id for draw in draws for node in ast.walk(draw)
                                     if isinstance(node, ast.Name)}


def _calls_by_function() -> dict:
    """Per source file, per top-level function, the set of what it calls (unparsed)."""
    callers = {}
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.FunctionDef):
                callers.setdefault(path.name, {})[top.name] = {
                    ast.unparse(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}
    return callers


def test_no_trial_stage_validates_a_proposition_itself():
    # a proposition is a run of `numerics.run_projectors`, which guards each eigenbasis it reads:
    # the trial stages call no projector check, and in `logic` only the boundary of the public
    # lattice calls (`_projectors`) does; the ambient spot checks go through `sectors`' gate
    checks = {"ensure_projector", "is_projector"}
    callers = _calls_by_function()
    stages = [callers["logic.py"]["lattice_report"], callers["states.py"]["_orthoadditivity"],
              callers["scenarios.py"]["_orthoadditivity_checks"]]
    assert [called & checks for called in stages] == [set()] * 3
    assert sorted(name for name, called in callers["logic.py"].items()
                  if "ensure_projector" in called) == ["_projectors"]


def test_one_gate_checks_a_projector_in_an_algebra():
    # "a projector in this algebra" is decided in one function, `sectors._projectors_in`: every
    # caller (the dimension function, a logical state's value, a family, the spot checks) goes
    # through it, so no second check can drift in its order, its labels or its message
    pairs = [(path.name, name)
             for path in SOURCES
             for name, scope in _scopes(ast.parse(path.read_text(), filename=str(path)))
             if {"ensure_projector", "contains"} <= {ast.unparse(node.func).split(".")[-1]
                                                     for node in ast.walk(scope)
                                                     if isinstance(node, ast.Call)}]
    assert pairs == [("sectors.py", "_projectors_in")]


def test_no_trial_stage_solves_a_join_it_knows():
    # orthomodularity's p ∨ (p⊥ ∧ q) is the sum p + (p⊥ ∧ q), and a drawn family's join is its
    # base, drawn with its members: only a family from outside has its join solved
    callers = _calls_by_function()
    stages = [callers["logic.py"]["lattice_report"], callers["logic.py"]["_orthomodularity"],
              callers["states.py"]["_orthoadditivity"],
              callers["scenarios.py"]["_orthoadditivity_checks"]]
    assert [called & {"_join", "join"} for called in stages] == [set()] * 4
    assert sorted(name for name, called in callers["states.py"].items()
                  if "_join" in called) == ["sigma_orthoadditivity_residuals"]


def test_no_trial_stack_goes_through_an_ambient_product():
    # the trial stages run on sector blocks: only `sectors` reads the frame's unitary, where
    # `_ambient` maps blocks to M_d (the public samplers, a counterexample, one spot check per
    # stage) and the partial traces map M_d to blocks
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name in ("logic.py", "states.py", "scenarios.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("u", "uh")
    ]
    assert found == []


def test_no_function_imports_from_the_package():
    # each module imports the package modules it builds on once, at its top: a function-level
    # relative import hides a dependency, and with it an import cycle
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for top in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(top)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert found == []


def test_sectors_builds_on_no_algebra_at_run_time():
    # `sectors` owns the sector format (chain, frame, units, membership) and `algebra` builds on
    # it; `sectors` names `AlgebraBasis` in annotations only, imported for type checkers
    sectors = next(path for path in SOURCES if path.name == "sectors.py")
    tree = ast.parse(sectors.read_text(), filename=str(sectors))
    checked = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.If) and ast.unparse(top.test) == "TYPE_CHECKING"
        for node in ast.walk(top)
    }
    found = [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in checked and (
            isinstance(node, ast.ImportFrom) and (
                node.module in ("algebra", "oplattice.algebra")
                or any(alias.name == "algebra" for alias in node.names))
            or isinstance(node, ast.Import)
            and any(alias.name == "oplattice.algebra" for alias in node.names))
    ]
    assert found == [] and len(checked) > 1


def _scopes(tree) -> list:
    """Each top-level function and class method of a module, with its (dotted) name."""
    return [(f"{top.name}.{node.name}" if isinstance(top, ast.ClassDef) else top.name, node)
            for top in tree.body
            for node in (top.body if isinstance(top, ast.ClassDef) else [top])
            if isinstance(node, ast.FunctionDef)]


def structural_answers(source: str) -> list:
    """``(function, line)`` of each structural decision a function makes itself: a
    ``.block_size`` or a ``len(<...>.sectors)`` compared with 1, or a sort keyed in a function
    that names ``block_size``."""
    def one_of(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "block_size"
                or isinstance(node, ast.Call) and ast.unparse(node.func) == "len"
                and len(node.args) == 1 and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "sectors")

    found = []
    for name, function in _scopes(ast.parse(source)):
        nodes = list(ast.walk(function))
        shaped = any(isinstance(n, ast.Attribute) and n.attr == "block_size"
                     or isinstance(n, ast.Constant) and n.value == "block_size" for n in nodes)
        for node in nodes:
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(one_of, operands)) and any(
                        isinstance(o, ast.Constant) and o.value == 1 for o in operands):
                    found.append((name, node.lineno))
            elif (shaped and isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] in ("sorted", "sort")
                  and any(k.arg == "key" for k in node.keywords)):
                found.append((name, node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_each_structural_question_has_one_answer():
    # "commutative?" (every block size 1) is `algebra.is_commutative`, "a factor?" (one sector)
    # `sectors.is_factor`, and the frame's shape order `SectorDecomposition.frame`, which keeps
    # its sectors in that order: a module deciding one of them itself could drift from the owner
    sample = (
        "def report(alg, decomp):\n"
        "    boolean = all(s.block_size == 1 for s in decomp.sectors)\n"
        "    return boolean, len(decomp.sectors) == 1\n"
        "def ranks(decomp):\n"
        "    return sorted(decomp.sectors, key=lambda s: (s.block_size, s.multiplicity))\n"
        "def pairs(decomp):\n"
        "    return sorted([s.block_size, s.multiplicity] for s in decomp.sectors)\n"
    )
    assert structural_answers(sample) == [("report", 2), ("report", 3), ("ranks", 5)]
    owners = {("algebra.py", "is_commutative"), ("sectors.py", "is_factor"),
              ("sectors.py", "SectorDecomposition.frame")}
    found = [(path.name, name, line)
             for path in SOURCES
             for name, line in structural_answers(path.read_text())]
    assert sorted({(path, name) for path, name, _ in found}) == sorted(owners)
