"""Every name a defsim module imports is used in that module, and every
module-level constant, function and method is referenced somewhere in the
package.

A stdlib stand-in for a linter's unused-name rules: deleting a function
often leaves its imports and constants behind, and nothing else notices
them; a function that only the tests call is dead code in the package.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Optional

import pytest

import defsim

SOURCES = sorted(Path(defsim.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "KnowledgeBase"
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(imported_names(tree).items()) if name not in used]


def test_checker_flags_an_unused_import_and_accepts_used_ones():
    source = ("from dataclasses import dataclass, field\n"
              "from typing import Optional\n"
              "import json\n"
              "__all__ = ['json']\n"
              "@dataclass\nclass A:\n    x: 'Optional[int]'\n")
    assert unused_imports(source) == ["field (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_constants(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) and node.value is not None else [])
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                names[target.id] = node.lineno
    return names


def reference_counts(node: ast.AST) -> Counter:
    """How often each name is read under `node`: loaded names, attribute
    names (module.NAME) and names imported from another module."""
    refs: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def unreferenced_constants(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = set().union(*(reference_counts(tree) for tree in trees.values()))
    return [f"{name}: {const} (line {line})"
            for name, tree in sorted(trees.items())
            for const, line in sorted(module_constants(tree).items()) if const not in refs]


def test_checker_flags_an_unreferenced_constant_and_accepts_used_ones():
    sources = {
        "a.py": "LIMIT = 3\nUNUSED: int = 4\n_TABLE = {}\nlower = 5\n"
                "def f(x=LIMIT):\n    return x\n",
        "b.py": "from a import _TABLE\nimport c\nprint(_TABLE, c.SHARED)\n",
        "c.py": "SHARED = 1\n",
    }
    assert unreferenced_constants(sources) == ["a.py: UNUSED (line 2)"]


def test_every_module_constant_is_referenced():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_constants(sources) == []


# Functions that nothing in the package calls, kept for a reason outside it.
KEPT_FUNCTIONS = {
    "learning.py: KnowledgeBase.estimate": "criterion 7 reads the learnt effect estimates",
    "planning.py: score_sequence": "the traced benchmark run wraps it (perfbench/spans.py)",
}


def module_functions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level functions and the methods of module-level classes, as
    `name` or `Class.name`; Python calls the dunder methods itself."""
    functions = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{item.name}", item) for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not (item.name.startswith("__") and item.name.endswith("__"))]
    return functions


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """Functions whose name is read nowhere in `sources` but in their own body."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    refs = sum((reference_counts(tree) for tree in trees.values()), Counter())
    return sorted(f"{name}: {qualname}"
                  for name, tree in trees.items()
                  for qualname, node in module_functions(tree)
                  if refs[node.name] <= reference_counts(node)[node.name])


def test_checker_flags_an_unreferenced_function_and_accepts_used_ones():
    sources = {
        "a.py": "def used():\n    pass\n"
                "def recursive():\n    return recursive()\n"
                "class K:\n"
                "    def __init__(self):\n        pass\n"
                "    def method(self):\n        return self.helper()\n"
                "    @staticmethod\n    def helper():\n        pass\n"
                "    def dead(self):\n        pass\n",
        "b.py": "from a import used, K\nused()\nK().method()\n",
    }
    assert unreferenced_functions(sources) == ["a.py: K.dead", "a.py: recursive"]


def test_every_function_is_referenced_in_the_package():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_functions(sources) == sorted(KEPT_FUNCTIONS)


def test_two_functions_are_kept_for_a_caller_outside_the_package():
    # criterion 7 calls KnowledgeBase.estimate until the planner reads the learnt
    # estimates, and perfbench/spans.py wraps score_sequence until the traced
    # benchmark drops it, so that the planning oracle can take it
    assert sorted(KEPT_FUNCTIONS) == ["learning.py: KnowledgeBase.estimate",
                                      "planning.py: score_sequence"]


# Dataclass fields and instance attributes that nothing in the package reads,
# kept for a reason outside it.
KEPT_FIELDS = {
    "envsim.py: Host.friendly": "a scenario input that the platform model carries",
    "envsim.py: Process.image_hash": "a scenario input that the platform model carries",
    "planning.py: PlanProposal.predicted_satisfaction":
        "the planner parity test compares it with the oracle's",
    "runner.py: EpisodeResult.decision_log":
        "perfbench and the explain tests render the decisions of an episode in memory",
    "scenario.py: ScenarioConfig.raw":
        "the acceptance tests and the perfbench tests read the scenario as written",
}
# Kept fields whose name the package reads on another class (Episode.decision_log):
# the check below matches by name, so only the class-aware field probe of
# scripts/scenario_coverage.py sees them.
READ_ON_ANOTHER_CLASS = {"runner.py: EpisodeResult.decision_log"}
# Fields the package reads only through dataclasses.asdict (the runner emits a
# Deviation whole as its agent.deviation event): the check below sees attribute
# loads alone, so only the class-aware field probe sees these read.
READ_BY_ASDICT = {"execution.py: Deviation.detail", "execution.py: Deviation.deviation_kind"}


def dataclass_fields(tree: ast.Module) -> list[str]:
    """The fields of the module-level dataclasses, as `Class.field`."""
    fields = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
            fields += [f"{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return fields


def instance_attributes(tree: ast.Module) -> list[str]:
    """The attributes the module-level classes assign on `self`, as `Class.attr`."""
    return [f"{node.name}.{sub.attr}" for node in tree.body if isinstance(node, ast.ClassDef)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name) and sub.value.id == "self"]


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Dataclass fields and attributes assigned on `self` whose name is
    loaded as an attribute nowhere in `sources`."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loaded = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
              if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return sorted({f"{name}: {qualname}"
                   for name, tree in trees.items()
                   for qualname in dataclass_fields(tree) + instance_attributes(tree)
                   if qualname.split(".")[1] not in loaded})


def test_checker_flags_an_unread_field_and_accepts_read_ones():
    sources = {
        "a.py": "from dataclasses import dataclass, field\n"
                "@dataclass\nclass P:\n    x: int\n    y: int = 0\n"
                "    z: list = field(default_factory=list)\n"
                "@dataclass(frozen=True)\nclass Q:\n    w: int\n"
                "class Plain:\n    v: int\n"
                "    def __init__(self, other):\n"
                "        self.kept, self.lost = 1, 2\n"
                "        self.count: int = 0\n"
                "        self.count += 1\n"
                "        other.elsewhere = 3\n"
                "    def get(self):\n        return self.kept\n"
                "def f(p, q):\n    p.y = 1\n    return q.w\n",
        "b.py": "from a import P\nprint(P(1).x)\n",
    }
    assert unread_fields(sources) == ["a.py: P.y", "a.py: P.z",
                                      "a.py: Plain.count", "a.py: Plain.lost"]


def test_every_dataclass_field_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unread_fields(sources) == sorted(
        (KEPT_FIELDS.keys() - READ_ON_ANOTHER_CLASS) | READ_BY_ASDICT)


def unraised_errors(sources: dict[str, str]) -> list[str]:
    """The classes of errors.py that nothing in `sources` raises or catches
    by name and that are no base of one that is."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in trees["errors.py"].body if isinstance(node, ast.ClassDef)}
    named = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                named.append(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                named += node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    live = {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None) for n in named}
    todo = list(live & set(bases))
    while todo:
        for base in bases[todo.pop()]:
            if base in bases and base not in live:
                live.add(base)
                todo.append(base)
    return sorted(set(bases) - live)


def test_checker_flags_an_error_class_that_nothing_raises_or_catches():
    sources = {
        "errors.py": "class Base(Exception):\n    pass\n"
                     "class Mid(Base):\n    pass\n"
                     "class Leaf(Mid):\n    pass\n"
                     "class Lost(Base):\n    pass\n"
                     "class Caught(Exception):\n    pass\n"
                     "class Named(Exception):\n    pass\n"
                     "def f():\n    raise errors.Leaf\n",
        "a.py": "from errors import Caught, Named\n"
                "try:\n    pass\nexcept (Caught, KeyError):\n    pass\n"
                "print(Named)\n",
    }
    assert unraised_errors(sources) == ["Lost", "Named"]


def test_every_error_class_is_raised_or_caught():
    # a class whose last raise goes would otherwise stay behind as dead code
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unraised_errors(sources) == []


def builtin_sums(source: str) -> list[str]:
    """Every use of builtin sum other than counting, `sum(1 for ...)`.

    CPython 3.12 made sum() compensate float rounding, so a sum that can see
    a float gives other bits there than on 3.10 and 3.11; defsim adds floats
    with envsim.sum_in_order instead."""
    tree = ast.parse(source)
    counting = {id(node.func) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum" and len(node.args) == 1 and not node.keywords
                and isinstance(node.args[0], ast.GeneratorExp)
                and isinstance(node.args[0].elt, ast.Constant)
                and type(node.args[0].elt.value) is int and node.args[0].elt.value == 1}
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "sum" and id(node) not in counting)]


def test_checker_flags_every_sum_but_counting():
    source = ("a = sum(xs)\n"
              "b = sum((x for x in xs), 0.0)\n"
              "c = sum(x for x in xs)\n"
              "d = sum(True for x in xs)\n"
              "e = sum\n"
              "f = sum(1 for x in xs if x)\n"
              "g = sum_in_order(xs)\n")
    assert builtin_sums(source) == ["line 1", "line 2", "line 3", "line 4", "line 5"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_sums_floats_in_order(path):
    assert builtin_sums(path.read_text()) == []


JSON_WRITERS = {"dump", "dumps", "JSONEncoder"}


def canonical_encoders(source: str) -> list[str]:
    """Every call that builds a canonical JSON writer: json.dump, json.dumps
    or json.JSONEncoder given `separators=`, or `sort_keys` without `indent`
    (indented output is for people), and every call of c_make_encoder.

    errors.canonical_json is the one writer of the canonical form; a second
    one could drift from it and change trace, result or auth-tag bytes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        keywords = {k.arg: k.value for k in node.keywords}
        sorts = "sort_keys" in keywords and not (
            isinstance(keywords["sort_keys"], ast.Constant) and keywords["sort_keys"].value is False)
        if name == "c_make_encoder" or name in JSON_WRITERS and (
                "separators" in keywords or sorts and "indent" not in keywords):
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_flags_every_canonical_encoder_but_indented_output():
    source = ("import json\n"
              "from json import JSONEncoder, dumps\n"
              "from json.encoder import c_make_encoder\n"
              "a = json.dumps(x, sort_keys=True, separators=(',', ':'))\n"
              "b = json.JSONEncoder(sort_keys=True).encode\n"
              "c = dumps(x, separators=(',', ':'))\n"
              "d = c_make_encoder({}, None, None, None, ':', ',', True, False, True)\n"
              "e = JSONEncoder(indent=2, separators=(',', ': '))\n"
              "f = json.dump(x, out, sort_keys=flag)\n"
              "g = json.dumps(x, sort_keys=True, indent=2)\n"
              "h = json.dumps(x, sort_keys=False)\n"
              "i = json.dumps(x)\n"
              "j = canonical_json(x)\n")
    assert canonical_encoders(source) == [
        "line 4: dumps", "line 5: JSONEncoder", "line 6: dumps", "line 7: c_make_encoder",
        "line 8: JSONEncoder", "line 9: dump"]


def test_the_package_has_one_canonical_encoder():
    found = {path.name: canonical_encoders(path.read_text()) for path in SOURCES}
    assert [call.split(": ")[1] for call in found.pop("errors.py")] == ["c_make_encoder"]
    assert found == {name: [] for name in found}


def function_owners(tree: ast.Module) -> dict[int, str]:
    """The id of each node inside a module-level function or method -> its
    `name` or `Class.name`."""
    return {id(sub): qualname for qualname, node in module_functions(tree)
            for sub in ast.walk(node)}


SEND_CALLS = {"route", "deliver", "build_message"}


def send_calls(source: str) -> list[str]:
    """`function: name` of each call of route, deliver or build_message in
    `source`, by the module-level function or method that makes it
    (`<module>` for any other place)."""
    tree = ast.parse(source)
    owner = function_owners(tree)
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in SEND_CALLS:
                calls.append(f"{owner.get(id(node), '<module>')}: {name}")
    return sorted(calls)


def test_checker_names_each_send_call_by_its_function():
    source = ("def f(env):\n    return env.route('h1', 'h2')\n"
              "class P:\n"
              "    def send(self):\n"
              "        m = build_message(k)\n"
              "        return self.env.deliver(c, m)\n"
              "deliver(x)\n"
              "def g():\n    return routes(), env.deliver\n")
    assert send_calls(source) == ["<module>: deliver", "P.send: build_message",
                                  "P.send: deliver", "f: route"]


def test_every_message_is_sent_in_collaboration():
    # Post.send routes, tags and delivers every message; propagate sends the
    # replica transfer itself, past the spoofer
    calls = {path.name: send_calls(path.read_text()) for path in SOURCES}
    assert calls.pop("collaboration.py") == [
        "Post.send: build_message", "Post.send: deliver", "Post.send: route",
        "propagate: build_message", "propagate: deliver", "propagate: route"]
    assert calls == {name: [] for name in calls}


def attribute_reads(source: str, attr: str) -> list[str]:
    """The function or method (`<module>` for any other place) of each read
    of the attribute `attr` in `source`: a load that is not the table of an
    item write such as `x.attr[k] += 1`."""
    tree = ast.parse(source)
    owner = function_owners(tree)
    tables = {id(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)}
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == attr
                  and isinstance(node.ctx, ast.Load) and id(node) not in tables)


def test_checker_names_each_read_of_an_attribute_by_its_function():
    source = ("class E:\n"
              "    def __init__(self):\n        self.n = {}\n"
              "    def bump(self, k):\n        self.n[k] += 1\n        del self.n[k]\n"
              "    def peek(self, k):\n        return self.n[k], self.n.get(k)\n"
              "def f(env):\n    env.n = {}\n    return env.n, env.m\n"
              "print(E().n)\n")
    assert attribute_reads(source, "n") == ["<module>", "E.peek", "E.peek", "f"]


def test_only_the_agent_phase_reads_a_hosts_change_count():
    # the change count is the one signal that a host's reads are stale: an
    # agent reads its sensors again exactly when its host's count moved
    reads = {path.name: attribute_reads(path.read_text(), "host_changes") for path in SOURCES}
    assert {name: found for name, found in reads.items() if found} == {
        "runner.py": ["Episode._agent_phase"]}


PATH_WRITERS = {"write_text", "write_bytes"}


def file_writes(source: str) -> list[str]:
    """`function: call` of each call in `source` that can write a file:
    Path.write_text or write_bytes, os.open, and open, io.open or a
    `.open` method given a mode holding w, a, x or +, or a mode that is not
    a literal. open's and io.open's mode is their second argument, a
    method's its first."""
    tree = ast.parse(source)
    owner = function_owners(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        receiver = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name) else None
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open" and receiver != "os":
            at = 1 if isinstance(func, ast.Name) or receiver == "io" else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                          and not set(mode.value) & set("wax+"))
        else:  # os.open opens for writing by its flags
            writes = name == "open" or (name in PATH_WRITERS and isinstance(func, ast.Attribute)
                                        and receiver != "errors")
        if writes:
            call = f"{receiver}.{name}" if receiver in ("os", "io") else name
            found.append(f"{owner.get(id(node), '<module>')}: {call}")
    return sorted(found)


def test_checker_names_each_call_that_can_write_a_file():
    source = ("import io, os\n"
              "def read(path):\n"
              "    with open(path, encoding='utf-8', newline='') as f, open(path, 'rb') as g:\n"
              "        return f.read(), g.read(), Path(path).read_text(), Path(path).open()\n"
              "def write(path, text, mode):\n"
              "    Path(path).write_text(text)\n"
              "    path.write_bytes(b'')\n"
              "    os.open(path, os.O_RDONLY)\n"
              "    open(path, 'a'), open(path, mode=mode), io.open(path, 'r+')\n"
              "    Path(path).open('x'), open(path, 'rb'), io.open(path)\n"
              "    write_text(path, text), errors.write_text(path, text)\n"
              "open(os.devnull, 'w')\n")
    assert file_writes(source) == [
        "<module>: open", "write: io.open", "write: open", "write: open", "write: open",
        "write: os.open", "write: write_bytes", "write: write_text"]


def test_only_the_one_writer_writes_a_file():
    # errors.write_text writes every artifact the same way: UTF-8, no newline
    # translation, overwritten in place and cut to length
    found = {path.name: file_writes(path.read_text()) for path in SOURCES}
    assert found.pop("errors.py") == ["write_text: open", "write_text: os.open"]
    assert found == {name: [] for name in found}


# raises that name no class of errors.py: (module, function, exception) -> why it stays
KEPT_RAISES = {
    ("planning.py", "_product", "OverflowError"):
        "Deliberations._replays catches it, as an ArithmeticError, and gives up the replay",
}


def _types_an_error(annotation, classes: set[str]) -> bool:
    """Whether an annotation reads type[<a class of errors.py>]."""
    return (isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name)
            and annotation.value.id == "type" and isinstance(annotation.slice, ast.Name)
            and annotation.slice.id in classes)


def stray_raises(source: str, classes: set[str]) -> list[tuple[str, str]]:
    """(function, raised name) of every raise in `source` that does not name
    one of `classes`, does not raise a parameter typed as one of them, and is
    no bare re-raise. A function is named by its innermost def."""
    found: list[tuple[str, str]] = []

    def visit(node, function: str, typed: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                typed_here = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                              if _types_an_error(a.annotation, classes)}
                visit(child, child.name, typed_here)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", ast.unparse(exc))
                if name not in classes and not (isinstance(exc, ast.Name) and name in typed):
                    found.append((function, name))
            visit(child, function, typed)

    visit(ast.parse(source), "<module>", set())
    return found


def test_checker_flags_a_raise_of_no_error_class():
    source = ("def f(error: type[Bad], other: type[ValueError], *, kw: type[Bad]):\n"
              "    raise Bad('x')\n"
              "    raise errors.Bad\n"
              "    raise error('x') from None\n"
              "    raise kw\n"
              "    raise other('x')\n"
              "    raise ValueError('x')\n"
              "    try:\n        pass\n    except KeyError:\n        raise\n"
              "    def g():\n        raise error('x')\n"
              "class C:\n    def m(self):\n        raise make_bad()\n"
              "raise KeyError\n")
    assert stray_raises(source, {"Bad"}) == [
        ("f", "other"), ("f", "ValueError"), ("g", "error"), ("m", "make_bad"),
        ("<module>", "KeyError")]


def test_every_raise_names_an_error_class():
    # a runtime raise of a builtin exception is either a re-check of what the
    # scenario's validation guarantees or an error that escapes the CLI's exit codes
    sources = {path.name: path.read_text() for path in SOURCES}
    classes = {node.name for node in ast.parse(sources["errors.py"]).body
               if isinstance(node, ast.ClassDef)}
    found = {(module, function, name) for module, source in sources.items()
             for function, name in stray_raises(source, classes)}
    assert found == set(KEPT_RAISES)



# the classes of the platform model: an agent senses their fields, so each write
# to one goes through an Environment method, which advances its host's change count
PLATFORM_CLASSES = {"Host", "Service", "Process", "FileEntry", "CommsChannel"}
# what reaches a platform object: the environment's tables and a host's
PLATFORM_TABLES = {"hosts", "channels", "channels_adjacent", "services", "processes", "files"}
MUTATING_METHODS = {"pop", "popitem", "clear", "update", "setdefault"}


def class_fields(source: str) -> dict[str, set[str]]:
    """Class name -> its annotated fields and the attributes it assigns on `self`."""
    return {node.name: {item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            | {attr.split(".")[1] for attr in instance_attributes(ast.Module([node], []))}
            for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}


def _reaches_platform(node: ast.AST, names: set[str]) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr in PLATFORM_TABLES
               or isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(node))


def _written_attribute(node: ast.AST) -> Optional[ast.Attribute]:
    """The attribute `node` writes: by assignment or deletion of it or of an
    item of it, by a mutating method call on it, or by setattr."""
    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
        return node
    if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
        return node.value if isinstance(node.value, ast.Attribute) else None
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Attribute) and node.func.attr in MUTATING_METHODS:
        return node.func.value if isinstance(node.func.value, ast.Attribute) else None
    if (isinstance(node.func, ast.Name) and node.func.id == "setattr" and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)):
        return ast.Attribute(node.args[0], node.args[1].value, ast.Store())
    return None


def platform_writes(source: str, fields: set[str], shared: set[str]) -> list[str]:
    """`line N: field` of each write to one of `fields` in `source`. A field
    that another class also declares (in `shared`) counts only on a receiver
    that a platform table reaches, or on a name that the same top-level
    statement binds from a table or types as a platform class."""
    found = []
    for statement in ast.parse(source).body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.arg) and node.annotation is not None:
                if any(isinstance(sub, ast.Name) and sub.id in PLATFORM_CLASSES
                       or isinstance(sub, ast.Constant) and sub.value in PLATFORM_CLASSES
                       for sub in ast.walk(node.annotation)):
                    names.add(node.arg)
            elif isinstance(node, (ast.Assign, ast.For, ast.comprehension)):
                targets, value = ((node.targets, node.value) if isinstance(node, ast.Assign)
                                  else ([node.target], node.iter))
                if _reaches_platform(value, set()):
                    names |= {sub.id for target in targets for sub in ast.walk(target)
                              if isinstance(sub, ast.Name)}
        for node in ast.walk(statement):
            written = _written_attribute(node)
            if written is not None and written.attr in fields and (
                    written.attr not in shared or _reaches_platform(written.value, names)):
                found.append((node.lineno, written.attr))
    return [f"line {line}: {attr}" for line, attr in sorted(found)]


def test_checker_flags_each_write_to_a_platform_field():
    source = ("def f(env, host: Host, goal, roe, ch: 'CommsChannel'):\n"
              "    host.integrity = 0.5\n"
              "    env.channels['c'].state = 'disabled'\n"
              "    del env.hosts['h'].processes['p']\n"
              "    host.files.pop('f')\n"
              "    setattr(host, 'resident_agent', None)\n"
              "    goal.weight = 1.0\n"
              "    roe.state = 'x'\n"
              "    for svc in host.services.values():\n"
              "        svc.weight += 1\n"
              "    ch.state = 'spoofed'\n"
              "    return host.health, env.hosts['h'].services.get('s')\n"
              "class C:\n"
              "    def __init__(self, rt):\n"
              "        self.health = 1.0\n"
              "        rt.state = None\n")
    assert platform_writes(source, {"integrity", "state", "processes", "files", "resident_agent",
                                    "weight", "health"}, {"state", "weight"}) == [
        "line 2: integrity", "line 3: state", "line 4: processes", "line 5: files",
        "line 6: resident_agent", "line 10: weight", "line 11: state", "line 15: health"]


def test_only_envsim_writes_a_platform_field():
    sources = {path.name: path.read_text() for path in SOURCES}
    classes = class_fields(sources["envsim.py"])
    fields = set().union(*(classes[name] for name in PLATFORM_CLASSES))
    others = [names for source in sources.values() for name, names in class_fields(source).items()
              if name not in PLATFORM_CLASSES]
    shared = fields & set().union(*others)
    found = {name: platform_writes(source, fields, shared) for name, source in sources.items()}
    assert found.pop("envsim.py")  # the checker sees the environment's own writes
    assert found == {name: [] for name in found}
