"""Scenario files: the declarative input format of the toolkit.

A scenario is a restricted-JSON document declaring the working group,
coefficient modules, maps, named elements, finite quotients, cocycle
tables, certified matrices, lens constructors and free-form assertions.
Resolution either returns a fully validated Scenario or raises with a
list of positioned diagnostics; there is no partial acceptance.

The text is decoded to plain values as ``restricted_json.decode_json``
does, without positions.  A diagnostic records the path from the root to
the value or key it is about, and only a file that is refused is read by
the positioned parser, at most once, to turn each path into its
line:col: the decoder's own tree when it fell back to that parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

from .chi import Cocycle, FiniteQuotient, verify_cocycle
from .errors import ContextError, DimensionError, ObkitError, RejectedError
from .gmodules import GModule, ModuleMap
from .groupring import InvertiblePair, build_invertible
from .groups import FactorSpec, GroupElement, GroupSpec
from .intlinalg import QuotientPresentation
from .obstruction import LensClass, make_lens
from .restricted_json import JsonError, Node, _decode, parse_json
from .wh1 import WhElement
from .words import WordError, parse_generator_sequence, parse_wh, parse_word

__all__ = ["Diagnostic", "ScenarioError", "Scenario", "parse_scenario", "load_scenario"]

# Sections after name and group are built in this order, each by its
# build_<section> method.
KNOWN_SECTIONS = (
    "name", "group", "elements", "modules", "maps", "quotients",
    "cocycles", "matrices", "lenses", "assertions", "paper",
)

ASSERT_KERNEL = "kernel-of-first-invariant"

# Largest module rank and certified-matrix size accepted, four times what
# the fixtures and the benchmark use (rank 3, size 6); checked before
# anything of that size is allocated (load times in the README).  A
# matrix's terms are bounded by groupring.MAX_MATRIX_TERMS as it is built.
MAX_MODULE_RANK = 12
MAX_MATRIX_SIZE = 24
# Largest torsion order of the working group when the scenario builds
# a module, four times the Z/1024 of the tests.  Each module checks the
# law M^m = I of a torsion generator by about 2*log2(m) products, and
# each squaring can double the length of M's entries.
MAX_TORSION_ORDER = 4096


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.col}: {self.code} {self.message}"


class ScenarioError(ObkitError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))


@dataclass
class PaperConfig:
    lens: str
    retraction: str
    cocycle: str | None = None
    matrices: tuple[str, str, str] | None = None
    powers: int = 64


@dataclass
class Scenario:
    """A fully resolved scenario.

    Every entry of ``cocycles`` passed ``verify_cocycle`` when the file
    was loaded, which decides the identity on every quadruple from the
    rows at 1 and at the quotient generators (a violated table is
    diagnosed E243 at its first violated quadruple and nothing loads), so
    commands report such a cocycle as verified without checking it again.
    Every module and map passed its constructor's checks, and every entry
    of ``matrices`` is an ``InvertiblePair`` from ``build_invertible``,
    its matrix built by column operations within ``groupring``'s term and
    letter limits (a sequence past either is diagnosed E245 at
    ``generators``); its inverse is composed, within them, by ``chi_eval``.
    """

    name: str
    spec: GroupSpec
    elements: dict[str, GroupElement] = field(default_factory=dict)
    modules: dict[str, GModule] = field(default_factory=dict)
    maps: dict[str, ModuleMap] = field(default_factory=dict)
    quotients: dict[str, FiniteQuotient] = field(default_factory=dict)
    cocycles: dict[str, Cocycle] = field(default_factory=dict)
    matrices: dict[str, InvertiblePair] = field(default_factory=dict)
    lenses: dict[str, LensClass] = field(default_factory=dict)
    assertions: tuple[str, ...] = ()
    paper: PaperConfig | None = None

    @cached_property
    def framing(self) -> GModule:
        """The trivial-action Z/2 module of every lens's framing part,
        built on first use and shared by the scenario's lenses."""
        return GModule(self.spec, QuotientPresentation(1, [(2,)]), name="Z2")


class _KeyOf(NamedTuple):
    """A path step to the key of an object's pair at ``index``, where a
    string step leads to the value of the first pair with that key."""

    index: int


def _position(root: Node, path) -> tuple[int, int]:
    """The line and column of what ``path`` leads to from the positioned
    root: keys, array indices and a final _KeyOf step."""
    node = root
    for step in path:
        if isinstance(step, _KeyOf):
            _, line, col, _ = node.value[step.index]
            return line, col
        if isinstance(step, str):
            node = next(value for key, _, _, value in node.value if key == step)
        else:
            node = node.value[step]
    return node.line, node.col


class _Resolver:
    def __init__(self, text: str):
        self.text = text
        self.tree: Node | None = None
        self.diags: list[tuple[tuple, str, str]] = []

    def diag(self, path: tuple, code: str, message: str) -> None:
        self.diags.append((path, code, message))

    def bail(self):
        root = self.tree or parse_json(self.text)
        raise ScenarioError(Diagnostic(*_position(root, path), code, message)
                            for path, code, message in self.diags)

    # -- readers, one per shape of input -----------------------------------
    #
    # Each takes a value and the path to it, diagnoses the first malformed
    # part it meets and returns None; get_int returns its default for a
    # missing or non-integer field.

    def as_object(self, value, path: tuple, what: str) -> dict | None:
        if not isinstance(value, tuple):
            self.diag(path, "E200", f"{what} must be an object")
            return None
        out = dict(value)
        if len(out) < len(value):
            out = {}
            for i, (key, item) in enumerate(value):
                if key in out:
                    self.diag(path + (_KeyOf(i),), "E201", f"duplicate key {key!r}")
                else:
                    out[key] = item
        return out

    def entries(self, value, path: tuple, what: str, label: str):
        """(name, path, object) for each entry of the section ``value``
        whose value is an object, diagnosing the section and each entry in
        turn."""
        for name, entry in (self.as_object(value, path, what) or {}).items():
            epath = path + (name,)
            eobj = self.as_object(entry, epath, f"{label} {name!r}")
            if eobj is not None:
                yield name, epath, eobj

    def named(self, value, path: tuple, what: str, label: str, read) -> dict | None:
        """{name: read(item, path, "<label> 'name'")} for the object
        ``value``; {} when it is absent, None at the first item ``read``
        refuses."""
        out = {}
        if value is None:
            return out
        obj = self.as_object(value, path, what)
        if obj is None:
            return None
        for name, item in obj.items():
            out[name] = read(item, path + (name,), f"{label} {name!r}")
            if out[name] is None:
                return None
        return out

    def get_string(self, obj: dict, key: str, path: tuple) -> str | None:
        """obj[key] as a string; ``path`` leads to ``obj``."""
        value = obj.get(key)
        if value is None:
            self.diag(path, "E200", f"missing required field {key!r}")
            return None
        if not isinstance(value, str):
            self.diag(path + (key,), "E200", f"field {key!r} must be a string")
            return None
        return value

    def get_int(self, obj: dict, key: str, path: tuple, default=None, low=None, high=None):
        """obj[key] as an int: ``default`` when absent or not an integer, a
        required field when there is no default, and None outside
        [low, high]."""
        value = obj.get(key)
        if value is None:
            if default is None:
                self.diag(path, "E200", f"missing required field {key!r}")
            return default
        if type(value) is not int:
            self.diag(path + (key,), "E200", f"field {key!r} must be an integer")
            return default
        if (low is not None and value < low) or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            self.diag(path + (key,), "E200", f"field {key!r} must be {bound}")
            return None
        return value

    def array(self, value, path: tuple, kind: type, message: str,
              item_message: str) -> list | None:
        """An array of ``kind`` scalars."""
        if not isinstance(value, list):
            self.diag(path, "E200", message)
            return None
        for i, item in enumerate(value):
            if type(item) is not kind:
                self.diag(path + (i,), "E200", item_message)
                return None
        return value

    def int_list(self, value, path: tuple, what: str) -> list[int] | None:
        return self.array(value, path, int, f"{what} must be an array of integers",
                          f"{what} entries must be integers")

    def int_matrix(self, value, path: tuple, what: str) -> list[list[int]] | None:
        if not isinstance(value, list):
            self.diag(path, "E200", f"{what} must be an array of rows")
            return None
        rows = []
        for i, row in enumerate(value):
            r = self.int_list(row, path + (i,), f"{what} row")
            if r is None:
                return None
            rows.append(r)
        return rows

    def read_word(self, spec: GroupSpec, value, path: tuple, what: str) -> GroupElement | None:
        if not isinstance(value, str):
            self.diag(path, "E200", f"{what} must be a word string")
            return None
        try:
            return parse_word(spec, value)
        except WordError as err:
            self.diag(path, "E230", f"{what}: {err.message}")
            return None

    def lookup(self, table: dict, obj: dict, key: str, path: tuple, what: str):
        """The entry of ``table`` named by the string obj[key]; None,
        silently, when the field is absent."""
        value = obj.get(key)
        if value is None:
            return None
        if not isinstance(value, str):
            self.diag(path + (key,), "E200", f"{what} reference must be a string")
            return None
        if value not in table:
            self.diag(path + (key,), "E220", f"unresolved {what} name {value!r}")
            return None
        return table[value]

    # -- sections --------------------------------------------------------
    #
    # Each build_<section> takes the section's value and its path, (key,).

    def resolve(self) -> Scenario:
        if not self.text.strip():
            raise ScenarioError([Diagnostic(1, 1, "E210", "no group declared")])
        try:
            root, self.tree = _decode(self.text)
        except JsonError as err:
            raise ScenarioError([Diagnostic(err.line, err.col, "E100", err.message)]) from None
        top = self.as_object(root, (), "scenario")
        if top is None:
            self.bail()
        for i, (key, _) in enumerate(root):
            if key not in KNOWN_SECTIONS:
                self.diag((_KeyOf(i),), "E200", f"unknown section {key!r}")
        name = "scenario"
        if "name" in top:
            value = self.get_string(top, "name", ())
            if value is not None:
                name = value
        if "group" not in top:
            self.diag((), "E210", "no group declared")
            self.bail()
        gobj = self.as_object(top["group"], ("group",), "group")
        spec = None if gobj is None else self.build_group(gobj.get("factors"), ("group",))
        if spec is None or self.diags:
            self.bail()
        scenario = Scenario(name=name, spec=spec)
        for key in KNOWN_SECTIONS[2:]:
            if key in top:
                getattr(self, f"build_{key}")(top[key], (key,), scenario)
        if self.diags:
            self.bail()
        return scenario

    def build_group(self, factors, where: tuple) -> GroupSpec | None:
        """The free product of the ``factors`` array of the object at
        ``where``; a missing or empty one, and a clash between factors,
        are diagnosed at ``where``."""
        if not isinstance(factors, list) or not factors:
            self.diag(where, "E210", "no group declared")
            return None
        out = []
        for i, fvalue in enumerate(factors):
            path = where + ("factors", i)
            fobj = self.as_object(fvalue, path, "factor")
            if fobj is None:
                return None
            kind = self.get_string(fobj, "kind", path)
            if kind is None:
                return None
            names = fobj.get("names")
            if not isinstance(names, list):
                self.diag(path, "E200", "factor needs 'kind' and 'names'")
                return None
            names = self.array(names, path + ("names",), str,
                               "generator names must be an array",
                               "generator names must be strings")
            if names is None:
                return None
            try:
                if kind == "free":
                    out.append(FactorSpec.free(*names))
                elif kind == "abelian":
                    free_rank = self.get_int(fobj, "free_rank", path, default=0)
                    torsion = self.int_list(fobj.get("torsion", []), path + ("torsion",),
                                            "torsion")
                    if torsion is None:
                        return None
                    out.append(FactorSpec.abelian(names, free_rank=free_rank, torsion=torsion))
                else:
                    self.diag(path + ("kind",), "E200", f"unknown factor kind {kind!r}")
                    return None
            except ValueError as err:
                self.diag(path, "E200", str(err))
                return None
        try:
            return GroupSpec(tuple(out))
        except ValueError as err:
            self.diag(where, "E200", str(err))
            return None

    def build_elements(self, value, path: tuple, scenario: Scenario) -> None:
        for ename, word in (self.as_object(value, path, "elements") or {}).items():
            element = self.read_word(scenario.spec, word, path + (ename,),
                                     f"element {ename!r}")
            if element is not None:
                scenario.elements[ename] = element

    def build_modules(self, value, path: tuple, scenario: Scenario) -> None:
        too_big = [(("group", "factors", fi, "torsion", i), order)
                   for fi, factor in enumerate(scenario.spec.factors) if factor.kind == "abelian"
                   for i, order in enumerate(factor.torsion) if order > MAX_TORSION_ORDER]
        refused = False
        for mname, mpath, mobj in self.entries(value, path, "modules", "module"):
            rank = self.get_int(mobj, "rank", mpath, low=0, high=MAX_MODULE_RANK)
            if rank is None:
                continue
            relations = []
            if "relations" in mobj:
                relations = self.int_matrix(mobj["relations"], mpath + ("relations",),
                                            "relations")
                if relations is None:
                    continue
            action = self.named(mobj.get("action"), mpath + ("action",), "action",
                                "action of", self.int_matrix)
            if action is None:
                continue
            elements = self.named(mobj.get("elements"), mpath + ("elements",),
                                  "module elements", "element", self.int_list)
            if elements is None:
                continue
            if too_big:
                refused = True
                continue
            try:
                module = GModule(scenario.spec, QuotientPresentation(rank, relations),
                                 action=action, elements=elements, name=mname)
            except (ValueError, DimensionError) as err:
                self.diag(mpath, "E240", f"module {mname!r}: {err}")
                continue
            scenario.modules[mname] = module
        for where, order in too_big if refused else ():
            self.diag(where, "E200", f"torsion order {order} exceeds the limit "
                                     f"{MAX_TORSION_ORDER} of a group with modules")

    def build_maps(self, value, path: tuple, scenario: Scenario) -> None:
        for name, mpath, mobj in self.entries(value, path, "maps", "map"):
            source = self.lookup(scenario.modules, mobj, "source", mpath, "module")
            target = self.lookup(scenario.modules, mobj, "target", mpath, "module")
            if "source" not in mobj or "target" not in mobj:
                self.diag(mpath, "E200", f"map {name!r} needs 'source' and 'target'")
            if "matrix" not in mobj:
                self.diag(mpath, "E200", f"map {name!r} needs a 'matrix'")
            if source is None or target is None or "matrix" not in mobj:
                continue
            matrix = self.int_matrix(mobj["matrix"], mpath + ("matrix",), "matrix")
            if matrix is None:
                continue
            equivariant = self.get_int(mobj, "equivariant", mpath, default=0, low=0, high=1)
            if equivariant is None:
                continue
            try:
                scenario.maps[name] = ModuleMap(source, target, matrix,
                                                equivariant=bool(equivariant), name=name)
            except (ValueError, DimensionError, ContextError) as err:
                self.diag(mpath, "E241", f"map {name!r}: {err}")

    def build_quotients(self, value, path: tuple, scenario: Scenario) -> None:
        for name, qpath, qobj in self.entries(value, path, "quotients", "quotient"):
            if "factors" not in qobj:
                self.diag(qpath, "E200", f"quotient {name!r} needs 'factors'")
                continue
            target = self.build_group(qobj["factors"], qpath)
            if target is None:
                continue
            if "images" not in qobj:
                self.diag(qpath, "E200", f"quotient {name!r} needs 'images'")
                continue
            images = self.named(qobj["images"], qpath + ("images",), "images", "image of",
                                partial(self.read_word, target))
            if images is None:
                continue
            try:
                scenario.quotients[name] = FiniteQuotient(scenario.spec, target, images)
            except ValueError as err:
                self.diag(qpath, "E242", f"quotient {name!r}: {err}")

    def build_cocycles(self, value, path: tuple, scenario: Scenario) -> None:
        for name, cpath, cobj in self.entries(value, path, "cocycles", "cocycle"):
            quotient = self.lookup(scenario.quotients, cobj, "quotient", cpath, "quotient")
            module = self.lookup(scenario.modules, cobj, "module", cpath, "module")
            if quotient is None or module is None:
                if "quotient" not in cobj or "module" not in cobj:
                    self.diag(cpath, "E200", f"cocycle {name!r} needs 'quotient' and 'module'")
                continue
            values = self.cocycle_table(cobj.get("entries"), cpath + ("entries",),
                                        quotient, module.rank)
            if values is None:
                continue
            q_action = None
            if "q_action" in cobj:
                q_action = self.named(cobj["q_action"], cpath + ("q_action",), "q_action",
                                      "q_action of", self.int_matrix)
                if q_action is None:
                    continue
            try:
                cocycle = Cocycle(quotient, module, values, q_action=q_action, name=name)
            except (RejectedError, DimensionError, ContextError) as err:
                self.diag(cpath, "E243", f"cocycle {name!r}: {err}")
                continue
            violated = verify_cocycle(cocycle)
            if violated is not None:
                quad = ", ".join(str(x) for x in violated)
                self.diag(cpath, "E243",
                          f"cocycle {name!r}: identity violated at ({quad})")
                continue
            scenario.cocycles[name] = cocycle

    def cocycle_table(self, value, path: tuple, quotient: FiniteQuotient,
                      rank: int) -> tuple | None:
        """The ``Cocycle.values`` of a cocycle's ``entries`` array, each
        value unreduced at its arguments' quotient indices; a second
        entry for one slot is E201.

        Each distinct argument string is parsed and indexed once per
        cocycle; only successful parses are kept, so a bad word is still
        diagnosed at its own value."""
        if value is not None and not isinstance(value, list):
            self.diag(path, "E200", "entries must be an array")
            return None
        n = quotient.order
        slots = [None] * n ** 3
        words: dict[str, int] = {}
        for i, entry in enumerate(value or ()):
            epath = path + (i,)
            eobj = self.as_object(entry, epath, "cocycle entry")
            if eobj is None:
                return None
            if "args" not in eobj or "value" not in eobj:
                self.diag(epath, "E200", "entry needs 'args' and 'value'")
                return None
            arg_words = eobj["args"]
            if not isinstance(arg_words, list) or len(arg_words) != 3:
                self.diag(epath + ("args",), "E200", "args must be three quotient words")
                return None
            slot = 0
            for j, word in enumerate(arg_words):
                w = words.get(word) if isinstance(word, str) else None
                if w is None:
                    g = self.read_word(quotient.target, word, epath + ("args", j),
                                       "cocycle argument")
                    if g is None:
                        return None
                    w = words[word] = quotient.target_index(g)
                slot = slot * n + w
            vec = self.int_list(eobj["value"], epath + ("value",), "entry value")
            if vec is None:
                return None
            if slots[slot] is not None:
                self.diag(epath, "E201", "duplicate cocycle entry")
                return None
            slots[slot] = tuple(vec)
        zero = (0,) * rank
        return tuple(zero if v is None else v for v in slots)

    def build_matrices(self, value, path: tuple, scenario: Scenario) -> None:
        for name, mpath, mobj in self.entries(value, path, "matrices", "matrix"):
            size = self.get_int(mobj, "size", mpath, low=0, high=MAX_MATRIX_SIZE)
            gens_text = self.get_string(mobj, "generators", mpath)
            if size is None or gens_text is None:
                continue
            try:
                gens = parse_generator_sequence(scenario.spec, size, gens_text)
                scenario.matrices[name] = build_invertible(scenario.spec, size, gens)
            except WordError as err:
                self.diag(mpath + ("generators",), "E230", f"matrix {name!r}: {err.message}")
            except RejectedError as err:
                self.diag(mpath + ("generators",), "E245", f"matrix {name!r}: {err}")
            except (DimensionError, ContextError) as err:
                self.diag(mpath, "E245", f"matrix {name!r}: {err}")

    def build_lenses(self, value, path: tuple, scenario: Scenario) -> None:
        for name, lpath, lobj in self.entries(value, path, "lenses", "lens"):
            module = self.lookup(scenario.modules, lobj, "module", lpath, "module")
            if module is None:
                if "module" not in lobj:
                    self.diag(lpath, "E200", f"lens {name!r} needs 'module'")
                continue
            alpha_name = self.get_string(lobj, "alpha", lpath)
            sigma_name = self.get_string(lobj, "sigma", lpath)
            if alpha_name is None or sigma_name is None:
                continue
            alpha = module.elements.get(alpha_name)
            if alpha is None:
                self.diag(lpath + ("alpha",), "E220",
                          f"unresolved module element {alpha_name!r}")
                continue
            sigma = self.lookup(scenario.elements, lobj, "sigma", lpath, "element")
            if sigma is None:
                continue
            k = self.get_int(lobj, "k", lpath, default=1)
            n = self.get_int(lobj, "n", lpath, default=3)
            framing = WhElement.zero(scenario.framing)
            if "framing" in lobj:
                text = lobj["framing"]
                if not isinstance(text, str):
                    self.diag(lpath + ("framing",), "E200", "framing must be a Wh string")
                    continue
                try:
                    framing = parse_wh(scenario.framing, text)
                except WordError as err:
                    self.diag(lpath + ("framing",), "E230", f"framing: {err.message}")
                    continue
            try:
                scenario.lenses[name] = make_lens(module, alpha, sigma, framing, k=k, n=n)
            except (RejectedError, ContextError) as err:
                self.diag(lpath, "E244", f"lens {name!r}: {err}")

    def build_assertions(self, value, path: tuple, scenario: Scenario) -> None:
        items = self.array(value, path, str, "assertions must be an array of strings",
                           "assertions must be strings")
        if items is not None:
            scenario.assertions = tuple(items)

    def build_paper(self, value, path: tuple, scenario: Scenario) -> None:
        pobj = self.as_object(value, path, "paper")
        if pobj is None:
            return
        lens = self.get_string(pobj, "lens", path)
        retraction = self.get_string(pobj, "retraction", path)
        if (lens is None or retraction is None
                or self.lookup(scenario.lenses, pobj, "lens", path, "lens") is None
                or self.lookup(scenario.maps, pobj, "retraction", path, "map") is None):
            return
        cocycle = None
        if "cocycle" in pobj:
            cocycle = self.get_string(pobj, "cocycle", path)
            if (cocycle is None
                    or self.lookup(scenario.cocycles, pobj, "cocycle", path, "cocycle") is None):
                return
        matrices = None
        if "matrices" in pobj:
            names = pobj["matrices"]
            if not isinstance(names, list) or len(names) != 3:
                self.diag(path + ("matrices",), "E200", "paper matrices must name three matrices")
                return
            for i, item in enumerate(names):
                if not isinstance(item, str) or item not in scenario.matrices:
                    self.diag(path + ("matrices", i), "E220", "unresolved matrix name")
                    return
            matrices = tuple(names)
        powers = self.get_int(pobj, "powers", path, default=64, low=1)
        if powers is None:
            return
        scenario.paper = PaperConfig(lens=lens, retraction=retraction, cocycle=cocycle,
                                     matrices=matrices, powers=powers)


def parse_scenario(text: str) -> Scenario:
    """Resolve scenario text into live objects, or raise ScenarioError."""
    return _Resolver(text).resolve()


def load_scenario(path) -> Scenario:
    """Read, decode and resolve a scenario file.

    Bytes that are not UTF-8 raise ScenarioError (E100) at the bad byte:
    its line is one more than the newlines before it, its column one more
    than its offset in that line.  Line ends are translated to ``\\n`` as
    a text-mode read would.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        col = err.start - (data.rfind(b"\n", 0, err.start) + 1) + 1
        raise ScenarioError([Diagnostic(line, col, "E100",
                                        f"invalid UTF-8 byte 0x{data[err.start]:02x}")]) from None
    return parse_scenario(text.replace("\r\n", "\n").replace("\r", "\n"))
