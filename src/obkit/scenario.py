"""Scenario files: the declarative input format of the toolkit.

A scenario is a restricted-JSON document declaring the working group,
coefficient modules, maps, named elements, finite quotients, cocycle
tables, certified matrices, lens constructors and free-form assertions.
Resolution either returns a fully validated Scenario or raises with a
list of positioned diagnostics; there is no partial acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .chi import Cocycle, FiniteQuotient, verify_cocycle
from .errors import ContextError, DimensionError, ObkitError, RejectedError
from .gmodules import GModule, ModuleMap
from .groupring import InvertiblePair, build_invertible
from .groups import FactorSpec, GroupElement, GroupSpec
from .intlinalg import QuotientPresentation
from .obstruction import LensClass, make_lens
from .restricted_json import JsonError, Node, parse_json
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
    built by column operations and inverse by construction; the matrix
    and its inverse each hold at most ``groupring.MAX_MATRIX_TERMS``
    terms (a sequence past it is diagnosed E245 at ``generators``).
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


class _Resolver:
    def __init__(self, text: str):
        self.text = text
        self.diags: list[Diagnostic] = []

    def diag(self, node, code: str, message: str) -> None:
        if isinstance(node, Node):
            line, col = node.line, node.col
        else:
            line, col = node
        self.diags.append(Diagnostic(line, col, code, message))

    def bail(self):
        raise ScenarioError(self.diags)

    # -- readers, one per shape of input -----------------------------------
    #
    # Each diagnoses the first malformed part it meets and returns None;
    # get_int returns its default for a missing or non-integer field.

    def as_object(self, node: Node, what: str) -> dict[str, Node] | None:
        if node.kind != "object":
            self.diag(node, "E200", f"{what} must be an object")
            return None
        out: dict[str, Node] = {}
        for key, kline, kcol, value in node.value:
            if key in out:
                self.diag((kline, kcol), "E201", f"duplicate key {key!r}")
                continue
            out[key] = value
        return out

    def entries(self, node: Node, what: str, label: str):
        """(name, node, object) for each entry of the section ``node`` whose
        value is an object, diagnosing the section and each entry in turn."""
        for name, enode in (self.as_object(node, what) or {}).items():
            eobj = self.as_object(enode, f"{label} {name!r}")
            if eobj is not None:
                yield name, enode, eobj

    def named(self, node: Node | None, what: str, label: str, read) -> dict | None:
        """{name: read(value, "<label> 'name'")} for the object ``node``;
        {} when it is absent, None at the first value ``read`` refuses."""
        out = {}
        if node is None:
            return out
        obj = self.as_object(node, what)
        if obj is None:
            return None
        for name, value in obj.items():
            out[name] = read(value, f"{label} {name!r}")
            if out[name] is None:
                return None
        return out

    def get_string(self, obj: dict[str, Node], key: str, where: Node) -> Node | None:
        node = obj.get(key)
        if node is None:
            self.diag(where, "E200", f"missing required field {key!r}")
            return None
        if node.kind != "string":
            self.diag(node, "E200", f"field {key!r} must be a string")
            return None
        return node

    def get_int(self, obj: dict[str, Node], key: str, where: Node, default=None,
                low=None, high=None):
        """obj[key] as an int: ``default`` when absent or not an integer, a
        required field when there is no default, and None outside
        [low, high]."""
        node = obj.get(key)
        if node is None:
            if default is None:
                self.diag(where, "E200", f"missing required field {key!r}")
            return default
        if node.kind != "int":
            self.diag(node, "E200", f"field {key!r} must be an integer")
            return default
        if (low is not None and node.value < low) or (high is not None and node.value > high):
            bound = f"at least {low}" if high is None else f"between {low} and {high}"
            self.diag(node, "E200", f"field {key!r} must be {bound}")
            return None
        return node.value

    def array(self, node: Node, kind: str, message: str, item_message: str) -> list | None:
        """The values of an array of ``kind`` scalars."""
        if node.kind != "array":
            self.diag(node, "E200", message)
            return None
        for item in node.value:
            if item.kind != kind:
                self.diag(item, "E200", item_message)
                return None
        return [item.value for item in node.value]

    def int_list(self, node: Node, what: str) -> list[int] | None:
        return self.array(node, "int", f"{what} must be an array of integers",
                          f"{what} entries must be integers")

    def int_matrix(self, node: Node, what: str) -> list[list[int]] | None:
        if node.kind != "array":
            self.diag(node, "E200", f"{what} must be an array of rows")
            return None
        rows = []
        for row in node.value:
            r = self.int_list(row, f"{what} row")
            if r is None:
                return None
            rows.append(r)
        return rows

    def parse_word_node(self, spec: GroupSpec, node: Node, what: str) -> GroupElement | None:
        if node.kind != "string":
            self.diag(node, "E200", f"{what} must be a word string")
            return None
        try:
            return parse_word(spec, node.value)
        except WordError as err:
            self.diag(node, "E230", f"{what}: {err.message}")
            return None

    def lookup(self, table: dict, node: Node | None, what: str):
        """The entry of ``table`` named by a string node; None, silently,
        when the node is absent."""
        if node is None:
            return None
        if node.kind != "string":
            self.diag(node, "E200", f"{what} reference must be a string")
            return None
        if node.value not in table:
            self.diag(node, "E220", f"unresolved {what} name {node.value!r}")
            return None
        return table[node.value]

    # -- sections --------------------------------------------------------

    def resolve(self) -> Scenario:
        if not self.text.strip():
            self.diag((1, 1), "E210", "no group declared")
            self.bail()
        try:
            root = parse_json(self.text)
        except JsonError as err:
            self.diag((err.line, err.col), "E100", err.message)
            self.bail()
        top = self.as_object(root, "scenario")
        if top is None:
            self.bail()
        for key, kline, kcol, _ in root.value:
            if key not in KNOWN_SECTIONS:
                self.diag((kline, kcol), "E200", f"unknown section {key!r}")
        name = "scenario"
        if "name" in top:
            node = self.get_string(top, "name", root)
            if node is not None:
                name = node.value
        if "group" not in top:
            self.diag(root, "E210", "no group declared")
            self.bail()
        gobj = self.as_object(top["group"], "group")
        spec = None if gobj is None else self.build_group(gobj.get("factors"), top["group"])
        if spec is None or self.diags:
            self.bail()
        scenario = Scenario(name=name, spec=spec)
        for key in KNOWN_SECTIONS[2:]:
            if key in top:
                getattr(self, f"build_{key}")(top[key], scenario)
        if self.diags:
            self.bail()
        return scenario

    def build_group(self, factors_node: Node | None, where: Node) -> GroupSpec | None:
        """The free product of a ``factors`` array; a missing or empty one,
        and a clash between factors, are diagnosed at ``where``."""
        if factors_node is None or factors_node.kind != "array" or not factors_node.value:
            self.diag(where, "E210", "no group declared")
            return None
        factors = []
        for fnode in factors_node.value:
            fobj = self.as_object(fnode, "factor")
            if fobj is None:
                return None
            kind = self.get_string(fobj, "kind", fnode)
            names = fobj.get("names")
            if kind is None or names is None or names.kind != "array":
                self.diag(fnode, "E200", "factor needs 'kind' and 'names'")
                return None
            names = self.array(names, "string", "generator names must be an array",
                               "generator names must be strings")
            if names is None:
                return None
            try:
                if kind.value == "free":
                    factors.append(FactorSpec.free(*names))
                elif kind.value == "abelian":
                    free_rank = self.get_int(fobj, "free_rank", fnode, default=0)
                    torsion = []
                    if "torsion" in fobj:
                        torsion = self.int_list(fobj["torsion"], "torsion") or []
                    factors.append(FactorSpec.abelian(names, free_rank=free_rank, torsion=torsion))
                else:
                    self.diag(kind, "E200", f"unknown factor kind {kind.value!r}")
                    return None
            except ValueError as err:
                self.diag(fnode, "E200", str(err))
                return None
        try:
            return GroupSpec(tuple(factors))
        except ValueError as err:
            self.diag(where, "E200", str(err))
            return None

    def build_elements(self, node: Node, scenario: Scenario) -> None:
        for ename, enode in (self.as_object(node, "elements") or {}).items():
            word = self.parse_word_node(scenario.spec, enode, f"element {ename!r}")
            if word is not None:
                scenario.elements[ename] = word

    def build_modules(self, node: Node, scenario: Scenario) -> None:
        for mname, mnode, mobj in self.entries(node, "modules", "module"):
            rank = self.get_int(mobj, "rank", mnode, low=0, high=MAX_MODULE_RANK)
            if rank is None:
                continue
            relations = []
            if "relations" in mobj:
                relations = self.int_matrix(mobj["relations"], "relations") or []
            action = self.named(mobj.get("action"), "action", "action of", self.int_matrix)
            if action is None:
                continue
            elements = self.named(mobj.get("elements"), "module elements", "element",
                                  self.int_list)
            if elements is None:
                continue
            try:
                module = GModule(scenario.spec, QuotientPresentation(rank, relations),
                                 action=action, elements=elements, name=mname)
            except (ValueError, DimensionError) as err:
                self.diag(mnode, "E240", f"module {mname!r}: {err}")
                continue
            scenario.modules[mname] = module

    def build_maps(self, node: Node, scenario: Scenario) -> None:
        for name, mnode, mobj in self.entries(node, "maps", "map"):
            source = self.lookup(scenario.modules, mobj.get("source"), "module")
            target = self.lookup(scenario.modules, mobj.get("target"), "module")
            if "source" not in mobj or "target" not in mobj:
                self.diag(mnode, "E200", f"map {name!r} needs 'source' and 'target'")
            if "matrix" not in mobj:
                self.diag(mnode, "E200", f"map {name!r} needs a 'matrix'")
            if source is None or target is None or "matrix" not in mobj:
                continue
            matrix = self.int_matrix(mobj["matrix"], "matrix")
            if matrix is None:
                continue
            equivariant = self.get_int(mobj, "equivariant", mnode, default=0, low=0, high=1)
            if equivariant is None:
                continue
            try:
                scenario.maps[name] = ModuleMap(source, target, matrix,
                                                equivariant=bool(equivariant), name=name)
            except (ValueError, DimensionError, ContextError) as err:
                self.diag(mnode, "E241", f"map {name!r}: {err}")

    def build_quotients(self, node: Node, scenario: Scenario) -> None:
        for name, qnode, qobj in self.entries(node, "quotients", "quotient"):
            if "factors" not in qobj:
                self.diag(qnode, "E200", f"quotient {name!r} needs 'factors'")
                continue
            target = self.build_group(qobj["factors"], qnode)
            if target is None:
                continue
            images_node = qobj.get("images")
            images = self.named(images_node, "images", "image of",
                                lambda wnode, what: self.parse_word_node(target, wnode, what))
            if images_node is None or images_node.kind != "object":
                self.diag(qnode, "E200", f"quotient {name!r} needs 'images'")
                continue
            if images is None:
                continue
            try:
                scenario.quotients[name] = FiniteQuotient(scenario.spec, target, images)
            except ValueError as err:
                self.diag(qnode, "E242", f"quotient {name!r}: {err}")

    def build_cocycles(self, node: Node, scenario: Scenario) -> None:
        for name, cnode, cobj in self.entries(node, "cocycles", "cocycle"):
            quotient = self.lookup(scenario.quotients, cobj.get("quotient"), "quotient")
            module = self.lookup(scenario.modules, cobj.get("module"), "module")
            if quotient is None or module is None:
                if "quotient" not in cobj or "module" not in cobj:
                    self.diag(cnode, "E200", f"cocycle {name!r} needs 'quotient' and 'module'")
                continue
            table = self.cocycle_table(cobj.get("entries"), quotient.target)
            if table is None:
                continue
            q_action = None
            if "q_action" in cobj:
                q_action = self.named(cobj["q_action"], "q_action", "q_action of",
                                      self.int_matrix)
                if q_action is None:
                    continue
            try:
                cocycle = Cocycle(quotient, module, table, q_action=q_action, name=name)
            except (RejectedError, DimensionError, ContextError) as err:
                self.diag(cnode, "E243", f"cocycle {name!r}: {err}")
                continue
            violated = verify_cocycle(cocycle)
            if violated is not None:
                quad = ", ".join(str(x) for x in violated)
                self.diag(cnode, "E243",
                          f"cocycle {name!r}: identity violated at ({quad})")
                continue
            scenario.cocycles[name] = cocycle

    def cocycle_table(self, node: Node | None, target: GroupSpec) -> dict | None:
        """The table of a cocycle's ``entries`` array.

        Each distinct argument string is parsed once per cocycle; only
        successful parses are kept, so a bad word is still diagnosed at
        its own node."""
        table = {}
        if node is None:
            return table
        if node.kind != "array":
            self.diag(node, "E200", "entries must be an array")
            return None
        words: dict[str, GroupElement] = {}
        for entry in node.value:
            eobj = self.as_object(entry, "cocycle entry")
            if eobj is None or "args" not in eobj or "value" not in eobj:
                self.diag(entry, "E200", "entry needs 'args' and 'value'")
                return None
            args_node = eobj["args"]
            if args_node.kind != "array" or len(args_node.value) != 3:
                self.diag(args_node, "E200", "args must be three quotient words")
                return None
            args = []
            for wnode in args_node.value:
                w = words.get(wnode.value) if wnode.kind == "string" else None
                if w is None:
                    w = self.parse_word_node(target, wnode, "cocycle argument")
                    if w is None:
                        return None
                    words[wnode.value] = w
                args.append(w)
            value = self.int_list(eobj["value"], "entry value")
            if value is None:
                return None
            key = tuple(args)
            if key in table:
                self.diag(entry, "E201", "duplicate cocycle entry")
                return None
            table[key] = value
        return table

    def build_matrices(self, node: Node, scenario: Scenario) -> None:
        for name, mnode, mobj in self.entries(node, "matrices", "matrix"):
            size = self.get_int(mobj, "size", mnode, low=0, high=MAX_MATRIX_SIZE)
            gens_node = self.get_string(mobj, "generators", mnode)
            if size is None or gens_node is None:
                continue
            try:
                gens = parse_generator_sequence(scenario.spec, size, gens_node.value)
                scenario.matrices[name] = build_invertible(scenario.spec, size, gens)
            except WordError as err:
                self.diag(gens_node, "E230", f"matrix {name!r}: {err.message}")
            except RejectedError as err:
                self.diag(gens_node, "E245", f"matrix {name!r}: {err}")
            except (DimensionError, ContextError) as err:
                self.diag(mnode, "E245", f"matrix {name!r}: {err}")

    def build_lenses(self, node: Node, scenario: Scenario) -> None:
        for name, lnode, lobj in self.entries(node, "lenses", "lens"):
            module = self.lookup(scenario.modules, lobj.get("module"), "module")
            if module is None:
                if "module" not in lobj:
                    self.diag(lnode, "E200", f"lens {name!r} needs 'module'")
                continue
            alpha_node = self.get_string(lobj, "alpha", lnode)
            sigma_node = self.get_string(lobj, "sigma", lnode)
            if alpha_node is None or sigma_node is None:
                continue
            alpha = module.elements.get(alpha_node.value)
            if alpha is None:
                self.diag(alpha_node, "E220",
                          f"unresolved module element {alpha_node.value!r}")
                continue
            sigma = self.lookup(scenario.elements, sigma_node, "element")
            if sigma is None:
                continue
            k = self.get_int(lobj, "k", lnode, default=1)
            n = self.get_int(lobj, "n", lnode, default=3)
            framing = WhElement.zero(scenario.framing)
            if "framing" in lobj:
                fnode = lobj["framing"]
                if fnode.kind != "string":
                    self.diag(fnode, "E200", "framing must be a Wh string")
                    continue
                try:
                    framing = parse_wh(scenario.framing, fnode.value)
                except WordError as err:
                    self.diag(fnode, "E230", f"framing: {err.message}")
                    continue
            try:
                scenario.lenses[name] = make_lens(alpha, sigma, framing, k=k, n=n,
                                                  note=name)
            except (RejectedError, ContextError) as err:
                self.diag(lnode, "E244", f"lens {name!r}: {err}")

    def build_assertions(self, node: Node, scenario: Scenario) -> None:
        items = self.array(node, "string", "assertions must be an array of strings",
                           "assertions must be strings")
        if items is not None:
            scenario.assertions = tuple(items)

    def build_paper(self, node: Node, scenario: Scenario) -> None:
        pobj = self.as_object(node, "paper")
        if pobj is None:
            return
        lens = self.get_string(pobj, "lens", node)
        retraction = self.get_string(pobj, "retraction", node)
        if (lens is None or retraction is None
                or self.lookup(scenario.lenses, lens, "lens") is None
                or self.lookup(scenario.maps, retraction, "map") is None):
            return
        cocycle = None
        if "cocycle" in pobj:
            cocycle = self.get_string(pobj, "cocycle", node)
            if cocycle is None or self.lookup(scenario.cocycles, cocycle, "cocycle") is None:
                return
        matrices = None
        if "matrices" in pobj:
            mats_node = pobj["matrices"]
            if mats_node.kind != "array" or len(mats_node.value) != 3:
                self.diag(mats_node, "E200", "paper matrices must name three matrices")
                return
            for item in mats_node.value:
                if item.kind != "string" or item.value not in scenario.matrices:
                    self.diag(item, "E220", "unresolved matrix name")
                    return
            matrices = tuple(item.value for item in mats_node.value)
        powers = self.get_int(pobj, "powers", node, default=64, low=1)
        if powers is None:
            return
        scenario.paper = PaperConfig(lens=lens.value, retraction=retraction.value,
                                     cocycle=cocycle.value if cocycle else None,
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
