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

KNOWN_SECTIONS = (
    "name", "group", "elements", "modules", "maps", "quotients",
    "cocycles", "matrices", "lenses", "paper", "assertions",
)

ASSERT_KERNEL = "kernel-of-first-invariant"


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
    was loaded (a violated table is diagnosed E243 and nothing loads), so
    commands report such a cocycle as verified without checking it again.
    Every entry of ``matrices`` is an ``InvertiblePair`` whose inverse was
    verified on construction.
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

    # -- typed accessors -------------------------------------------------

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

    def get_string(self, obj: dict[str, Node], key: str, where: Node, required=True) -> Node | None:
        node = obj.get(key)
        if node is None:
            if required:
                self.diag(where, "E200", f"missing required field {key!r}")
            return None
        if node.kind != "string":
            self.diag(node, "E200", f"field {key!r} must be a string")
            return None
        return node

    def get_int(self, obj: dict[str, Node], key: str, where: Node, required=True, default=None):
        node = obj.get(key)
        if node is None:
            if required:
                self.diag(where, "E200", f"missing required field {key!r}")
            return default
        if node.kind != "int":
            self.diag(node, "E200", f"field {key!r} must be an integer")
            return default
        return node.value

    def int_list(self, node: Node, what: str) -> list[int] | None:
        if node.kind != "array":
            self.diag(node, "E200", f"{what} must be an array of integers")
            return None
        out = []
        for item in node.value:
            if item.kind != "int":
                self.diag(item, "E200", f"{what} entries must be integers")
                return None
            out.append(item.value)
        return out

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
        spec = self.build_group(top["group"])
        if spec is None or self.diags:
            self.bail()
        scenario = Scenario(name=name, spec=spec)
        self.build_elements(top.get("elements"), scenario)
        self.build_modules(top.get("modules"), scenario)
        self.build_maps(top.get("maps"), scenario)
        self.build_quotients(top.get("quotients"), scenario)
        self.build_cocycles(top.get("cocycles"), scenario)
        self.build_matrices(top.get("matrices"), scenario)
        self.build_lenses(top.get("lenses"), scenario)
        self.build_assertions(top.get("assertions"), scenario)
        self.build_paper(top.get("paper"), scenario)
        if self.diags:
            self.bail()
        return scenario

    def build_group(self, node: Node) -> GroupSpec | None:
        obj = self.as_object(node, "group")
        if obj is None:
            return None
        factors_node = obj.get("factors")
        if factors_node is None or factors_node.kind != "array" or not factors_node.value:
            self.diag(node, "E210", "no group declared")
            return None
        factors = []
        for fnode in factors_node.value:
            fobj = self.as_object(fnode, "factor")
            if fobj is None:
                return None
            kind_node = self.get_string(fobj, "kind", fnode)
            names_node = fobj.get("names")
            if kind_node is None or names_node is None or names_node.kind != "array":
                self.diag(fnode, "E200", "factor needs 'kind' and 'names'")
                return None
            names = []
            for item in names_node.value:
                if item.kind != "string":
                    self.diag(item, "E200", "generator names must be strings")
                    return None
                names.append(item.value)
            try:
                if kind_node.value == "free":
                    factors.append(FactorSpec.free(*names))
                elif kind_node.value == "abelian":
                    free_rank = self.get_int(fobj, "free_rank", fnode, required=False, default=0)
                    torsion = []
                    if "torsion" in fobj:
                        torsion = self.int_list(fobj["torsion"], "torsion") or []
                    factors.append(FactorSpec.abelian(names, free_rank=free_rank, torsion=torsion))
                else:
                    self.diag(kind_node, "E200", f"unknown factor kind {kind_node.value!r}")
                    return None
            except ValueError as err:
                self.diag(fnode, "E200", str(err))
                return None
        try:
            return GroupSpec(tuple(factors))
        except ValueError as err:
            self.diag(node, "E200", str(err))
            return None

    def parse_word_node(self, spec: GroupSpec, node: Node, what: str) -> GroupElement | None:
        if node.kind != "string":
            self.diag(node, "E200", f"{what} must be a word string")
            return None
        try:
            return parse_word(spec, node.value)
        except WordError as err:
            self.diag(node, "E230", f"{what}: {err.message}")
            return None

    def build_elements(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        obj = self.as_object(node, "elements")
        if obj is None:
            return
        for ename, enode in obj.items():
            word = self.parse_word_node(scenario.spec, enode, f"element {ename!r}")
            if word is not None:
                scenario.elements[ename] = word

    def build_modules(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        obj = self.as_object(node, "modules")
        if obj is None:
            return
        for mname, mnode in obj.items():
            mobj = self.as_object(mnode, f"module {mname!r}")
            if mobj is None:
                continue
            rank = self.get_int(mobj, "rank", mnode)
            if rank is None:
                continue
            relations = []
            if "relations" in mobj:
                relations = self.int_matrix(mobj["relations"], "relations") or []
            action = {}
            if "action" in mobj:
                aobj = self.as_object(mobj["action"], "action")
                if aobj is None:
                    continue
                bad = False
                for gen, matnode in aobj.items():
                    mat = self.int_matrix(matnode, f"action of {gen!r}")
                    if mat is None:
                        bad = True
                        break
                    action[gen] = mat
                if bad:
                    continue
            elements = {}
            if "elements" in mobj:
                eobj = self.as_object(mobj["elements"], "module elements")
                if eobj is None:
                    continue
                bad = False
                for ename, vecnode in eobj.items():
                    vec = self.int_list(vecnode, f"element {ename!r}")
                    if vec is None:
                        bad = True
                        break
                    elements[ename] = vec
                if bad:
                    continue
            try:
                module = GModule(scenario.spec, QuotientPresentation(rank, relations),
                                 action=action, elements=elements, name=mname)
            except (ValueError, DimensionError) as err:
                self.diag(mnode, "E240", f"module {mname!r}: {err}")
                continue
            report = module.validate()
            if report is not None:
                self.diag(mnode, "E240", f"module {mname!r}: {report}")
                continue
            scenario.modules[mname] = module

    def lookup(self, table: dict, node: Node | None, what: str):
        if node is None:
            return None
        if node.kind != "string":
            self.diag(node, "E200", f"{what} reference must be a string")
            return None
        if node.value not in table:
            self.diag(node, "E220", f"unresolved {what} name {node.value!r}")
            return None
        return table[node.value]

    def build_maps(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        obj = self.as_object(node, "maps")
        if obj is None:
            return
        for name, mnode in obj.items():
            mobj = self.as_object(mnode, f"map {name!r}")
            if mobj is None:
                continue
            source = self.lookup(scenario.modules, mobj.get("source"), "module")
            target = self.lookup(scenario.modules, mobj.get("target"), "module")
            matrix_node = mobj.get("matrix")
            if source is None or target is None or matrix_node is None:
                if matrix_node is None:
                    self.diag(mnode, "E200", f"map {name!r} needs a 'matrix'")
                continue
            matrix = self.int_matrix(matrix_node, "matrix")
            if matrix is None:
                continue
            equivariant = False
            if "equivariant" in mobj:
                eq = self.get_int(mobj, "equivariant", mnode, required=False, default=0)
                equivariant = bool(eq)
            try:
                phi = ModuleMap(source, target, matrix, equivariant=equivariant, name=name)
            except (DimensionError, ContextError) as err:
                self.diag(mnode, "E241", f"map {name!r}: {err}")
                continue
            report = phi.validate()
            if report is not None:
                self.diag(mnode, "E241", f"map {name!r}: {report}")
                continue
            scenario.maps[name] = phi

    def build_quotients(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        obj = self.as_object(node, "quotients")
        if obj is None:
            return
        for name, qnode in obj.items():
            qobj = self.as_object(qnode, f"quotient {name!r}")
            if qobj is None:
                continue
            if "factors" not in qobj:
                self.diag(qnode, "E200", f"quotient {name!r} needs 'factors'")
                continue
            target = self.build_group(Node("object", [("factors", qnode.line, qnode.col, qobj["factors"])],
                                           qnode.line, qnode.col))
            if target is None:
                continue
            images_node = qobj.get("images")
            iobj = self.as_object(images_node, "images") if images_node is not None else None
            if iobj is None:
                self.diag(qnode, "E200", f"quotient {name!r} needs 'images'")
                continue
            images = {}
            bad = False
            for gen, wnode in iobj.items():
                img = self.parse_word_node(target, wnode, f"image of {gen!r}")
                if img is None:
                    bad = True
                    break
                images[gen] = img
            if bad:
                continue
            try:
                scenario.quotients[name] = FiniteQuotient(scenario.spec, target, images)
            except ValueError as err:
                self.diag(qnode, "E242", f"quotient {name!r}: {err}")

    def build_cocycles(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        obj = self.as_object(node, "cocycles")
        if obj is None:
            return
        for name, cnode in obj.items():
            cobj = self.as_object(cnode, f"cocycle {name!r}")
            if cobj is None:
                continue
            quotient = self.lookup(scenario.quotients, cobj.get("quotient"), "quotient")
            module = self.lookup(scenario.modules, cobj.get("module"), "module")
            if quotient is None or module is None:
                if "quotient" not in cobj or "module" not in cobj:
                    self.diag(cnode, "E200", f"cocycle {name!r} needs 'quotient' and 'module'")
                continue
            table = {}
            # Each distinct argument string is parsed once per cocycle;
            # only successful parses are kept, so a bad word is still
            # diagnosed at its own node.
            words: dict[str, GroupElement] = {}
            bad = False
            entries_node = cobj.get("entries")
            if entries_node is not None:
                if entries_node.kind != "array":
                    self.diag(entries_node, "E200", "entries must be an array")
                    continue
                for entry in entries_node.value:
                    eobj = self.as_object(entry, "cocycle entry")
                    if eobj is None or "args" not in eobj or "value" not in eobj:
                        self.diag(entry, "E200", "entry needs 'args' and 'value'")
                        bad = True
                        break
                    args_node = eobj["args"]
                    if args_node.kind != "array" or len(args_node.value) != 3:
                        self.diag(args_node, "E200", "args must be three quotient words")
                        bad = True
                        break
                    args = []
                    for wnode in args_node.value:
                        w = words.get(wnode.value) if wnode.kind == "string" else None
                        if w is None:
                            w = self.parse_word_node(quotient.target, wnode, "cocycle argument")
                            if w is None:
                                bad = True
                                break
                            words[wnode.value] = w
                        args.append(w)
                    if bad:
                        break
                    value = self.int_list(eobj["value"], "entry value")
                    if value is None:
                        bad = True
                        break
                    key = tuple(args)
                    if key in table:
                        self.diag(entry, "E201", "duplicate cocycle entry")
                        bad = True
                        break
                    table[key] = value
            if bad:
                continue
            q_action = None
            if "q_action" in cobj:
                aobj = self.as_object(cobj["q_action"], "q_action")
                if aobj is None:
                    continue
                q_action = {}
                for gen, matnode in aobj.items():
                    mat = self.int_matrix(matnode, f"q_action of {gen!r}")
                    if mat is None:
                        bad = True
                        break
                    q_action[gen] = mat
            if bad:
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

    def build_matrices(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        obj = self.as_object(node, "matrices")
        if obj is None:
            return
        for name, mnode in obj.items():
            mobj = self.as_object(mnode, f"matrix {name!r}")
            if mobj is None:
                continue
            size = self.get_int(mobj, "size", mnode)
            gens_node = self.get_string(mobj, "generators", mnode)
            if size is None or gens_node is None:
                continue
            try:
                gens = parse_generator_sequence(scenario.spec, size, gens_node.value)
                scenario.matrices[name] = build_invertible(scenario.spec, size, gens)
            except WordError as err:
                self.diag(gens_node, "E230", f"matrix {name!r}: {err.message}")
            except (DimensionError, ContextError) as err:
                self.diag(mnode, "E245", f"matrix {name!r}: {err}")

    def build_lenses(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        obj = self.as_object(node, "lenses")
        if obj is None:
            return
        for name, lnode in obj.items():
            lobj = self.as_object(lnode, f"lens {name!r}")
            if lobj is None:
                continue
            module = self.lookup(scenario.modules, lobj.get("module"), "module")
            if module is None:
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
            sigma = scenario.elements.get(sigma_node.value)
            if sigma is None:
                self.diag(sigma_node, "E220",
                          f"unresolved element name {sigma_node.value!r}")
                continue
            k = self.get_int(lobj, "k", lnode, required=False, default=1)
            n = self.get_int(lobj, "n", lnode, required=False, default=3)
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

    def build_assertions(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        if node.kind != "array":
            self.diag(node, "E200", "assertions must be an array of strings")
            return
        out = []
        for item in node.value:
            if item.kind != "string":
                self.diag(item, "E200", "assertions must be strings")
                return
            out.append(item.value)
        scenario.assertions = tuple(out)

    def build_paper(self, node: Node | None, scenario: Scenario) -> None:
        if node is None:
            return
        pobj = self.as_object(node, "paper")
        if pobj is None:
            return
        lens_node = self.get_string(pobj, "lens", node)
        retr_node = self.get_string(pobj, "retraction", node)
        if lens_node is None or retr_node is None:
            return
        if lens_node.value not in scenario.lenses:
            self.diag(lens_node, "E220", f"unresolved lens name {lens_node.value!r}")
            return
        if retr_node.value not in scenario.maps:
            self.diag(retr_node, "E220", f"unresolved map name {retr_node.value!r}")
            return
        cocycle = None
        if "cocycle" in pobj:
            cnode = self.get_string(pobj, "cocycle", node)
            if cnode is None:
                return
            if cnode.value not in scenario.cocycles:
                self.diag(cnode, "E220", f"unresolved cocycle name {cnode.value!r}")
                return
            cocycle = cnode.value
        matrices = None
        if "matrices" in pobj:
            mats_node = pobj["matrices"]
            if mats_node.kind != "array" or len(mats_node.value) != 3:
                self.diag(mats_node, "E200", "paper matrices must name three matrices")
                return
            names = []
            for item in mats_node.value:
                if item.kind != "string" or item.value not in scenario.matrices:
                    self.diag(item, "E220", "unresolved matrix name")
                    return
                names.append(item.value)
            matrices = tuple(names)
        powers = self.get_int(pobj, "powers", node, required=False, default=64)
        if powers < 1:
            self.diag(pobj["powers"], "E200", "field 'powers' must be at least 1")
            return
        scenario.paper = PaperConfig(lens=lens_node.value, retraction=retr_node.value,
                                     cocycle=cocycle, matrices=matrices, powers=powers)


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
