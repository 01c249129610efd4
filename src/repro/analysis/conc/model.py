"""Whole-program model for the concurrency audit.

Parses every module under a source root (``src/repro`` by default) into
a light-weight semantic model the CONC rules query:

* **Locks** — every ``new_lock("name")`` / ``new_rlock("name")`` /
  ``threading.Lock()`` creation site, as a module global or a ``self``
  attribute.  Lock identity is the *name string* passed to the factory,
  matching the runtime sanitizer's vocabulary, so the static and
  observed lock-order graphs are directly comparable.
* **Classes** — attribute tables with base-class inheritance, attribute
  kinds (lock / thread-safe primitive / typed instance / plain) inferred
  from ``__init__`` / ``__post_init__`` assignments, parameter
  annotations and dataclass field declarations.
* **Functions** — for every function/method body: lock acquisitions
  (``with`` items that resolve to known locks), attribute and
  module-global accesses with the *guard set* (locks held at the access,
  inferred from enclosing ``with`` blocks), call sites with the held
  set, blocking calls, and cross-object private-lock touches.
* **Call resolution** — ``self.m()`` through the MRO, typed receivers
  (constructor calls, annotated parameters, module-global instances,
  factory-method return annotations), imported functions, and a
  *unique-name fallback*: a method call on an unknown receiver resolves
  only when exactly one class in the program defines that method name
  (anything more ambiguous is treated as unknown rather than guessed —
  wrong guesses fabricate lock-order cycles).
* **The static lock-order graph** — direct nested acquisitions plus
  edges through calls: holding ``A`` while calling a function whose
  transitive *lock closure* (fixpoint over the call graph) acquires
  ``B`` adds ``A -> B``.
* **Thread entries** — functions handed to ``threading.Thread``,
  executor ``submit`` or ``Timer``, and everything reachable from them
  (the *worker-reachable* set).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Access",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LockDecl",
    "ModuleInfo",
    "ProgramModel",
    "build_program",
]

#: ``with`` expressions resolving to these factory names create locks.
_LOCK_FACTORIES = {"new_lock": False, "new_rlock": True}
#: Constructors whose instances are intrinsically thread-safe (or are
#: synchronization primitives themselves) — exempt from guard rules.
_SAFE_CTORS = {
    "Event", "Condition", "Semaphore", "BoundedSemaphore", "Barrier",
    "ContextVar", "local", "count", "Queue", "SimpleQueue", "LifoQueue",
}
_MUTABLE_CTORS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
    "Counter",
}
#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popitem", "clear", "extend", "remove", "discard", "insert",
    "move_to_end",
}
#: Calls considered blocking for the held-a-lock-while-blocking rule.
_BLOCKING_ATTRS = {"sleep", "join", "wait", "read", "write", "recv",
                   "send", "get", "put"}
#: ...but only on receivers that look blocking (time.sleep, thread.join,
#: event.wait, queue.get/put, file read/write); plain dict ``.get`` must
#: not trip it, so attribute blocking calls require a receiver hint.
_BLOCKING_RECEIVER_HINTS = {
    "sleep": None,  # any receiver: time.sleep / clock.sleep
    "join": ("thread", "t", "worker", "proc", "process", "pool"),
    "wait": ("event", "ev", "stop", "_stop", "cond", "condition",
             "barrier", "future", "fut"),
    "read": ("fh", "f", "file", "fp", "sock", "socket", "conn"),
    "write": ("fh", "f", "file", "fp", "sock", "socket", "conn"),
    "recv": None,
    "send": ("sock", "socket", "conn"),
    "get": ("queue", "q", "jobs", "inbox"),
    "put": ("queue", "q", "jobs", "inbox"),
}
_BLOCKING_NAMES = {"open", "input"}
#: Attribute names that denote a private lock for the foreign-access rule.
_PRIVATE_LOCK_ATTRS = {"_lock", "_mu"}
#: Method names the unique-name fallback must never resolve: these are
#: overwhelmingly builtin-collection / file / string methods, and a lone
#: program class that happens to define one (PlanCache.clear, say) would
#: otherwise swallow every ``some_dict.clear()`` in the tree.
_FALLBACK_EXCLUDED = {
    "append", "add", "clear", "copy", "count", "discard", "extend",
    "format", "get", "index", "insert", "items", "join", "keys", "pop",
    "popitem", "put", "read", "remove", "setdefault", "sort", "split",
    "strip", "update", "values", "write", "close", "flush", "reverse",
}


@dataclass(frozen=True)
class LockDecl:
    """One lock creation site."""

    name: str           # runtime lock name (sanitizer vocabulary)
    reentrant: bool
    module: str
    cls: str | None     # owning class qualname, None for module locks
    attr: str           # attribute or global variable name
    line: int
    raw: bool = False   # made with threading.Lock() instead of the factory


@dataclass
class Access:
    """One attribute / global access inside a function body."""

    attr: str
    is_write: bool
    guards: frozenset[str]
    line: int
    in_init: bool = False


@dataclass
class CallSite:
    """One call inside a function body, with the held-lock context."""

    method: str                   # called attribute / function name
    receiver_class: str | None    # resolved receiver class qualname
    direct_target: str | None     # resolved function qualname (non-method)
    held: frozenset[str]
    line: int


@dataclass
class FunctionInfo:
    module: str
    cls: str | None               # owning class qualname
    name: str
    qualname: str                 # "module.Class.meth" / "module.func"
    node: ast.AST
    returns: str | None = None    # return-annotation class name (raw)
    acquires: list[tuple[str, bool, int]] = field(default_factory=list)
    direct_edges: list[tuple[str, str, int]] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    accesses: list[Access] = field(default_factory=list)
    global_writes: list[Access] = field(default_factory=list)
    blocking: list[tuple[str, frozenset, int]] = field(default_factory=list)
    foreign_locks: list[tuple[str, int]] = field(default_factory=list)
    entry: bool = False


@dataclass
class ClassInfo:
    module: str
    name: str
    qualname: str
    bases: list[str] = field(default_factory=list)
    lock_attrs: dict[str, LockDecl] = field(default_factory=dict)
    safe_attrs: set[str] = field(default_factory=set)
    attr_types: dict[str, str] = field(default_factory=dict)
    init_attrs: set[str] = field(default_factory=set)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    path: Path
    rel_path: str
    tree: ast.Module
    source_lines: list[str]
    imports: dict[str, str] = field(default_factory=dict)
    module_locks: dict[str, LockDecl] = field(default_factory=dict)
    mutable_globals: dict[str, int] = field(default_factory=dict)
    global_instances: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    raw_lock_lines: list[int] = field(default_factory=list)


def _annotation_names(node: ast.AST | None) -> list[str]:
    """Candidate class names mentioned in an annotation expression."""
    if node is None:
        return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.append(sub.value.split(".")[-1].strip())
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
    return [n for n in names if n and n[0].isupper()]


def _call_name(func: ast.AST) -> str | None:
    """The trailing name of a call target (Name or Attribute)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_threading_lock_call(node: ast.AST, imports: dict[str, str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in ("Lock", "RLock") \
            and isinstance(func.value, ast.Name):
        return imports.get(func.value.id, func.value.id) == "threading"
    if isinstance(func, ast.Name) and func.id in ("Lock", "RLock"):
        return imports.get(func.id, "").startswith("threading.")
    return False


class ProgramModel:
    """The queryable whole-program model."""

    def __init__(self, root: Path):
        self.root = root
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: short method name -> classes defining it (for unique fallback)
        self._method_index: dict[str, list[ClassInfo]] = {}
        #: lock name -> reentrant?
        self.locks: dict[str, bool] = {}
        self.lock_decls: list[LockDecl] = []
        #: the static lock-order graph with witness sites
        self.lock_edges: dict[tuple[str, str], str] = {}
        self.entries: set[str] = set()
        self.worker_reachable: set[str] = set()
        self._closures: dict[str, frozenset[str]] = {}

    # -- symbol resolution ---------------------------------------------------

    def _program_name(self, dotted: str) -> str | None:
        """Map ``repro.x.y`` (or ``x.y``) to a program module/symbol."""
        for prefix in ("repro.", ""):
            if dotted.startswith(prefix):
                candidate = dotted[len(prefix):]
                if candidate:
                    return candidate
        return None

    def resolve_symbol(self, module: ModuleInfo, name: str,
                       _depth: int = 0) -> tuple[str, str] | None:
        """Resolve a bare name in a module to ``(kind, qualname)`` where
        kind is ``class`` / ``function`` / ``instance`` / ``lock``."""
        if _depth > 4:
            return None
        if name in module.classes:
            return ("class", module.classes[name].qualname)
        if name in module.functions:
            return ("function", module.functions[name].qualname)
        if name in module.global_instances:
            return ("instance", module.global_instances[name])
        if name in module.module_locks:
            return ("lock", module.module_locks[name].name)
        target = module.imports.get(name)
        if target is None:
            return None
        dotted = self._program_name(target)
        if dotted is None:
            return None
        if dotted in self.modules:
            return ("module", dotted)
        mod_name, _, symbol = dotted.rpartition(".")
        other = self.modules.get(mod_name)
        if other is None or not symbol:
            return None
        return self.resolve_symbol(other, symbol, _depth + 1)

    def resolve_class(self, module: ModuleInfo, name: str) \
            -> ClassInfo | None:
        resolved = self.resolve_symbol(module, name)
        if resolved and resolved[0] == "class":
            return self.classes.get(resolved[1])
        return None

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """The class plus program-visible ancestors (linearized, naive)."""
        out, queue, seen = [], [cls], set()
        while queue:
            cur = queue.pop(0)
            if cur.qualname in seen:
                continue
            seen.add(cur.qualname)
            out.append(cur)
            module = self.modules[cur.module]
            for base in cur.bases:
                parent = self.resolve_class(module, base)
                if parent is not None:
                    queue.append(parent)
        return out

    def class_lock_attrs(self, cls: ClassInfo) -> dict[str, LockDecl]:
        merged: dict[str, LockDecl] = {}
        for ancestor in reversed(self.mro(cls)):
            merged.update(ancestor.lock_attrs)
        return merged

    def class_safe_attrs(self, cls: ClassInfo) -> set[str]:
        merged: set[str] = set()
        for ancestor in self.mro(cls):
            merged |= ancestor.safe_attrs
        return merged

    def class_attr_types(self, cls: ClassInfo) -> dict[str, str]:
        merged: dict[str, str] = {}
        for ancestor in reversed(self.mro(cls)):
            merged.update(ancestor.attr_types)
        return merged

    def find_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        for ancestor in self.mro(cls):
            if name in ancestor.methods:
                return ancestor.methods[name]
        return None

    def resolve_callees(self, site: CallSite,
                        caller: FunctionInfo) -> list[FunctionInfo]:
        """Program functions a call site may reach (possibly empty)."""
        if site.direct_target is not None:
            fn = self.functions.get(site.direct_target)
            return [fn] if fn else []
        if site.receiver_class is not None:
            cls = self.classes.get(site.receiver_class)
            if cls is not None:
                fn = self.find_method(cls, site.method)
                return [fn] if fn else []
            return []
        # Unique-name fallback: resolve only when exactly one class
        # (outside the caller's own) defines the method — ambiguity
        # would fabricate edges, and fabricated edges fabricate cycles.
        # Builtin-collection names never resolve this way.
        if site.method in _FALLBACK_EXCLUDED:
            return []
        owners = [c for c in self._method_index.get(site.method, ())
                  if c.qualname != caller.cls]
        if len(owners) == 1:
            fn = owners[0].methods.get(site.method)
            return [fn] if fn else []
        return []

    # -- lock closures + graph ----------------------------------------------

    def _compute_closures(self) -> None:
        closures = {q: frozenset(name for name, _, _ in fn.acquires)
                    for q, fn in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for q, fn in self.functions.items():
                acc = set(closures[q])
                for site in fn.calls:
                    for callee in self.resolve_callees(site, fn):
                        acc |= closures[callee.qualname]
                frozen = frozenset(acc)
                if frozen != closures[q]:
                    closures[q] = frozen
                    changed = True
        self._closures = closures

    def _compute_edges(self) -> None:
        for fn in self.functions.values():
            for src, dst, line in fn.direct_edges:
                self.lock_edges.setdefault(
                    (src, dst), f"{fn.qualname}:{line}")
            for site in fn.calls:
                if not site.held:
                    continue
                acquired: set[str] = set()
                for callee in self.resolve_callees(site, fn):
                    acquired |= self._closures.get(callee.qualname,
                                                   frozenset())
                for held in site.held:
                    for name in acquired:
                        if name == held and self.locks.get(name, False):
                            continue  # re-entrant re-acquisition is fine
                        self.lock_edges.setdefault(
                            (held, name),
                            f"{fn.qualname}:{site.line}"
                            f" -> {site.method}")

    def _compute_reachable(self) -> None:
        frontier = [self.functions[q] for q in self.entries
                    if q in self.functions]
        seen = {fn.qualname for fn in frontier}
        while frontier:
            fn = frontier.pop()
            for site in fn.calls:
                for callee in self.resolve_callees(site, fn):
                    if callee.qualname not in seen:
                        seen.add(callee.qualname)
                        frontier.append(callee)
        self.worker_reachable = seen

    def edge_set(self) -> set[tuple[str, str]]:
        return set(self.lock_edges)

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {}
        for src, dst in self.lock_edges:
            adj.setdefault(src, set()).add(dst)
        return adj

    def lock_cycles(self) -> list[list[str]]:
        """Elementary cycles in the static lock-order graph (including
        non-reentrant self-loops), via iterative DFS per start node."""
        adj = self.adjacency()
        cycles: list[list[str]] = []
        seen_keys: set[tuple[str, ...]] = set()
        for start in sorted(adj):
            stack: list[tuple[str, list[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(adj.get(node, ())):
                    if nxt == start:
                        if len(path) == 1 and self.locks.get(start, False):
                            continue  # reentrant self-loop
                        key = tuple(sorted(path))
                        if key not in seen_keys:
                            seen_keys.add(key)
                            cycles.append(path + [start])
                    elif nxt not in path and len(path) < 8:
                        stack.append((nxt, path + [nxt]))
        return cycles


# -- phase A: per-module structure -------------------------------------------


def _module_name(path: Path, root: Path) -> str:
    rel = path.relative_to(root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__root__"


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return imports


def _lock_from_call(node: ast.AST, module: str, cls: str | None,
                    attr: str, imports: dict[str, str]) -> LockDecl | None:
    if not isinstance(node, ast.Call):
        return None
    fname = _call_name(node.func)
    if fname in _LOCK_FACTORIES:
        name = None
        if node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            name = node.args[0].value
        owner = cls or module
        return LockDecl(name=name or f"{owner}.{attr}",
                        reentrant=_LOCK_FACTORIES[fname],
                        module=module, cls=cls, attr=attr,
                        line=node.lineno)
    if _is_threading_lock_call(node, imports):
        owner = cls or module
        return LockDecl(name=f"{owner}.{attr}",
                        reentrant=_call_name(node.func) == "RLock",
                        module=module, cls=cls, attr=attr,
                        line=node.lineno, raw=True)
    return None


def _classify_value(node: ast.AST, params: dict[str, list[str]]) \
        -> tuple[str, object] | None:
    """Classify an assigned value: ("safe", None) | ("type", [names])."""
    if isinstance(node, ast.IfExp):
        return (_classify_value(node.body, params)
                or _classify_value(node.orelse, params))
    if isinstance(node, ast.Call):
        fname = _call_name(node.func)
        if fname in _SAFE_CTORS:
            return ("safe", None)
        if fname and fname[0].isupper():
            return ("type", [fname])
    if isinstance(node, ast.Name) and node.id in params:
        names = params[node.id]
        return ("type", names) if names else None
    return None


def _scan_class(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    qual = f"{module.name}.{node.name}"
    info = ClassInfo(module=module.name, name=node.name, qualname=qual,
                     bases=[b.id if isinstance(b, ast.Name) else b.attr
                            for b in node.bases
                            if isinstance(b, (ast.Name, ast.Attribute))])
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            # dataclass field declaration
            attr = stmt.target.id
            info.init_attrs.add(attr)
            names = _annotation_names(stmt.annotation)
            if names:
                info.attr_types[attr] = names[0]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = FunctionInfo(module=module.name, cls=qual,
                              name=stmt.name,
                              qualname=f"{qual}.{stmt.name}", node=stmt)
            if stmt.returns is not None:
                names = _annotation_names(stmt.returns)
                fn.returns = names[0] if names else None
            info.methods[stmt.name] = fn
    for init_name in ("__init__", "__post_init__"):
        init = info.methods.get(init_name)
        if init is None:
            continue
        params = {a.arg: _annotation_names(a.annotation)
                  for a in init.node.args.args}
        for sub in ast.walk(init.node):
            if not (isinstance(sub, ast.Assign) or
                    isinstance(sub, ast.AnnAssign)):
                continue
            targets = sub.targets if isinstance(sub, ast.Assign) \
                else [sub.target]
            value = sub.value
            if value is None:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                info.init_attrs.add(attr)
                lock = _lock_from_call(value, module.name, qual, attr,
                                       module.imports)
                if lock is not None:
                    info.lock_attrs[attr] = lock
                    continue
                kind = _classify_value(value, params)
                if kind is None:
                    continue
                if kind[0] == "safe":
                    info.safe_attrs.add(attr)
                elif kind[0] == "type" and kind[1]:
                    info.attr_types[attr] = kind[1][0]
    return info


def _scan_module_level(module: ModuleInfo) -> None:
    for stmt in module.tree.body:
        if isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        else:
            continue
        for target in targets:
            name = target.id
            lock = _lock_from_call(value, module.name, None, name,
                                   module.imports)
            if lock is not None:
                module.module_locks[name] = lock
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set)):
                module.mutable_globals[name] = stmt.lineno
            elif isinstance(value, ast.Call):
                fname = _call_name(value.func)
                if fname in _MUTABLE_CTORS:
                    module.mutable_globals[name] = stmt.lineno
                elif fname in _SAFE_CTORS:
                    pass
                elif fname and fname[0].isupper():
                    module.global_instances[name] = fname
                elif isinstance(value.func, ast.Attribute) and \
                        isinstance(value.func.value, ast.Name):
                    # factory method on a module instance, e.g.
                    # REGISTRY.counter(...) -> typed by the method's
                    # return annotation (resolved in phase B)
                    module.global_instances[name] = \
                        f"{value.func.value.id}.{value.func.attr}()"


# -- phase B: function-body walk ---------------------------------------------


class _FuncWalker(ast.NodeVisitor):
    """Walks one function body tracking the held-lock stack."""

    def __init__(self, program: ProgramModel, module: ModuleInfo,
                 fn: FunctionInfo):
        self.program = program
        self.module = module
        self.fn = fn
        self.cls = program.classes.get(fn.cls) if fn.cls else None
        self.held: list[str] = []
        self.locals: dict[str, str] = {}  # local var -> class qualname
        self.in_init = fn.name in ("__init__", "__post_init__")
        self.globals_declared: set[str] = set()
        if self.cls is not None:
            self._own_locks = program.class_lock_attrs(self.cls)
            self._attr_types = program.class_attr_types(self.cls)
        else:
            self._own_locks = {}
            self._attr_types = {}
        # Convention: a method named ``*_locked`` is documented to be
        # called only with the class's own lock(s) already held — seed
        # the held set so its guarded accesses classify correctly.
        if fn.name.endswith("_locked") and self._own_locks:
            self.held.extend(sorted({d.name
                                     for d in self._own_locks.values()}))
        node = fn.node
        for arg in getattr(node.args, "args", []):
            names = _annotation_names(arg.annotation)
            for candidate in names:
                resolved = program.resolve_class(module, candidate)
                if resolved is not None:
                    self.locals[arg.arg] = resolved.qualname
                    break

    # -- lock expression resolution --

    def _resolve_lock_expr(self, node: ast.AST) -> str | None:
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name):
            base, attr = node.value.id, node.attr
            if base == "self":
                decl = self._own_locks.get(attr)
                return decl.name if decl else None
            if attr in _PRIVATE_LOCK_ATTRS:
                self.fn.foreign_locks.append(
                    (f"{base}.{attr}", node.lineno))
                cls = self._local_class(base)
                if cls is not None:
                    decl = self.program.class_lock_attrs(cls).get(attr)
                    if decl is not None:
                        return decl.name
                return f"?{base}.{attr}"
            return None
        if isinstance(node, ast.Name):
            decl = self.module.module_locks.get(node.id)
            if decl is not None:
                return decl.name
            resolved = self.program.resolve_symbol(self.module, node.id)
            if resolved and resolved[0] == "lock":
                return resolved[1]
        return None

    def _local_class(self, name: str) -> ClassInfo | None:
        qual = self.locals.get(name)
        return self.program.classes.get(qual) if qual else None

    def _receiver_class(self, node: ast.AST) -> str | None:
        """Resolved class qualname of a call receiver expression."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.qualname
            cls = self._local_class(node.id)
            if cls is not None:
                return cls.qualname
            resolved = self.program.resolve_symbol(self.module, node.id)
            if resolved and resolved[0] == "instance":
                return self._instance_class(resolved[1])
            return None
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            target = self._attr_types.get(node.attr)
            if target is not None:
                cls = self.program.resolve_class(self.module, target)
                if cls is not None:
                    return cls.qualname
        return None

    def _instance_class(self, spec: str) -> str | None:
        """Resolve a global-instance spec: plain class name, or a
        ``RECEIVER.method()`` factory typed by its return annotation."""
        if spec.endswith("()"):
            recv, _, meth = spec[:-2].rpartition(".")
            recv_resolved = self.program.resolve_symbol(self.module, recv)
            if recv_resolved and recv_resolved[0] == "instance":
                owner_qual = self._instance_class(recv_resolved[1])
                owner = self.program.classes.get(owner_qual or "")
                if owner is not None:
                    fn = self.program.find_method(owner, meth)
                    if fn is not None and fn.returns:
                        owner_mod = self.program.modules[owner.module]
                        cls = self.program.resolve_class(owner_mod,
                                                         fn.returns)
                        if cls is not None:
                            return cls.qualname
            return None
        cls = self.program.resolve_class(self.module, spec)
        return cls.qualname if cls is not None else None

    # -- visitors --

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_declared.update(node.names)

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            self.visit(item.context_expr)
            lock = self._resolve_lock_expr(item.context_expr)
            if lock is not None:
                for held in self.held:
                    if held != lock:
                        self.fn.direct_edges.append(
                            (held, lock, item.context_expr.lineno))
                self.fn.acquires.append(
                    (lock, self.program.locks.get(lock, False),
                     item.context_expr.lineno))
                self.held.append(lock)
                pushed += 1
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for stmt in node.body:
            self.visit(stmt)
        if pushed:
            del self.held[-pushed:]

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        held = frozenset(self.held)
        func = node.func
        fname = _call_name(func)
        # thread-entry detection
        if fname in ("Thread", "Timer"):
            for kw in node.keywords:
                if kw.arg == "target":
                    self._mark_entry(kw.value)
        elif fname == "submit":
            for arg in node.args:
                self._mark_entry(arg)
        # blocking-call detection (only meaningful while holding a lock)
        if held:
            self._check_blocking(node, fname, held)
        # record the call site
        if isinstance(func, ast.Name):
            resolved = self.program.resolve_symbol(self.module, func.id)
            target = None
            if resolved and resolved[0] == "function":
                target = resolved[1]
            elif resolved and resolved[0] == "class":
                cls = self.program.classes.get(resolved[1])
                init = cls and self.program.find_method(cls, "__init__")
                target = init.qualname if init else None
                if cls is not None:
                    post = self.program.find_method(cls, "__post_init__")
                    if post is not None:
                        self.fn.calls.append(CallSite(
                            method="__post_init__", receiver_class=None,
                            direct_target=post.qualname, held=held,
                            line=node.lineno))
            if target is not None:
                self.fn.calls.append(CallSite(
                    method=func.id, receiver_class=None,
                    direct_target=target, held=held, line=node.lineno))
        elif isinstance(func, ast.Attribute):
            receiver = self._receiver_class(func.value)
            self.fn.calls.append(CallSite(
                method=func.attr, receiver_class=receiver,
                direct_target=None, held=held, line=node.lineno))
            # receiver-mutating calls double as attribute writes
            if func.attr in _MUTATOR_METHODS:
                self._record_store_target(func.value, node.lineno)
        self.generic_visit(node)

    def _mark_entry(self, node: ast.AST) -> None:
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self" and self.cls is not None:
            fn = self.program.find_method(self.cls, node.attr)
            if fn is not None:
                self.program.entries.add(fn.qualname)
        elif isinstance(node, ast.Name):
            resolved = self.program.resolve_symbol(self.module, node.id)
            if resolved and resolved[0] == "function":
                self.program.entries.add(resolved[1])

    def _check_blocking(self, node: ast.Call, fname: str | None,
                        held: frozenset[str]) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _BLOCKING_NAMES:
            self.fn.blocking.append((func.id, held, node.lineno))
            return
        if not isinstance(func, ast.Attribute) or \
                fname not in _BLOCKING_ATTRS:
            return
        hints = _BLOCKING_RECEIVER_HINTS.get(fname, ())
        recv = func.value
        recv_name = None
        if isinstance(recv, ast.Name):
            recv_name = recv.id
        elif isinstance(recv, ast.Attribute):
            recv_name = recv.attr
        if hints is None or (recv_name is not None
                             and recv_name.lower().lstrip("_") in
                             {h.lstrip("_") for h in hints}):
            label = f"{recv_name or '?'}.{fname}"
            self.fn.blocking.append((label, held, node.lineno))

    # -- attribute / global accesses --

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            is_write = isinstance(node.ctx, (ast.Store, ast.Del))
            self.fn.accesses.append(Access(
                attr=node.attr, is_write=is_write,
                guards=frozenset(self.held), line=node.lineno,
                in_init=self.in_init))
        elif isinstance(node.value, ast.Name) and \
                node.attr in _PRIVATE_LOCK_ATTRS and \
                not isinstance(node.ctx, ast.Load):
            self.fn.foreign_locks.append(
                (f"{node.value.id}.{node.attr}", node.lineno))
        self.generic_visit(node)

    def _record_store_target(self, node: ast.AST, line: int) -> None:
        """A mutation through ``node`` (subscript store / mutator call)."""
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            self.fn.accesses.append(Access(
                attr=node.attr, is_write=True,
                guards=frozenset(self.held), line=line,
                in_init=self.in_init))
        elif isinstance(node, ast.Name):
            self._record_global_write(node.id, line)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record_store_target(node.value, node.lineno)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) and \
                node.id in self.globals_declared:
            self._record_global_write(node.id, node.lineno)

    def _record_global_write(self, name: str, line: int) -> None:
        if name in self.module.mutable_globals or \
                name in self.globals_declared:
            self.fn.global_writes.append(Access(
                attr=name, is_write=True,
                guards=frozenset(self.held), line=line))

    def visit_Assign(self, node: ast.Assign) -> None:
        # track simple local typing: v = ClassName(...), v = self.attr
        if len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            qual = self._receiver_class(node.value) \
                if isinstance(node.value, (ast.Attribute, ast.Name)) \
                else None
            if qual is None and isinstance(node.value, ast.Call):
                cname = _call_name(node.value.func)
                if cname:
                    cls = self.program.resolve_class(self.module, cname)
                    if cls is not None:
                        qual = cls.qualname
            if qual is not None:
                self.locals[target] = qual
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        pass  # nested defs run later, under their own (empty) held set

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved, self.held = self.held, []
        self.visit(node.body)
        self.held = saved


# -- the builder --------------------------------------------------------------


def _walk_body(program: ProgramModel, module: ModuleInfo,
               fn: FunctionInfo) -> None:
    walker = _FuncWalker(program, module, fn)
    for stmt in fn.node.body:
        walker.visit(stmt)



def build_program(root: Path) -> ProgramModel:
    """Parse and analyse every ``*.py`` under ``root``."""
    root = Path(root)
    program = ProgramModel(root)
    paths = sorted(p for p in root.rglob("*.py"))
    # phase A: structure
    for path in paths:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        module = ModuleInfo(
            name=_module_name(path, root), path=path,
            rel_path=str(path.relative_to(root)), tree=tree,
            source_lines=source.splitlines())
        module.imports = _collect_imports(tree)
        _scan_module_level(module)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                module.classes[stmt.name] = _scan_class(stmt, module)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    module=module.name, cls=None, name=stmt.name,
                    qualname=f"{module.name}.{stmt.name}", node=stmt)
                if stmt.returns is not None:
                    names = _annotation_names(stmt.returns)
                    fn.returns = names[0] if names else None
                module.functions[stmt.name] = fn
        # raw threading.Lock() calls anywhere in the module
        for node in ast.walk(tree):
            if _is_threading_lock_call(node, module.imports):
                module.raw_lock_lines.append(node.lineno)
        program.modules[module.name] = module
    # index classes / functions / locks
    for module in program.modules.values():
        for cls in module.classes.values():
            program.classes[cls.qualname] = cls
            for meth in cls.methods.values():
                program.functions[meth.qualname] = meth
            for name in cls.methods:
                program._method_index.setdefault(name, []).append(cls)
        for fn in module.functions.values():
            program.functions[fn.qualname] = fn
        for decl in module.module_locks.values():
            program.locks[decl.name] = decl.reentrant
            program.lock_decls.append(decl)
    for cls in program.classes.values():
        for decl in cls.lock_attrs.values():
            program.locks[decl.name] = decl.reentrant
            program.lock_decls.append(decl)
    # phase B: bodies (visit the statements, not the def node itself —
    # visit_FunctionDef is the nested-def barrier)
    for module in program.modules.values():
        for fn in list(module.functions.values()):
            _walk_body(program, module, fn)
        for cls in module.classes.values():
            for fn in cls.methods.values():
                _walk_body(program, module, fn)
    # phase C: closures, edges, reachability
    program._compute_closures()
    program._compute_edges()
    program._compute_reachable()
    return program
