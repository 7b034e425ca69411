"""Spans and counters at groupcut's layer boundaries, installed from outside.

``Tracer.install`` replaces public functions and methods of the groupcut
modules with wrappers, and ``uninstall`` puts the originals back.  Every
module attribute and class attribute that refers to a wrapped object is
replaced, so calls through ``from .x import y`` copies are seen too.  A span
records its total time and, for the span that encloses it, the time its
children took, which gives self times.  Counters only count.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from functools import cached_property

MODULES = ("exactnum", "pwl", "complex2d", "additivity", "covering",
           "perturbation", "catalog", "verify", "diagram", "cli")

# (module, attribute, span name); a dotted attribute is a class member
SPANS = (
    ("additivity", "minimality_test", "additivity.minimality"),
    ("additivity", "additive_face_report", "additivity.report"),
    ("covering", "components", "covering.components"),
    ("perturbation", "build_system", "perturbation.build_system"),
    ("perturbation", "drop_one_ranks", "perturbation.drop_one_ranks"),
    ("perturbation", "lipschitz_epsilon", "perturbation.epsilon"),
    ("perturbation", "scaling_epsilon", "perturbation.epsilon"),
    ("perturbation", "verify_effective", "perturbation.verify_effective"),
    ("catalog", "coset_classify", "catalog.coset_classify"),
    ("verify", "verify_psi_separation", "verify.psi_separation"),
    ("verify", "verify_kzh_perturbation_rank",
     "verify.kzh_perturbation_rank"),
    ("diagram", "render_sidecar", "diagram.sidecar"),
    ("diagram", "sidecar_to_json", "diagram.sidecar"),
)

COUNTERS = (
    ("exactnum", "QNum.__init__", "exactnum.qnum_created"),
    ("exactnum", "QNum.sign", "exactnum.sign_calls"),
    ("exactnum", "QNum.floor", "exactnum.floor_calls"),
    ("pwl", "PwlFunction.limit", "pwl.limit_calls"),
    ("complex2d", "n_f", "complex2d.n_f_calls"),
    ("catalog", "LiftedFunction.eval", "catalog.lifted_evals"),
)


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("groupcut")
        self.mods = {m: importlib.import_module(f"groupcut.{m}")
                     for m in MODULES}
        self.total = defaultdict(float)
        self.children = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list] = []
        self._pairs: set = set()
        self._alive: list = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, orig):
        stack, total, children, counts = (self._stack, self.total,
                                          self.children, self.counts)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                total[name] += dt
                children[name] += frame[0]
                counts[name + ".calls"] += 1
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _count(self, name, orig):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _make_face(self, orig):
        counts = self.counts

        def wrapper(I, J, K):
            counts["complex2d.make_face_calls"] += 1
            return orig(I, J, K)
        return wrapper

    def _slack_at(self, orig):
        counts, pairs, alive = self.counts, self._pairs, self._alive

        def wrapper(fn, face, vertex):
            counts["additivity.slack_evals"] += 1
            key = (id(fn), id(face), vertex)
            if key not in pairs:
                pairs.add(key)
                alive.append((fn, face))  # keeps the ids from being reused
            return orig(fn, face, vertex)
        return wrapper

    def _complex_init(self, orig):
        span = self._span("complex2d.build", orig)
        counts = self.counts

        def wrapper(cx, breakpoints):
            span(cx, breakpoints)
            counts["complex2d.faces"] += len(cx.faces)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _replace(self, module, attr, make):
        cls_name, _, member = attr.rpartition(".")
        if cls_name:
            owner = getattr(module, cls_name)
            orig = owner.__dict__[member]
            new = make(orig)
            for k, v in list(vars(owner).items()):
                if v is orig:  # aliases such as __call__ = eval
                    self._set(owner, k, new)
            return
        orig = getattr(module, attr)
        new = make(orig)
        for mod in list(self.mods.values()) + [self.package]:
            for k, v in list(vars(mod).items()):
                if v is orig:
                    self._set(mod, k, new)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        m = self.mods
        self._replace(m["complex2d"], "Complex2D.__init__", self._complex_init)
        for mod, attr, name in SPANS:
            self._replace(m[mod], attr, lambda o, n=name: self._span(n, o))
        for mod, attr, name in COUNTERS:
            self._replace(m[mod], attr, lambda o, n=name: self._count(n, o))
        self._replace(m["complex2d"], "make_face", self._make_face)
        self._replace(m["additivity"], "slack_at", self._slack_at)
        # rank is a cached_property; wrap the function it caches
        system = m["perturbation"].LinearSystem
        prop = system.__dict__["rank"]
        new = cached_property(self._span("perturbation.rank", prop.func))
        new.__set_name__(system, "rank")
        self._set(system, "rank", new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------

    def overhead(self, vertex, n: int = 20000) -> float:
        """Seconds the wrappers added to the traced pass.

        Each kind of wrapper is timed around a function that does nothing,
        against the bare call; the extra time per call is multiplied by the
        number of calls that went through wrappers of that kind.
        """
        def noop(*args):
            return None

        def per_call(f, args) -> float:
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(n):
                    f(*args)
                best = min(best, time.perf_counter() - t0)
            return best / n

        saved = (dict(self.total), dict(self.children), Counter(self.counts),
                 set(self._pairs), len(self._alive))
        bare = per_call(noop, (None, None, vertex))
        extra = {
            "span": per_call(self._span("calibration", noop), ()) - bare,
            "count": per_call(self._count("calibration", noop), ()) - bare,
            "slack": per_call(self._slack_at(noop), (None, None, vertex))
            - bare,
        }
        self.total, self.children = (defaultdict(float, saved[0]),
                                     defaultdict(float, saved[1]))
        self.counts, self._pairs = saved[2], saved[3]
        del self._alive[saved[4]:]
        c = self.counts
        spans = sum(v for k, v in c.items() if k.endswith(".calls"))
        counted = sum(c[name] for _, _, name in COUNTERS)
        return (spans * extra["span"] + counted * extra["count"]
                + c["complex2d.make_face_calls"] * extra["count"]
                + c["additivity.slack_evals"] * extra["slack"])

    def self_time(self, name: str) -> float:
        return self.total[name] - self.children[name]

    @property
    def distinct_pairs(self) -> int:
        return len(self._pairs)
