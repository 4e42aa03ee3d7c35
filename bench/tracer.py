"""Span tracer that wraps the package's layers from outside.

``install`` rebinds the public functions of the layer modules, and the
constructor, operators and public methods of their exported classes,
to timing wrappers.  Names a module imported from another module are
rebound too, so ``fullgroup.act_cylinder`` is the same wrapper as
``action.act_cylinder``.  Nothing under ``src/`` is edited.

Each call records a span: its name, its duration, and the span that
caused it (the caller on a stack).  Self time is the duration minus
the time covered by child spans.  Counters such as cells enumerated or
pieces built are read off the arguments and results at the same
boundary, after the span's clock has stopped; that bookkeeping is
charged to neither the span nor its parent.

Leaf accessors that run once per letter or per cell (letter-code
arithmetic on ``Presentation``, ``Word.startswith``/``prefix``,
``Cylinder`` navigation, ``BoundaryPoint.letter_code_at``) are left
unwrapped: a span there would cost more than the call, so their time
stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import sys
from collections import defaultdict
from time import perf_counter

from oracles import Pres, corridor_depth

LAYERS = ("words", "cylinders", "action", "fullgroup", "ratios", "sampling", "cli")

# operators that are part of the public API of the classes, with span names
OPERATORS = {
    ("Word", "__mul__"): "words.mul",
    ("Word", "__invert__"): "words.inv",
    ("Word", "__pow__"): "words.pow",
    ("CylinderUnion", "__or__"): "cylinders.or",
    ("CylinderUnion", "__and__"): "cylinders.and",
    ("CylinderUnion", "__sub__"): "cylinders.sub",
}

# methods whose spans get a short name of their layer
ALIASES = {
    ("CylinderUnion", "contains"): "cylinders.contains",
    ("CylinderUnion", "complement"): "cylinders.complement",
    ("PiecewiseTranslation", "apply"): "fullgroup.apply",
    ("PiecewiseTranslation", "extend_to"): "fullgroup.extend_to",
    ("SampleBatch", "frequency"): "sampling.frequency",
    ("SampleBatch", "cell_counts"): "sampling.cell_counts",
}

# per-letter and per-cell accessors left unwrapped (see module docstring)
LEAVES = {
    "Letter": None,
    "Presentation": None,
    "Cylinder": None,
    "Word": {"startswith", "prefix", "append_code", "letters", "inverse"},
    "BoundaryPoint": {"letter_code_at", "truncate", "cylinder_at"},
    "CylinderUnion": {"covers_word", "bases"},
}


def bucket(value: int, edges: tuple[tuple[int, str], ...], last: str) -> str:
    for upper, label in edges:
        if value <= upper:
            return label
    return last


def verify_bucket(steps: int) -> str | None:
    if steps > 12:
        return None
    return bucket(steps, ((4, "steps_le4"), (8, "steps_5-8")), "steps_9-12")


def apply_bucket(dev: int) -> str:
    return bucket(dev, ((15, "dev_lt16"), (63, "dev_16-63")), "dev_ge64")


def and_bucket(size: int) -> str:
    return bucket(size, ((63, "n_lt64"), (255, "n_64-255")), "n_ge256")


def act_bucket(length: int) -> str:
    return bucket(length, ((4, "g_le4"), (8, "g_5-8")), "g_ge9")


def sample_bucket(depth: int) -> str:
    return bucket(depth, ((16, "depth_le16"), (63, "depth_17-63")), "depth_ge64")


class Tracer:
    """Aggregates spans: calls, self and inclusive time, caller edges, counters."""

    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # frames: [child_time, name, words_at_entry]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)  # self time per size bucket
        self.words_built = 0
        self.pre, self.post = PRE, POST  # counter hooks, defined below

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            pre = tracer.pre.get(name)
            state = pre(args) if pre else None
            frame = [0.0, name, tracer.words_built]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, start, perf_counter(), args, None, exc, state)
                raise
            tracer._close(frame, start, perf_counter(), args, result, None, state)
            return result

        return traced

    def _close(self, frame, start, end, args, result, exc, state):
        self.stack.pop()
        name = frame[1]
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[0]
        self.incl_s[name] += dur
        if name == "words.Word":
            self.words_built += 1
        post = self.post.get(name)
        if post is not None:
            self.enabled = False
            try:
                post(self, frame, dur - frame[0], args, result, exc, state)
            finally:
                self.enabled = True
        if self.stack:
            parent = self.stack[-1]
            parent[0] += dur + (perf_counter() - end)
            self.edges[(parent[1], name)] += dur

    def begin(self, name: str) -> None:
        """Open the root span of one benchmark operation and start tracing."""
        self.stack.append([0.0, name, self.words_built, perf_counter()])
        self.enabled = True

    def end(self) -> None:
        """Close the root span opened by ``begin`` and stop tracing."""
        self.enabled = False
        child_time, name, _, start = self.stack.pop()
        dur = perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_time
        self.incl_s[name] += dur


# -- counters read at span boundaries --------------------------------------------


def _post_sphere(tr, frame, self_t, args, result, exc, state):
    if result is not None:
        tr.counts["words.sphere.cells"] += len(result)


def _post_and(tr, frame, self_t, args, result, exc, state):
    a, b = args
    tr.counts["cylinders.and.pairs"] += len(a.cylinders) * len(b.cylinders)
    if result is not None:
        tr.counts["cylinders.and.out_cylinders"] += len(result.cylinders)
    tr.times["cylinders.and.self_s." + and_bucket(max(len(a.cylinders), len(b.cylinders)))] += self_t


def _post_sub(tr, frame, self_t, args, result, exc, state):
    if result is not None:
        tr.counts["cylinders.sub.out_cylinders"] += len(result.cylinders)


def _post_act_cylinder(tr, frame, self_t, args, result, exc, state):
    if result is not None:
        tr.counts["action.act_cylinder.out_cylinders"] += len(result.cylinders)
    tr.counts["action.act_cylinder.words"] += tr.words_built - frame[2]
    tr.times["action.act_cylinder.self_s." + act_bucket(len(args[0]))] += self_t


def _post_rn_table(tr, frame, self_t, args, result, exc, state):
    if result is not None:
        tr.counts["action.rn_table.cells"] += len(result.entries)


def _post_build_swap(tr, frame, self_t, args, result, exc, state):
    if result is not None:
        tr.counts["fullgroup.build_swap.pieces"] += len(result.forward_pieces()) + len(result.backward_pieces())


def _post_verify(tr, frame, self_t, args, result, exc, state):
    label = verify_bucket(state)
    if label is not None:
        tr.times["fullgroup.verify_swap.self_s." + label] += self_t


def _pre_steps(args):
    return args[0].step_count


def _post_apply(tr, frame, self_t, args, result, exc, state):
    k, point = args
    tr.counts["fullgroup.apply.steps_materialized"] += k.step_count - state
    pres = Pres(k.presentation.s, k.presentation.t)
    dev = corridor_depth(pres, k.x.codes, k.y.codes, point.prefix.codes, point.cycle.codes)
    tr.times["fullgroup.apply.self_s." + apply_bucket(dev)] += self_t


def _post_witness(tr, frame, self_t, args, result, exc, state):
    if result is not None:
        tr.counts["ratios.find_witness.stages"] += len(result.stages)
        tr.counts["ratios.find_witness.found_cylinders"] += len(result.found.cylinders)


def _post_sample(tr, frame, self_t, args, result, exc, state):
    depth, count = args[1], args[2]
    tr.counts["sampling.sample.draws"] += depth * count
    if exc is not None:
        tr.counts["sampling.sample.failed"] += 1
    else:
        tr.counts["sampling.sample.distinct"] += len(result.counts)
    tr.times["sampling.sample.self_s." + sample_bucket(depth)] += self_t


def _post_cli(tr, frame, self_t, args, result, exc, state):
    if exc is not None or result != 0:
        tr.counts["cli.main.failed"] += 1
    out = sys.stdout  # each benchmark operation captures the command's output afresh
    if isinstance(out, io.StringIO):
        tr.counts["cli.main.out_bytes"] += len(out.getvalue().encode())


PRE = {"fullgroup.apply": _pre_steps, "fullgroup.verify_swap": _pre_steps}
POST = {
    "words.sphere": _post_sphere,
    "cylinders.and": _post_and,
    "cylinders.sub": _post_sub,
    "action.act_cylinder": _post_act_cylinder,
    "action.rn_table": _post_rn_table,
    "fullgroup.build_swap": _post_build_swap,
    "fullgroup.verify_swap": _post_verify,
    "fullgroup.apply": _post_apply,
    "ratios.find_witness": _post_witness,
    "sampling.sample": _post_sample,
    "cli.main": _post_cli,
}


# -- installation ------------------------------------------------------------------


def _method_name(layer: str, cls_name: str, attr: str) -> str | None:
    key = (cls_name, attr)
    if key in OPERATORS:
        return OPERATORS[key]
    if key in ALIASES:
        return ALIASES[key]
    if attr == "__init__":
        return f"{layer}.{cls_name}"
    if attr.startswith("_"):
        return None
    return f"{layer}.{cls_name}.{attr}"


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    skip = LEAVES.get(cls.__name__, set())
    if cls.__name__ in LEAVES and skip is None:
        return
    for attr, value in list(vars(cls).items()):
        if attr in skip:
            continue
        name = _method_name(layer, cls.__name__, attr)
        if name is None:
            continue
        if isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(value.__func__, name)))
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(value.__func__, name)))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(value, name))


def install(tracer: Tracer) -> None:
    """Rebind the layers' public callables to ``tracer``'s wrappers."""
    package = importlib.import_module("treeboundary")
    modules = {layer: importlib.import_module(f"treeboundary.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{attr}")
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
    for mod in [package, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
