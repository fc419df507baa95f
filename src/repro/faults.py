"""Deterministic, seed-driven fault injection.

The framework is a registry of *named injection sites* threaded through
the commit path (``wal.fsync``, ``storage.commit_batch``,
``serve.write.reset``, ...).  Production code calls the module-level hooks:

    from repro import faults as _faults
    ...
    _faults.fire("wal.fsync")            # raise if the plan says so
    if _faults.fired("wal.append.torn"): # branch if the plan says so
        ...
    lag = _faults.delay("serve.read.slow")  # latency to add (async sites)

When no plan is installed the hooks are module-level no-ops — a plain
global lookup plus a call that returns immediately, the same
zero-overhead trick as the metrics ``NullRegistry``.  Installing a
:class:`FaultPlan` rebinds the three hooks; uninstalling restores the
no-ops.  Sites that were never named by the plan stay free even while a
plan is active (one dict lookup).

A plan is deterministic given its seed: each site owns a private
``random.Random`` seeded from ``(seed, site)``, so two runs with the
same plan and the same sequence of hook calls observe the same faults
regardless of thread scheduling elsewhere.  Schedules can also be
exact: ``hits=(2, 5)`` fires on the 2nd and 5th call only.

Plans come from the programmatic API (:func:`install`, the
:func:`injected` context manager) or the ``REPRO_FAULTS`` environment
variable::

    REPRO_FAULTS="wal.fsync:prob=0.1,exc=oserror;serve.read.slow:latency=0.05,exc=none;seed=42"

Invalid specs warn (``RuntimeWarning``) and are ignored — never
silently honored, never fatal.
"""

from __future__ import annotations

import os
import random
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

__all__ = [
    "FaultError",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "fire",
    "fired",
    "delay",
    "install",
    "uninstall",
    "active_plan",
    "injected",
    "parse_plan",
    "plan_from_env",
]

ENV_KNOB = "REPRO_FAULTS"


class FaultError(RuntimeError):
    """Base class for every exception raised by an injection site."""


class InjectedFault(FaultError):
    """Generic injected failure (``exc=fault``, the default)."""

    def __init__(self, site: str, message: str = "") -> None:
        super().__init__(message or f"injected fault at {site!r}")
        self.site = site


def _make_oserror(site: str, message: str) -> BaseException:
    return OSError(5, message or f"injected I/O error at {site!r}")  # EIO


def _make_disk_full(site: str, message: str) -> BaseException:
    return OSError(28, message or f"injected disk full at {site!r}")  # ENOSPC


def _make_storage(site: str, message: str) -> BaseException:
    # imported lazily: repro.db.engines imports this module
    from repro.db.engines import StorageEngineError

    return StorageEngineError(message or f"injected storage failure at {site!r}")


def _make_conn_reset(site: str, message: str) -> BaseException:
    return ConnectionResetError(message or f"injected connection reset at {site!r}")


def _make_broken_pipe(site: str, message: str) -> BaseException:
    return BrokenPipeError(message or f"injected broken pipe at {site!r}")


def _make_timeout(site: str, message: str) -> BaseException:
    return TimeoutError(message or f"injected timeout at {site!r}")


_EXC_KINDS: Dict[str, Optional[Callable[[str, str], BaseException]]] = {
    "fault": lambda site, msg: InjectedFault(site, msg),
    "oserror": _make_oserror,
    "disk_full": _make_disk_full,
    "storage": _make_storage,
    "conn_reset": _make_conn_reset,
    "broken_pipe": _make_broken_pipe,
    "timeout": _make_timeout,
    # latency-only / branch-only sites: fired() returns True, fire() raises
    # nothing, delay() returns the latency
    "none": None,
}


@dataclass(frozen=True)
class FaultSpec:
    """One site's schedule: when it triggers and what happens."""

    site: str
    probability: float = 1.0
    hits: Tuple[int, ...] = ()  # exact 1-based call indices; overrides probability
    after: int = 0  # skip the first `after` calls
    limit: Optional[int] = None  # max number of triggers
    latency: float = 0.0  # seconds, surfaced via delay()/applied by fired sites
    exc: str = "fault"  # key into _EXC_KINDS
    message: str = ""

    def __post_init__(self) -> None:
        if self.exc not in _EXC_KINDS:
            raise ValueError(f"unknown exception kind {self.exc!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def build_exception(self) -> Optional[BaseException]:
        factory = _EXC_KINDS[self.exc]
        if factory is None:
            return None
        return factory(self.site, self.message)


class _SiteState:
    __slots__ = ("spec", "rng", "calls", "triggers")

    def __init__(self, spec: FaultSpec, seed: int) -> None:
        self.spec = spec
        # independent stream per site: thread scheduling of *other* sites
        # cannot perturb this one
        self.rng = random.Random(zlib.crc32(spec.site.encode()) ^ seed)
        self.calls = 0
        self.triggers = 0

    def check(self) -> bool:
        """Advance the schedule one call; return True when the fault triggers."""
        self.calls += 1
        spec = self.spec
        if spec.limit is not None and self.triggers >= spec.limit:
            return False
        if spec.hits:
            hit = self.calls in spec.hits
        else:
            if self.calls <= spec.after:
                return False
            hit = spec.probability >= 1.0 or self.rng.random() < spec.probability
        if hit:
            self.triggers += 1
        return hit


class FaultPlan:
    """A set of :class:`FaultSpec` with deterministic per-site schedules."""

    def __init__(self, specs: Iterable[FaultSpec] = (), *, seed: int = 0) -> None:
        self.seed = seed
        self._lock = threading.Lock()
        self._sites: Dict[str, _SiteState] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self._sites[spec.site] = _SiteState(spec, self.seed)
        return self

    def site(self, site: str, **kwargs: object) -> "FaultPlan":
        """Shorthand: ``plan.site("wal.fsync", probability=0.5, exc="oserror")``."""
        return self.add(FaultSpec(site=site, **kwargs))  # type: ignore[arg-type]

    # -- hook implementations -------------------------------------------

    def fire(self, site: str) -> None:
        state = self._sites.get(site)
        if state is None:
            return
        with self._lock:
            hit = state.check()
        if not hit:
            return
        if state.spec.latency > 0.0:
            time.sleep(state.spec.latency)
        exc = state.spec.build_exception()
        if exc is not None:
            raise exc

    def fired(self, site: str) -> bool:
        state = self._sites.get(site)
        if state is None:
            return False
        with self._lock:
            return state.check()

    def delay(self, site: str) -> float:
        """Latency-only probe: never raises, never sleeps — returns seconds."""
        state = self._sites.get(site)
        if state is None:
            return 0.0
        with self._lock:
            hit = state.check()
        return state.spec.latency if hit else 0.0

    # -- introspection ---------------------------------------------------

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-site call/trigger counters (for test assertions)."""
        with self._lock:
            return {
                name: {"calls": state.calls, "triggers": state.triggers}
                for name, state in self._sites.items()
            }

    def triggered(self, site: str) -> int:
        state = self._sites.get(site)
        return state.triggers if state is not None else 0


# ---------------------------------------------------------------------------
# Module-level hooks.  With no plan installed these are the no-op defaults:
# the hot path pays one global lookup + an empty call.


def _noop_fire(site: str) -> None:
    return None


def _noop_fired(site: str) -> bool:
    return False


def _noop_delay(site: str) -> float:
    return 0.0


fire: Callable[[str], None] = _noop_fire
fired: Callable[[str], bool] = _noop_fired
delay: Callable[[str], float] = _noop_delay

_active: Optional[FaultPlan] = None
_install_lock = threading.Lock()


def install(plan: FaultPlan) -> FaultPlan:
    """Make `plan` the active plan, rebinding the module hooks."""
    global fire, fired, delay, _active
    with _install_lock:
        _active = plan
        fire = plan.fire
        fired = plan.fired
        delay = plan.delay
    return plan


def uninstall() -> None:
    """Remove the active plan; the hooks revert to no-ops."""
    global fire, fired, delay, _active
    with _install_lock:
        _active = None
        fire = _noop_fire
        fired = _noop_fired
        delay = _noop_delay


def active_plan() -> Optional[FaultPlan]:
    return _active


class injected:
    """``with faults.injected(plan): ...`` installs/uninstalls around a block."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        return install(self.plan)

    def __exit__(self, *exc_info: object) -> None:
        uninstall()


# ---------------------------------------------------------------------------
# REPRO_FAULTS parsing.
#
#   spec     := entry (";" entry)*
#   entry    := site ":" kv ("," kv)*   |   "seed=" int
#   kv       := key "=" value
#
# keys: prob, hits (dash-separated 1-based indices), after, limit,
# latency (seconds), exc, message.


def parse_plan(text: str) -> Optional[FaultPlan]:
    """Parse a ``REPRO_FAULTS`` string; warn and skip invalid entries.

    Returns None when no valid site survives parsing.
    """
    seed = 0
    entries = []
    for raw in text.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("seed="):
            try:
                seed = int(raw[len("seed="):])
            except ValueError:
                warnings.warn(
                    f"{ENV_KNOB}: invalid seed {raw!r}; using 0",
                    RuntimeWarning,
                    stacklevel=2,
                )
            continue
        site, sep, body = raw.partition(":")
        site = site.strip()
        if not sep or not site:
            warnings.warn(
                f"{ENV_KNOB}: malformed entry {raw!r} (expected 'site:key=value,...'); skipped",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        kwargs: Dict[str, object] = {}
        bad = False
        for pair in body.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, eq, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key in ("prob", "probability"):
                    kwargs["probability"] = float(value)
                elif key == "hits":
                    kwargs["hits"] = tuple(int(v) for v in value.split("-") if v)
                elif key == "after":
                    kwargs["after"] = int(value)
                elif key == "limit":
                    kwargs["limit"] = int(value)
                elif key == "latency":
                    kwargs["latency"] = float(value)
                elif key == "exc":
                    kwargs["exc"] = value
                elif key in ("message", "msg"):
                    kwargs["message"] = value
                else:
                    raise ValueError(f"unknown key {key!r}")
                if not eq:
                    raise ValueError("missing '='")
            except ValueError as err:
                warnings.warn(
                    f"{ENV_KNOB}: invalid option {pair!r} for site {site!r} ({err}); entry skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                bad = True
                break
        if bad:
            continue
        try:
            entries.append(FaultSpec(site=site, **kwargs))  # type: ignore[arg-type]
        except ValueError as err:
            warnings.warn(
                f"{ENV_KNOB}: invalid spec for site {site!r} ({err}); entry skipped",
                RuntimeWarning,
                stacklevel=2,
            )
    if not entries:
        return None
    return FaultPlan(entries, seed=seed)


def plan_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    env = os.environ if environ is None else environ
    text = env.get(ENV_KNOB, "").strip()
    if not text or text.lower() in ("off", "0", "none"):
        return None
    return parse_plan(text)


def _install_from_env() -> None:
    plan = plan_from_env()
    if plan is not None:
        install(plan)


_install_from_env()
