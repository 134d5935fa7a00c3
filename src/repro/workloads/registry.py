"""The unified workload registry: one name scheme for every input.

Every placer entry point — the CLI, the portfolio runner, benchmarks,
examples — resolves its circuit through :func:`resolve_workload`, which
understands three name families:

* **built-ins** — the hand-built benchmark library
  (``miller_opamp``, ``fig2``, the Table-I set,
  ``sized_folded_cascode``);
* **generated families** — ``gen:n=500,seed=7,...`` names parsed into
  a :class:`~repro.workloads.WorkloadSpec` and synthesized
  deterministically (see :mod:`repro.workloads.generator`);
* **on-disk benchmarks** — ``file:path/to/bench.blocks`` (or ``.aux``)
  read through the Bookshelf parser.

Names are *spawn-safe identities*: a portfolio worker process rebuilds
its circuit from the workload string alone, so nothing live is ever
pickled — ``gen:`` specs re-generate bit-identically in any process,
and ``file:`` paths re-parse.

Resolution of built-ins and generated names is memoized behind one
registry-level :func:`functools.lru_cache` (``gen:`` names are first
canonicalized, so ``gen:seed=7,n=40`` and ``gen:n=40,seed=7`` share a
slot).  This is *the* build cache: expensive constructions like
``sized_folded_cascode`` (a ~1s sizing anneal) rely on it instead of
caching ad hoc.  Callers treat circuits as immutable — the same
convention the parallel runner's per-process cache has always relied
on.  ``file:`` names are deliberately **not** cached: the file may
change on disk between calls, and parsing is cheap.
"""

from __future__ import annotations

import difflib
from functools import lru_cache
from typing import Callable

from ..circuit import (
    TABLE1_MODULE_COUNTS,
    Circuit,
    fig2_design,
    miller_opamp,
    sized_folded_cascode,
    table1_circuit,
)
from .bookshelf import read_bookshelf
from .spec import GEN_PREFIX, parse_gen_spec

#: prefix of on-disk Bookshelf benchmark names
FILE_PREFIX = "file:"


def _table1(key: str) -> Callable[[], Circuit]:
    return lambda: table1_circuit(key)


#: built-in workload name -> function that builds it
BUILTIN_WORKLOADS: dict[str, Callable[[], Circuit]] = dict(
    sorted(
        {
            "miller_opamp": miller_opamp,
            "fig2": fig2_design,
            "sized_folded_cascode": sized_folded_cascode,
            **{key: _table1(key) for key in TABLE1_MODULE_COUNTS},
        }.items()
    )
)


def workload_names() -> tuple[str, ...]:
    """Built-in workload names, sorted.  ``gen:`` and ``file:`` names
    are open families — see the module docstring for their grammar."""
    return tuple(BUILTIN_WORKLOADS)


@lru_cache(maxsize=64)
def _build(key: str) -> Circuit:
    """The registry build cache; ``key`` is a canonical workload name."""
    if key.startswith(GEN_PREFIX):
        from .generator import generate_circuit

        return generate_circuit(parse_gen_spec(key))
    return BUILTIN_WORKLOADS[key]()


def clear_workload_cache() -> None:
    """Drop every cached build (tests; long-lived servers after config
    changes).  Resolution stays correct either way — builds are pure."""
    _build.cache_clear()


def resolve_workload(name: str) -> Circuit:
    """Look any workload up by name — the one resolver every consumer
    shares.

    Raises :class:`KeyError` for an unknown built-in name (message
    names the nearest match) and :class:`ValueError` for a malformed
    ``gen:`` spec or an unreadable/unsupported ``file:`` benchmark.
    """
    if name.startswith(FILE_PREFIX):
        return read_bookshelf(name[len(FILE_PREFIX):]).circuit
    if name.startswith(GEN_PREFIX):
        # parse first: errors mention the bad parameter, and the cache
        # key becomes canonical (parameter order never splits a slot)
        return _build(parse_gen_spec(name).canonical_name())
    if name in BUILTIN_WORKLOADS:
        return _build(name)
    raise KeyError(unknown_workload_message(name))


def unknown_workload_message(name: str) -> str:
    """One clean, suggestion-bearing message for a name miss."""
    names = workload_names()
    nearest = difflib.get_close_matches(name, names, n=1, cutoff=0.5)
    hint = f"did you mean {nearest[0]!r}? " if nearest else ""
    return (
        f"unknown workload {name!r}; {hint}"
        f"available: {', '.join(names)}; or use a generated family "
        f"('{GEN_PREFIX}n=<modules>,seed=<seed>,...') or an on-disk "
        f"benchmark ('{FILE_PREFIX}<path>.blocks')"
    )


def workload_summaries() -> list[str]:
    """One line per built-in entry — the ``workloads list`` /
    ``--list-circuits`` payload.  Each line leads with the *registry
    key* (the name ``place`` actually accepts); the circuit's own
    display name can differ (``sized_folded_cascode`` builds a circuit
    displaying as ``folded-cascode``), so printing summaries alone
    would advertise names that do not resolve."""
    return [
        f"{name:<22}{resolve_workload(name).summary()}"
        for name in workload_names()
    ]
