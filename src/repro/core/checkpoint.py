"""The profile cache: the paper's checkpoint, kept on disk.

The paper's methodology leans on checkpoints — "the file-caches were
warmed and a checkpoint was taken before the program was loaded"
(Section 3.1) — so that the expensive part of simulation runs once.
The expensive part of *this* reproduction is the detailed cycle-level
profiling; :class:`ProfileCache` persists its results (benchmark
profiles and per-invocation service profiles) so later processes can
sweep disk policies, sample intervals, or report formats without
re-simulating.  ``repro checkpoint --cache-dir DIR`` warms one.

Each entry is one JSON file stored under a *content-addressed* key that
hashes everything the result depends on (benchmark spec, the parts of
the system configuration the simulation reads, CPU model, window
parameters, seed, and a model-version stamp), so
:class:`~repro.core.softwatt.SoftWatt` can consult it transparently — a
stale or mismatched entry simply misses and the profile is
re-simulated.  Counters are stored as plain dicts, per-label stats
keyed by label (``"__user__"`` stands for the ``None`` user label,
which JSON cannot key).  Service entries are price-free measurements,
so one entry serves every technology point.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import threading

from repro.core.profiles import (
    BenchmarkProfile,
    IdleProfile,
    PhaseProfile,
    ServiceInvocationProfile,
)
from repro.config.system import SystemConfig
from repro.cpu.branch import BranchStats
from repro.cpu.runstats import LabelStats, RunStats
from repro.stats.counters import AccessCounters
from repro.stats.simlog import log_degradation
from repro.workloads.specjvm98 import BenchmarkSpec

_USER_KEY = "__user__"

MODEL_VERSION = 2
"""Stamp of the simulator semantics and of the cache-entry format.
Bump whenever a change alters simulation *results* (CPU timing, cache
behaviour, workload generation) or what an entry stores: every existing
cache entry then misses and is evicted, forcing a clean re-profile
instead of serving stale numbers or mis-decoding an old layout.
(Version 2: service entries store per-invocation counters, not
energies.)"""

PRICING_ONLY_PARTS = ("technology",)
"""Config parts no detailed simulation reads: the power models and the
timeline's wall clock consume them, so they stay out of every key."""

SERVICE_BLIND_PARTS = (*PRICING_ONLY_PARTS, "tlb", "fidelity")
"""Config parts a kernel-service characterisation never reads.  Handler
bodies run in KSEG, so they never translate an address (enforced by
:class:`~repro.core.profiles.ServiceTranslationError`), and services
always run on the detailed core whatever the fidelity rung."""

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
"""Environment variable naming the persistent profile-cache directory.
The cache is disabled when it is unset (no surprise writes outside the
working tree)."""

QUARANTINE_SUBDIR = "quarantine"
"""Corrupt or stale cache entries are *moved* here, not deleted: a
reproducible corruption (torn write, bad disk, version skew) stays
available for a bug report instead of silently vanishing."""


class CheckpointError(RuntimeError):
    """Raised when a cache entry's profile cannot be decoded."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_counters(counters: AccessCounters) -> dict:
    return {name: value for name, value in counters.items() if value}


def _decode_counters(data: dict) -> AccessCounters:
    counters = AccessCounters()
    for name, value in data.items():
        if not hasattr(counters, name):
            raise CheckpointError(f"unknown counter {name!r} in cache entry")
        setattr(counters, name, value)
    return counters


def _encode_label_stats(stats: LabelStats) -> dict:
    return {
        "cycles": stats.cycles,
        "instr_cycles": stats.instr_cycles,
        "stall_cycles": stats.stall_cycles,
        "instructions": stats.instructions,
        "counters": _encode_counters(stats.counters),
    }


def _decode_label_stats(data: dict) -> LabelStats:
    return LabelStats(
        cycles=data["cycles"],
        instr_cycles=data["instr_cycles"],
        stall_cycles=data["stall_cycles"],
        instructions=data["instructions"],
        counters=_decode_counters(data["counters"]),
    )


def _encode_run_stats(stats: RunStats) -> dict:
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "traps": stats.traps,
        "branch": dataclasses.asdict(stats.branch),
        "labels": {
            (label if label is not None else _USER_KEY): _encode_label_stats(s)
            for label, s in stats.labels.items()
        },
    }


def _decode_run_stats(data: dict) -> RunStats:
    stats = RunStats(
        cycles=data["cycles"],
        instructions=data["instructions"],
        traps=data["traps"],
        branch=BranchStats(**data["branch"]),
    )
    for label, payload in data["labels"].items():
        key = None if label == _USER_KEY else label
        stats.labels[key] = _decode_label_stats(payload)
    return stats


def _encode_phase(profile: PhaseProfile) -> dict:
    return {
        "phase": profile.phase.name,
        "chunks": [_encode_run_stats(chunk) for chunk in profile.chunks],
        "invocations": profile.invocations,
    }


def _encode_service(profile: ServiceInvocationProfile) -> dict:
    return {
        "service": profile.service,
        "cycles": profile.cycles,
        "counters": [_encode_counters(counters) for counters in profile.counters],
        "instructions": profile.instructions,
    }


def _decode_service(data: dict) -> ServiceInvocationProfile:
    profile = ServiceInvocationProfile(
        service=data["service"],
        cycles=data["cycles"],
        counters=[_decode_counters(counters) for counters in data["counters"]],
        instructions=data["instructions"],
    )
    if not len(profile.cycles) == len(profile.counters) == len(profile.instructions):
        raise CheckpointError(
            f"service {profile.service!r}: per-invocation lists differ in length"
        )
    return profile


def encode_profile(profile: BenchmarkProfile) -> dict:
    """Encode one benchmark profile as a JSON-serialisable dict."""
    return {
        "spec": profile.spec.name,
        "cpu_model": profile.cpu_model,
        "phases": {
            phase_name: _encode_phase(phase)
            for phase_name, phase in profile.phases.items()
        },
        "idle": _encode_run_stats(profile.idle.stats),
    }


def decode_profile(
    payload: dict, *, spec: BenchmarkSpec, config: SystemConfig
) -> BenchmarkProfile:
    """Rebuild a benchmark profile from :func:`encode_profile` output.

    ``spec`` and ``config`` are attached as the profile's identity; the
    caller is responsible for ensuring they match the payload (the
    profile cache guarantees this through its content-addressed key).
    """
    phases = {}
    for phase_name, phase_payload in payload["phases"].items():
        phases[phase_name] = PhaseProfile(
            phase=spec.phases.phase(phase_name),
            chunks=[_decode_run_stats(chunk) for chunk in phase_payload["chunks"]],
            invocations=phase_payload["invocations"],
        )
    return BenchmarkProfile(
        spec=spec,
        cpu_model=payload["cpu_model"],
        phases=phases,
        idle=IdleProfile(stats=_decode_run_stats(payload["idle"])),
        config=config,
    )


# ---------------------------------------------------------------------------
# Content-addressed cache keys
# ---------------------------------------------------------------------------

def _stable_hash(payload: dict) -> str:
    """SHA-256 of a canonical JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _simulated_config(config: SystemConfig, *, without: tuple[str, ...]) -> dict:
    """``config`` as a plain dict, minus the top-level parts ``without``.

    The projection every cache key hashes: a part is dropped only when
    the keyed simulation provably never reads it, so a config that
    differs only there shares the entry.
    """
    document = dataclasses.asdict(config)
    for part in without:
        del document[part]
    return document


def profile_cache_key(
    spec: BenchmarkSpec,
    config: SystemConfig,
    *,
    cpu_model: str,
    window_instructions: int,
    startup_chunks: int,
    steady_chunks: int,
    seed: int,
) -> str:
    """Cache key for a benchmark profile.

    Hashes every input the detailed simulation depends on, plus the
    :data:`MODEL_VERSION` stamp — any difference in spec content (not
    just name), simulated configuration (everything but
    :data:`PRICING_ONLY_PARTS`; the fidelity rung stays in because
    benchmark windows run on it), profiling window, or simulator
    semantics produces a different key.
    """
    return _stable_hash(
        {
            "kind": "benchmark",
            "model_version": MODEL_VERSION,
            "spec": dataclasses.asdict(spec),
            "config": _simulated_config(config, without=PRICING_ONLY_PARTS),
            "cpu_model": cpu_model,
            "window_instructions": window_instructions,
            "startup_chunks": startup_chunks,
            "steady_chunks": steady_chunks,
            "seed": seed,
        }
    )


def service_cache_key(
    service: str,
    config: SystemConfig,
    *,
    cpu_model: str,
    invocations: int,
    warmup: int,
    seed: int,
) -> str:
    """Cache key for a per-invocation kernel-service profile.

    Hashes only what the characterisation simulates: the config without
    :data:`SERVICE_BLIND_PARTS`, so machines that differ in technology,
    TLB or fidelity rung share one entry.
    """
    return _stable_hash(
        {
            "kind": "service",
            "model_version": MODEL_VERSION,
            "service": service,
            "config": _simulated_config(config, without=SERVICE_BLIND_PARTS),
            "cpu_model": cpu_model,
            "invocations": invocations,
            "warmup": warmup,
            "seed": seed,
        }
    )


# ---------------------------------------------------------------------------
# Persistent profile cache
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ProfileCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        """JSON-ready counters (the serve ``/stats`` and drain flush)."""
        return dataclasses.asdict(self)


class ProfileCache:
    """Content-addressed on-disk cache of profiling results.

    One JSON file per entry, named by the cache key.  Entries whose
    model-version stamp no longer matches, or that cannot be decoded,
    are evicted on contact and reported as misses — the caller then
    re-profiles cleanly.  Evicted entries are quarantined under
    ``<cache-dir>/quarantine/`` (with a logged warning) rather than
    deleted, so reproducible corruption can be reported.  Writes are
    atomic (tmp file + rename) so a crashed or concurrent writer can
    never leave a torn entry.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self.stats = CacheStats()

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.directory / QUARANTINE_SUBDIR

    @classmethod
    def from_env(cls) -> "ProfileCache | None":
        """The cache named by ``REPRO_CACHE_DIR``, or None if unset."""
        directory = os.environ.get(CACHE_DIR_ENV)
        if not directory:
            return None
        return cls(directory)

    # -- internals ------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def _read(self, key: str, kind: str) -> dict | None:
        path = self._path(key)
        try:
            document = json.loads(path.read_text())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._evict(path)
            return None
        if (
            not isinstance(document, dict)
            or document.get("model_version") != MODEL_VERSION
            or document.get("kind") != kind
        ):
            self._evict(path)
            return None
        return document

    def _evict(self, path: pathlib.Path) -> None:
        self.stats.misses += 1
        self._quarantine(path)

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a suspect entry aside (fall back to deleting it)."""
        self.stats.evictions += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            destination = self.quarantine_dir / path.name
            suffix = 0
            while destination.exists():
                suffix += 1
                destination = self.quarantine_dir / f"{path.stem}.{suffix}{path.suffix}"
            os.replace(path, destination)
        except OSError:
            # A cache that cannot quarantine (read-only, cross-device
            # oddities) still must not serve the bad entry.
            try:
                path.unlink()
            except OSError:
                return
            log_degradation(
                f"cache-quarantine: deleted unreadable profile-cache entry "
                f"{path.name} (quarantine unavailable)"
            )
            return
        self.stats.quarantined += 1
        log_degradation(
            f"cache-quarantine: moved corrupt/stale profile-cache entry "
            f"{path.name} to {destination} — please report if reproducible"
        )

    def _write(self, key: str, document: dict) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            # Unique per writer: two threads storing one key (serve's
            # rungs share service entries) must not share a temp file.
            tmp = path.with_name(
                f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
            )
            tmp.write_text(json.dumps(document))
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache directory must never break the
            # simulation; the entry simply is not persisted.
            return
        self.stats.stores += 1

    # -- benchmark profiles ---------------------------------------------

    def load_profile(
        self, key: str, *, spec: BenchmarkSpec, config: SystemConfig
    ) -> BenchmarkProfile | None:
        """The cached profile under ``key``, or None on any miss."""
        document = self._read(key, "benchmark")
        if document is None:
            return None
        try:
            profile = decode_profile(document["profile"], spec=spec, config=config)
        except (KeyError, TypeError, ValueError, CheckpointError):
            self._evict(self._path(key))
            return None
        self.stats.hits += 1
        return profile

    def store_profile(self, key: str, profile: BenchmarkProfile) -> None:
        """Persist ``profile`` under ``key``."""
        self._write(
            key,
            {
                "kind": "benchmark",
                "model_version": MODEL_VERSION,
                "profile": encode_profile(profile),
            },
        )

    # -- service profiles -----------------------------------------------

    def load_service(self, key: str) -> ServiceInvocationProfile | None:
        """The cached service profile under ``key``, or None on any miss."""
        document = self._read(key, "service")
        if document is None:
            return None
        try:
            profile = _decode_service(document["profile"])
        except (KeyError, TypeError, ValueError, CheckpointError):
            self._evict(self._path(key))
            return None
        self.stats.hits += 1
        return profile

    def store_service(self, key: str, profile: ServiceInvocationProfile) -> None:
        """Persist ``profile`` under ``key``."""
        self._write(
            key,
            {
                "kind": "service",
                "model_version": MODEL_VERSION,
                "profile": _encode_service(profile),
            },
        )

    # -- maintenance ----------------------------------------------------

    def evict_stale(self) -> int:
        """Quarantine every entry with a stale model version or torn JSON.

        Returns the number of entries removed from the active cache.
        Entries written by a *newer* model version are also removed —
        the stamp is an exact match, not an ordering.
        """
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.glob("*.json"):
            try:
                document = json.loads(path.read_text())
                stale = (
                    not isinstance(document, dict)
                    or document.get("model_version") != MODEL_VERSION
                )
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                stale = True
            if stale:
                self._quarantine(path)
                if not path.exists():
                    removed += 1
        return removed

    def quarantined_entries(self) -> list[pathlib.Path]:
        """The quarantined entry files, oldest name-order first."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(self.quarantine_dir.glob("*.json"))
