"""The picklable recipe a replay worker uses to rebuild a world.

Worker processes cannot share the parent's :class:`Environment` or
:class:`WorkflowSystem` (live simulation state does not pickle, and
sharing it would serialize the run anyway).  Instead the engine ships a
:class:`ReplaySpec` — plain configuration data — and every worker builds
its own fresh environment, cluster, and system per cell via
:meth:`ReplaySpec.build_setup`.

Heterogeneous tenancy: a spec may carry a
:class:`~repro.parallel.profiles.TenantProfile` map (default profile
plus per-tenant overrides).  :meth:`ReplaySpec.resolve` folds the
layers — spec base, then the default profile, then the cell tenant's
profile — into one :class:`ResolvedProfile` that names the system,
placement, cluster, and request defaults that cell replays under.

Per-cell seeds derive deterministically from the spec's root seed, the
cell key, and the resolved profile (never from shard or worker indices),
so a cell simulates identically no matter which shard or process it
lands on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.cluster import ClusterConfig
from ..loadgen.runner import DEFAULT_TIMEOUT_S
from ..loadgen.trace import InvocationTrace
from .policy import stable_hash
from .profiles import TenantConfig, TenantProfile
from .sink import RecordSinkSpec

__all__ = ["ReplaySpec", "ResolvedProfile"]


@dataclass(slots=True)
class ResolvedProfile:
    """The concrete configuration one cell replays under."""

    #: Tenant the profile resolved for (the cell key when no tenant is
    #: identifiable, e.g. mixed timeslice cells).
    tenant: str
    system: str
    placement: str
    timeout_s: float
    input_bytes: Optional[float]
    fanout: Optional[int]
    system_overrides: Dict[str, object]
    cluster_config: ClusterConfig
    #: Which layer won: ``base`` (spec only), ``default`` (config-file
    #: default profile), or ``tenant`` (a per-tenant entry applied).
    source: str = "base"

    def tag(self) -> Dict[str, object]:
        """The audit tag reports attach to per-tenant sections."""
        tag: Dict[str, object] = {
            "system": self.system,
            "placement": self.placement,
            "source": self.source,
        }
        if self.timeout_s != DEFAULT_TIMEOUT_S:
            tag["timeout_s"] = self.timeout_s
        return tag


@dataclass(frozen=True, slots=True)
class ReplaySpec:
    """Everything needed to replay one trace cell in a fresh world.

    Slotted: the streaming engine pickles one spec per *cell* task (not
    per shard), so the spec stays as small and cheap to serialize as a
    plain tuple of its fields.
    """

    #: Execution system registry name (``repro systems``).
    system_name: str = "dataflower"
    #: App used by events that name none (``None``: every event must name one).
    default_app: Optional[str] = None
    #: Placement policy registry name.
    placement: str = "round_robin"
    #: Root seed; per-cell system seeds derive from it via :meth:`cell_seed`.
    seed: int = 0
    #: Per-request timeout inside each cell.
    timeout_s: float = DEFAULT_TIMEOUT_S
    #: Input-size override for events that carry none.
    input_bytes: Optional[float] = None
    #: Fan-out override for events that carry none.
    fanout: Optional[int] = None
    #: Simulated cluster topology each cell gets a private copy of.
    cluster_config: ClusterConfig = field(default_factory=ClusterConfig)
    #: Extra system-config overrides (must be picklable scalars).
    system_overrides: Optional[dict] = None
    #: Profile applied to every tenant before per-tenant overrides.
    default_profile: Optional[TenantProfile] = None
    #: Per-tenant-id profile overrides (heterogeneous tenancy).
    tenant_profiles: Optional[Dict[str, TenantProfile]] = None
    #: Record-sink tunings: spill threshold and scratch directory
    #: (``None``: the defaults).  Pure memory policy — never feeds cell
    #: seeds or the report, so specs differing only here replay
    #: byte-identically.
    record_sink: Optional[RecordSinkSpec] = None

    @property
    def has_profiles(self) -> bool:
        """Whether any tenant-profile layer is configured."""
        return bool(self.tenant_profiles) or self.default_profile is not None

    def with_tenant_config(self, config: TenantConfig) -> "ReplaySpec":
        """This spec with a loaded ``--tenant-config`` file applied."""
        return dataclasses.replace(
            self,
            default_profile=config.default,
            tenant_profiles=dict(config.tenants) or None,
        )

    # -- profile resolution ---------------------------------------------------

    def _cell_tenant(
        self, cell_key: str, cell_trace: Optional[InvocationTrace]
    ) -> str:
        if cell_trace is not None:
            tenant = cell_trace.sole_tenant()
            if tenant is not None:
                return tenant
        return cell_key

    def resolve(
        self, cell_key: str, cell_trace: Optional[InvocationTrace] = None
    ) -> ResolvedProfile:
        """Fold the profile layers for one cell, most specific last.

        The cell's tenant is the sole tenant of its sub-trace when one
        exists (always true under the ``tenant`` shard policy), else the
        cell key.  Resolution depends only on (spec, cell) — never on
        shard or worker indices — preserving shard invariance.
        """
        tenant = self._cell_tenant(cell_key, cell_trace)
        layers: List[TenantProfile] = []
        source = "base"
        if self.default_profile is not None:
            layers.append(self.default_profile)
            source = "default"
        tenant_profile = (self.tenant_profiles or {}).get(tenant)
        if tenant_profile is not None:
            layers.append(tenant_profile)
            source = "tenant"
        system = self.system_name
        placement = self.placement
        timeout_s = self.timeout_s
        input_bytes = self.input_bytes
        fanout = self.fanout
        overrides: Dict[str, object] = dict(self.system_overrides or {})
        cluster = self.cluster_config
        for layer in layers:
            if layer.system is not None and layer.system != system:
                # A layer that switches systems invalidates overrides
                # accumulated for the previous system's config class.
                system = layer.system
                overrides = {}
            if layer.placement is not None:
                placement = layer.placement
            if layer.timeout_s is not None:
                timeout_s = layer.timeout_s
            if layer.input_bytes is not None:
                input_bytes = layer.input_bytes
            if layer.fanout is not None:
                fanout = layer.fanout
            if layer.system_overrides:
                overrides.update(layer.system_overrides)
            if layer.cluster_overrides:
                cluster = dataclasses.replace(
                    cluster, **layer.cluster_overrides
                )
        return ResolvedProfile(
            tenant=tenant,
            system=system,
            placement=placement,
            timeout_s=timeout_s,
            input_bytes=input_bytes,
            fanout=fanout,
            system_overrides=overrides,
            cluster_config=cluster,
            source=source,
        )

    def _seed_for(self, cell_key: str, resolved: ResolvedProfile) -> int:
        tag = ""
        if (
            resolved.system != self.system_name
            or resolved.placement != self.placement
        ):
            tag = f":{resolved.system}:{resolved.placement}"
        return stable_hash(f"replay-seed:{self.seed}:{cell_key}{tag}")

    def cell_seed(
        self, cell_key: str, cell_trace: Optional[InvocationTrace] = None
    ) -> int:
        """The system seed for one cell.

        Stable in (root seed, cell key, resolved profile) only — a
        homogeneous spec derives exactly the legacy ``(seed, key)``
        value, while a profile that changes the cell's system or
        placement steers its RNG streams onto a distinct sequence.
        """
        return self._seed_for(cell_key, self.resolve(cell_key, cell_trace))

    def cell_identity(
        self, cell_key: str, cell_trace: Optional[InvocationTrace] = None
    ) -> str:
        """A stable serialized identity for one cell of this spec.

        ``<key>@<cell seed>`` — the key names the cell, the derived seed
        fingerprints everything that determines its replay (root seed
        plus the resolved profile's system/placement).  The durable run
        journal stamps every checkpointed cell with this token; on
        recovery a journaled residue is only reused when the resubmitted
        request derives the *same* identity, so a checkpoint from a
        different seed or profile configuration is re-run, never merged.
        """
        return f"{cell_key}@{self.cell_seed(cell_key, cell_trace)}"

    def build_setup(
        self,
        cell_trace: InvocationTrace,
        cell_key: str,
        resolved: Optional[ResolvedProfile] = None,
    ):
        """A fresh env + cluster + system with the cell's apps deployed,
        built under the cell tenant's resolved profile.

        ``resolved`` lets the engine's per-cell hot path reuse one
        resolution for setup, seed, and request defaults.
        """
        from ..experiments.common import make_setup  # local: avoid cycle

        if resolved is None:
            resolved = self.resolve(cell_key, cell_trace)
        apps = list(cell_trace.apps())
        if self.default_app and self.default_app not in apps:
            apps.append(self.default_app)
        if not apps:
            raise ValueError(
                f"cell {cell_key!r} of trace {cell_trace.name!r} names no "
                f"apps and the spec has no default_app"
            )
        overrides = dict(resolved.system_overrides)
        overrides["seed"] = self._seed_for(cell_key, resolved)
        return make_setup(
            resolved.system,
            self.default_app or apps[0],
            cluster_config=resolved.cluster_config,
            system_overrides=overrides,
            placement=resolved.placement,
            apps=apps,
        )
