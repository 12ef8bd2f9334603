"""Tenant profiles: heterogeneous per-cell configuration for replay.

DataFlower's evaluation co-locates workflows with very different
resource profiles (Figure 18); real multi-tenant platforms likewise give
each tenant its own execution system, placement policy, and limits.  The
sharded replay engine already gives every tenant its own world (cell);
this module adds the *configuration* side: a :class:`TenantProfile`
describes how one tenant's world differs from the base
:class:`~repro.parallel.spec.ReplaySpec`, and a :class:`TenantConfig`
holds a default profile plus per-tenant overrides, loadable from a JSON
or YAML-lite file (``repro replay --tenant-config``).

Precedence, most specific wins::

    ReplaySpec base  <  TenantConfig default profile  <  tenants[<id>]

A layer that switches the execution system discards system-config
overrides accumulated for the previous system (they target a different
config class).  Profile resolution is a pure function of (spec, cell),
so heterogeneous replays keep the engine's guarantee: merged reports are
bit-identical at any ``--workers`` setting.

Everything validates eagerly against the system/placement registries via
:meth:`TenantConfig.validate`, so a bad profile fails fast in the CLI
with the tenant's name — never deep inside a worker process.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..cluster.cluster import ClusterConfig
from ..workflow.dsl import parse_size

__all__ = [
    "TenantConfig",
    "TenantProfile",
    "TenantProfileError",
    "parse_yaml_lite",
    "validated_tenant_config",
]


class TenantProfileError(ValueError):
    """A bad tenant profile; the message names the offending tenant."""


#: Recognized keys in a profile mapping (config-file schema).
_PROFILE_KEYS = {
    "system",
    "placement",
    "timeout_s",
    "input_bytes",
    "fanout",
    "system_overrides",
    "cluster",
    "max_concurrent_runs",
}


@dataclass(frozen=True)
class TenantProfile:
    """How one tenant's replay world differs from the base spec.

    Every field defaults to ``None`` = "inherit from the layer below"
    (the config file's default profile, then the :class:`ReplaySpec`).
    """

    #: Execution system registry name (``repro systems``).
    system: Optional[str] = None
    #: Placement policy spec (``round_robin``, ``hashed``, ``offset:<n>``).
    placement: Optional[str] = None
    #: Per-request timeout for this tenant's cells.
    timeout_s: Optional[float] = None
    #: Input-size default for events carrying none.
    input_bytes: Optional[float] = None
    #: Fan-out default for events carrying none.
    fanout: Optional[int] = None
    #: System-config overrides (picklable scalars keyed by config field).
    system_overrides: Optional[Dict[str, object]] = None
    #: :class:`~repro.cluster.cluster.ClusterConfig` field overrides.
    cluster_overrides: Optional[Dict[str, object]] = None
    #: Admission-control quota: how many of this tenant's runs may be
    #: queued or running at once in ``repro serve`` (``None`` =
    #: unlimited).  A control-plane knob only — it never reaches the
    #: replay engine, so it cannot perturb seeds or reports.
    max_concurrent_runs: Optional[int] = None

    def is_empty(self) -> bool:
        return all(
            getattr(self, spec.name) is None
            for spec in dataclasses.fields(self)
        )

    @classmethod
    def from_payload(cls, tenant: str, payload: dict) -> "TenantProfile":
        """Parse one config-file profile mapping, naming bad fields."""
        if not isinstance(payload, dict):
            raise TenantProfileError(
                f"tenant {tenant!r}: profile must be a mapping, "
                f"got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - _PROFILE_KEYS)
        if unknown:
            raise TenantProfileError(
                f"tenant {tenant!r}: unknown profile keys {unknown}; "
                f"expected {sorted(_PROFILE_KEYS)}"
            )
        size = payload.get("input_bytes")
        if isinstance(size, str):
            try:
                size = parse_size(size)
            except ValueError as exc:
                raise TenantProfileError(
                    f"tenant {tenant!r}: bad input_bytes: {exc}"
                ) from None
        for key in ("system_overrides", "cluster"):
            value = payload.get(key)
            if value is not None and not isinstance(value, dict):
                raise TenantProfileError(
                    f"tenant {tenant!r}: {key} must be a mapping"
                )
        try:
            profile = cls(
                system=payload.get("system"),
                placement=payload.get("placement"),
                timeout_s=(
                    float(payload["timeout_s"])
                    if payload.get("timeout_s") is not None
                    else None
                ),
                input_bytes=float(size) if size is not None else None,
                fanout=(
                    int(payload["fanout"])
                    if payload.get("fanout") is not None
                    else None
                ),
                system_overrides=payload.get("system_overrides"),
                cluster_overrides=payload.get("cluster"),
                max_concurrent_runs=(
                    int(payload["max_concurrent_runs"])
                    if payload.get("max_concurrent_runs") is not None
                    else None
                ),
            )
        except (TypeError, ValueError) as exc:
            raise TenantProfileError(f"tenant {tenant!r}: {exc}") from None
        if profile.timeout_s is not None and profile.timeout_s <= 0:
            raise TenantProfileError(
                f"tenant {tenant!r}: timeout_s must be positive"
            )
        if profile.fanout is not None and profile.fanout < 1:
            raise TenantProfileError(f"tenant {tenant!r}: fanout must be >= 1")
        if profile.input_bytes is not None and profile.input_bytes < 0:
            raise TenantProfileError(
                f"tenant {tenant!r}: input_bytes must be non-negative"
            )
        if (
            profile.max_concurrent_runs is not None
            and profile.max_concurrent_runs < 1
        ):
            raise TenantProfileError(
                f"tenant {tenant!r}: max_concurrent_runs must be >= 1"
            )
        return profile

    def to_payload(self) -> dict:
        """The profile as a :meth:`from_payload` mapping (round-trips).

        ``None`` fields are omitted so the payload layers exactly like
        the profile does: an absent key inherits from the layer below.
        """
        payload: Dict[str, object] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if value is None:
                continue
            key = "cluster" if spec.name == "cluster_overrides" else spec.name
            payload[key] = dict(value) if isinstance(value, dict) else value
        return payload


@dataclass(frozen=True)
class TenantConfig:
    """A default profile plus per-tenant overrides (the config file)."""

    default: Optional[TenantProfile] = None
    tenants: Dict[str, TenantProfile] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: dict) -> "TenantConfig":
        """Parse the ``{"default": {...}, "tenants": {id: {...}}}`` schema."""
        if not isinstance(payload, dict):
            raise TenantProfileError(
                f"tenant config must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"default", "tenants"})
        if unknown:
            raise TenantProfileError(
                f"tenant config: unknown top-level keys {unknown}; "
                f"expected ['default', 'tenants']"
            )
        default = None
        if payload.get("default") is not None:
            default = TenantProfile.from_payload("default", payload["default"])
        tenants_payload = payload.get("tenants") or {}
        if not isinstance(tenants_payload, dict):
            raise TenantProfileError("tenant config: 'tenants' must be a mapping")
        tenants = {
            str(tenant): TenantProfile.from_payload(str(tenant), body)
            for tenant, body in tenants_payload.items()
        }
        return cls(default=default, tenants=tenants)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TenantConfig":
        """Load a config file: ``.json`` via :mod:`json`, else YAML-lite."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".json":
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                # No path in the message: callers (the CLI) prefix it.
                raise TenantProfileError(f"invalid JSON: {exc}") from None
        else:
            payload = parse_yaml_lite(text)
        return cls.from_payload(payload)

    def to_payload(self) -> dict:
        """The config as the :meth:`from_payload` schema (round-trips).

        This is how a config crosses process boundaries: the serve
        control plane injects its server-level ``--tenant-config`` into
        the payload shipped to remote workers as an inline
        ``tenant_config``, so a worker rebuilding the
        :class:`~repro.parallel.spec.ReplaySpec` from the payload alone
        resolves exactly the profiles the control plane validated.
        """
        payload: Dict[str, object] = {}
        if self.default is not None:
            payload["default"] = self.default.to_payload()
        if self.tenants:
            payload["tenants"] = {
                tenant: profile.to_payload()
                for tenant, profile in sorted(self.tenants.items())
            }
        return payload

    def validate(self, base_system: str, base_placement: str) -> None:
        """Check every profile against the system/placement registries.

        Raises :class:`TenantProfileError` naming the first offending
        tenant, so the CLI fails before any worker process spawns.
        """
        named = [("default", self.default)] if self.default else []
        named += sorted(self.tenants.items())
        for tenant, profile in named:
            _validate_profile(
                tenant,
                profile,
                default_system=(
                    (self.default.system if self.default else None)
                    or base_system
                ),
                base_placement=base_placement,
            )


def validated_tenant_config(
    payload: dict, base_system: str, base_placement: str
) -> TenantConfig:
    """Parse *and* registry-validate an inline tenant-config payload.

    The single fail-fast gate every request path shares: the CLI runs
    loaded ``--tenant-config`` files through the same
    :meth:`TenantConfig.validate`, and the HTTP service
    (:mod:`repro.serve`) routes inline ``tenant_config`` request bodies
    here, so a profile naming an unknown system or placement dies with
    the same named-tenant :class:`TenantProfileError` whether it
    arrived as a file or as JSON over REST — never inside a worker.
    """
    config = TenantConfig.from_payload(payload)
    config.validate(base_system, base_placement)
    return config


def _validate_profile(
    tenant: str,
    profile: TenantProfile,
    default_system: str,
    base_placement: str,
) -> None:
    # Local imports: experiments.common imports systems which must not
    # import the parallel package back at module load.
    from ..experiments.common import CONFIG_CLASSES, SYSTEM_CLASSES
    from ..systems.placement import get_policy

    if profile.system is not None and profile.system not in SYSTEM_CLASSES:
        raise TenantProfileError(
            f"tenant {tenant!r}: unknown system {profile.system!r}; "
            f"choose from {list(SYSTEM_CLASSES)}"
        )
    if profile.placement is not None:
        try:
            get_policy(profile.placement)
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            raise TenantProfileError(
                f"tenant {tenant!r}: {message}"
            ) from None
    else:
        # The inherited placement must itself resolve.
        try:
            get_policy(base_placement)
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else exc
            raise TenantProfileError(
                f"tenant {tenant!r}: inherited {message}"
            ) from None
    if profile.system_overrides:
        config_cls = CONFIG_CLASSES[profile.system or default_system]
        known = {spec.name for spec in dataclasses.fields(config_cls)}
        unknown = sorted(set(profile.system_overrides) - known)
        if unknown:
            raise TenantProfileError(
                f"tenant {tenant!r}: unknown system_overrides {unknown} "
                f"for system {(profile.system or default_system)!r}; "
                f"fields: {sorted(known)}"
            )
        _check_override_types(tenant, config_cls, profile.system_overrides)
    if profile.cluster_overrides:
        known = {spec.name for spec in dataclasses.fields(ClusterConfig)}
        unknown = sorted(set(profile.cluster_overrides) - known)
        if unknown:
            raise TenantProfileError(
                f"tenant {tenant!r}: unknown cluster overrides {unknown}; "
                f"fields: {sorted(known)}"
            )
        try:
            dataclasses.replace(
                ClusterConfig(), **profile.cluster_overrides
            ).validate()
        except (TypeError, ValueError) as exc:
            raise TenantProfileError(f"tenant {tenant!r}: {exc}") from None


def _check_override_types(tenant: str, config_cls, overrides: dict) -> None:
    """Reject overrides whose values cannot inhabit the config field.

    Dataclasses don't type-check at construction, so a string where a
    float belongs would otherwise pass validation and explode mid-replay
    (possibly inside a worker process) with a raw TypeError — exactly
    the failure mode fail-fast validation exists to prevent.
    """
    import typing

    hints = typing.get_type_hints(config_cls)
    for key, value in overrides.items():
        expected = hints.get(key)
        if expected is None:
            continue
        origin = typing.get_origin(expected)
        if origin is typing.Union:
            args = [a for a in typing.get_args(expected) if a is not type(None)]
            if value is None or len(args) != 1:
                continue
            expected = args[0]
        ok = True
        if expected is bool:
            ok = isinstance(value, bool)
        elif expected in (float, int):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif expected is str:
            ok = isinstance(value, str)
        if not ok:
            raise TenantProfileError(
                f"tenant {tenant!r}: system_overrides[{key!r}] must be "
                f"{expected.__name__}, got {type(value).__name__} "
                f"({value!r})"
            )


# -- YAML-lite ----------------------------------------------------------------------
#
# The container deliberately avoids a PyYAML dependency; tenant configs
# need only nested mappings of scalars, so a ~60-line indentation parser
# covers the format without the dependency.  Supported: two-or-more-space
# indented nested mappings, ``key: value`` scalars (ints, floats, bools,
# null, bare or quoted strings), blank lines, and ``#`` comments.


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment, honoring single/double quotes."""
    quote = ""
    for index, char in enumerate(line):
        if quote:
            if char == quote:
                quote = ""
        elif char in "'\"":
            quote = char
        elif char == "#":
            return line[:index]
    return line


def _scalar(text: str) -> object:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("null", "~", ""):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_yaml_lite(text: str) -> dict:
    """Parse the nested-mapping YAML subset tenant configs use.

    Raises :class:`TenantProfileError` (with a line number) on anything
    outside the subset — sequences, flow style, tabs, bad indentation.
    """
    root: dict = {}
    # (indent, mapping) pairs, innermost last.
    stack: List[Tuple[int, dict]] = [(-1, root)]
    # The key awaiting a nested block, if the previous line ended in ':'.
    pending: Optional[Tuple[int, dict, str]] = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise TenantProfileError(
                f"yaml-lite line {line_no}: tabs are not allowed in indentation"
            )
        indent = len(stripped) - len(stripped.lstrip())
        content = stripped.strip()
        if content.startswith("- "):
            raise TenantProfileError(
                f"yaml-lite line {line_no}: sequences are not supported"
            )
        if ":" not in content:
            raise TenantProfileError(
                f"yaml-lite line {line_no}: expected 'key: value', "
                f"got {content!r}"
            )
        if pending is not None:
            parent_indent, parent, key = pending
            if indent > parent_indent:
                child: dict = {}
                parent[key] = child
                stack.append((indent, child))
            else:
                parent[key] = None
            pending = None
        while stack and indent < stack[-1][0]:
            stack.pop()
        if indent != stack[-1][0] and stack[-1][0] != -1:
            raise TenantProfileError(
                f"yaml-lite line {line_no}: bad indentation ({indent} spaces)"
            )
        if stack[-1][0] == -1 and indent != 0:
            raise TenantProfileError(
                f"yaml-lite line {line_no}: top-level keys must not be indented"
            )
        mapping = stack[-1][1]
        key, _, value = content.partition(":")
        key = _scalar(key)
        if not isinstance(key, str):
            key = str(key)
        if value.strip():
            mapping[key] = _scalar(value)
        else:
            pending = (indent, mapping, key)
    if pending is not None:
        parent_indent, parent, key = pending
        parent[key] = None
    return root
