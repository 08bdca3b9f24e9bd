"""Device credential material for Over-The-Air Activation (§2.2).

"Devices are pre-provisioned with a Device End User Identifier (EUI), an
Application EUI, and an App key. These are used during Over The Air
Activation (OTAA) ... to authenticate to a LoRaWAN Router."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.digest import sha256
from repro.errors import JoinError

__all__ = ["DeviceCredentials", "SessionKeys"]


def _hexdigest(*parts: str) -> str:
    h = sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


@dataclass(frozen=True)
class DeviceCredentials:
    """Pre-provisioned identity: DevEUI, AppEUI, AppKey.

    In Helium these are "blindly copied #defines prepended to a Helium
    library" (§2.1); here they are derived from a seed string.
    """

    dev_eui: str
    app_eui: str
    app_key: str

    @classmethod
    def generate(cls, seed: str) -> "DeviceCredentials":
        """Derive a credential triple deterministically from ``seed``."""
        if not seed:
            raise JoinError("credential seed must be non-empty")
        return cls(
            dev_eui=_hexdigest("dev", seed)[:16],
            app_eui=_hexdigest("app", seed)[:16],
            app_key=_hexdigest("key", seed)[:32],
        )


@dataclass(frozen=True)
class SessionKeys:
    """Session state minted by a successful OTAA join."""

    dev_addr: str
    nwk_s_key: str
    app_s_key: str

    @classmethod
    def derive(cls, credentials: DeviceCredentials, join_nonce: int) -> "SessionKeys":
        """Derive session keys from credentials and the join nonce."""
        base = _hexdigest(credentials.app_key, credentials.dev_eui, str(join_nonce))
        return cls(
            dev_addr=base[:8],
            nwk_s_key=_hexdigest("nwk", base)[:32],
            app_s_key=_hexdigest("apps", base)[:32],
        )
