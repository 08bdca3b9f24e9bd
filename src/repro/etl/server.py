"""The explorer's JSON documents, rendered from explorer page objects.

These are the bodies the HTTP tier (:mod:`repro.serve`) serves and
``python -m repro.etl query`` prints: one hotspot page, one owner
page, and the witness event both of them list. Rendering lives here,
beside the store the pages are read from, so every consumer shares one
definition of each document.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.explorer import HotspotPage, OwnerPage, WitnessEvent

__all__ = ["event_to_json", "owner_to_json", "page_to_json"]


def event_to_json(event: WitnessEvent) -> Dict[str, Any]:
    """One witness event as the JSON document the API serves."""
    return {
        "block": event.block,
        "counterparty": event.counterparty,
        "counterparty_name": event.counterparty_name,
        "rssi_dbm": event.rssi_dbm,
        "distance_km": event.distance_km,
        "valid": event.valid,
    }


def page_to_json(page: HotspotPage) -> Dict[str, Any]:
    """A hotspot page as the JSON document the API serves."""
    return {
        "gateway": page.gateway,
        "name": page.name,
        "owner": page.owner,
        "location": (
            None
            if page.location is None
            else {"lat": page.location.lat, "lon": page.location.lon}
        ),
        "location_token": page.location_token,
        "added_block": page.added_block,
        "assert_count": page.assert_count,
        "total_rewards_hnt": page.total_rewards_hnt,
        "packets_ferried": page.packets_ferried,
        "transfer_count": page.transfer_count,
        "recent_witnesses": [
            event_to_json(e) for e in page.recent_witnesses
        ],
        "recent_witnessed_by": [
            event_to_json(e) for e in page.recent_witnessed_by
        ],
    }


def owner_to_json(page: OwnerPage) -> Dict[str, Any]:
    """An owner page as the JSON document the API serves."""
    return {
        "owner": page.owner,
        "hotspot_count": page.hotspot_count,
        "hotspots": [
            {"gateway": gateway, "name": name}
            for gateway, name in page.hotspots
        ],
        "hnt_balance": page.hnt_balance,
        "dc_balance": page.dc_balance,
        "total_rewards_hnt": page.total_rewards_hnt,
    }
