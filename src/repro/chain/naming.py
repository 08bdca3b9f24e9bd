"""Helium-style three-word hotspot names.

Helium derives a human-readable "Adjective Color Animal" name from each
hotspot's public key (e.g. the paper's pseudonymous "Joyful Pink Skunk"
and "Striped Yellow Bird", §7.1). We reproduce the scheme: the name is a
pure function of the hotspot address, so analyses can use names and
addresses interchangeably.
"""

from __future__ import annotations

from typing import Tuple

from repro.digest import sha256

__all__ = ["hotspot_name", "ADJECTIVES", "COLORS", "ANIMALS"]

ADJECTIVES: Tuple[str, ...] = (
    "Joyful", "Striped", "Brave", "Quiet", "Rapid", "Gentle", "Clever",
    "Mellow", "Fierce", "Sunny", "Frosty", "Ancient", "Bold", "Calm",
    "Dapper", "Eager", "Fluffy", "Glorious", "Hidden", "Icy", "Jolly",
    "Keen", "Lively", "Mighty", "Noble", "Odd", "Proud", "Quick",
    "Rustic", "Sleepy", "Tiny", "Upbeat", "Vivid", "Wild", "Young",
    "Zesty", "Breezy", "Crispy", "Dizzy", "Electric", "Fancy", "Giant",
    "Humble", "Itchy", "Jumpy", "Kind", "Loud", "Modern", "Nimble",
    "Obedient", "Polished", "Quaint", "Rough", "Smooth", "Tangy",
    "Unique", "Velvet", "Warm", "Xenial", "Yummy", "Zigzag", "Amateur",
    "Blunt", "Chubby", "Dandy",
)

COLORS: Tuple[str, ...] = (
    "Pink", "Yellow", "Crimson", "Azure", "Emerald", "Ivory", "Jade",
    "Lavender", "Maroon", "Navy", "Olive", "Pearl", "Ruby", "Sapphire",
    "Teal", "Umber", "Violet", "White", "Amber", "Bronze", "Copper",
    "Denim", "Ebony", "Fuchsia", "Gold", "Hazel", "Indigo", "Khaki",
    "Lime", "Magenta", "Obsidian", "Peach",
)

ANIMALS: Tuple[str, ...] = (
    "Skunk", "Bird", "Otter", "Falcon", "Badger", "Cobra", "Dolphin",
    "Elk", "Ferret", "Gecko", "Heron", "Ibex", "Jaguar", "Koala",
    "Lemur", "Mole", "Newt", "Ocelot", "Panther", "Quail", "Raccoon",
    "Seal", "Tapir", "Urchin", "Vulture", "Walrus", "Yak", "Zebra",
    "Armadillo", "Bison", "Crane", "Dragonfly", "Eagle", "Fox",
    "Giraffe", "Hamster", "Iguana", "Jellyfish", "Kangaroo", "Llama",
    "Mantis", "Narwhal", "Octopus", "Penguin", "Rooster", "Shark",
    "Tortoise", "Unicorn", "Viper", "Wombat", "Salamander", "Porcupine",
    "Mongoose", "Hedgehog", "Chinchilla", "Pelican", "Toucan", "Wolf",
    "Lynx", "Moose", "Puffin", "Stork", "Swan", "Turtle",
)


def hotspot_name(address: str) -> str:
    """Deterministic three-word name for a hotspot address.

    >>> hotspot_name("hs_abc123")  # doctest: +SKIP
    'Quiet Amber Heron'
    """
    digest = sha256(address.encode("utf-8")).digest()
    adjective = ADJECTIVES[digest[0] % len(ADJECTIVES)]
    color = COLORS[digest[1] % len(COLORS)]
    animal = ANIMALS[digest[2] % len(ANIMALS)]
    return f"{adjective} {color} {animal}"
