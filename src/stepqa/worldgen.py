"""Procedural indoor worlds for benchmarking.

Every world comes out of a single seeded generator, so the same seed
always yields byte-identical world data. Rooms draw furniture from
themed pools, furniture draws portable objects, and each object gets
attribute values from small fixed vocabularies. Attributes that can
only be perceived up close are marked as such on the node, keeping the
world's disclosure behavior aligned with how the planner classifies
those attributes.
"""

from __future__ import annotations

import random
from typing import Any

from .environment import WorldTruth, load_world_truth
from .llm_planner import CLOSE_RANGE_ATTRIBUTES

_ROOM_THEMES: dict[str, tuple[str, ...]] = {
    "living room": ("sofa", "coffee table", "television", "bookshelf", "armchair"),
    "kitchen": ("dining table", "refrigerator", "oven", "counter", "cabinet"),
    "bedroom": ("bed", "wardrobe", "nightstand", "desk", "dresser"),
    "study": ("desk", "bookshelf", "chair", "cabinet"),
    "bathroom": ("sink", "bathtub", "cabinet"),
    "dining room": ("dining table", "cabinet", "bench"),
}

_COLORS = ("red", "blue", "green", "black", "white", "brown", "gray", "yellow")
_MATERIALS = ("wood", "metal", "glass", "plastic", "fabric", "ceramic")
_TITLES = (
    "war and peace", "dune", "the hobbit", "moby dick", "dracula",
    "frankenstein", "the iliad", "hamlet",
)
_BRANDS = ("acme", "orion", "vertex", "nimbus", "atlas")
_ACTIVITIES = ("reading", "sleeping", "watching television", "knitting", "eating")

# label -> attribute pools a generated object samples from
_SMALL_TEMPLATES: tuple[tuple[str, dict[str, tuple[str, ...]]], ...] = (
    ("book", {"color": _COLORS, "title": _TITLES, "state": ("open", "closed")}),
    ("phone", {"color": _COLORS, "brand": _BRANDS}),
    ("cup", {"color": _COLORS, "material": ("ceramic", "glass", "metal")}),
    ("cushion", {"color": _COLORS}),
    ("laptop", {"color": _COLORS, "state": ("open", "closed"), "brand": _BRANDS}),
    ("remote", {"color": _COLORS}),
    ("notebook", {"color": _COLORS, "state": ("open", "closed")}),
    ("vase", {"color": _COLORS, "material": ("ceramic", "glass")}),
    ("bottle", {"color": _COLORS, "state": ("empty", "full")}),
    ("magazine", {"color": _COLORS, "title": _TITLES}),
)

_PERSON_TEMPLATE = (
    "person",
    {"activity": _ACTIVITIES, "state": ("asleep", "awake"), "shirt": _COLORS},
)

SMALL_POOL_LABELS: tuple[str, ...] = tuple(t[0] for t in _SMALL_TEMPLATES)

# furniture whose portable objects sit inside rather than on top
_CONTAINERS = {"wardrobe", "refrigerator", "cabinet", "dresser", "nightstand"}
_SEATS = {"sofa", "bed", "armchair", "bench", "chair"}


def _close_only(attrs: dict[str, str]) -> list[str]:
    return sorted(a for a in attrs if a in CLOSE_RANGE_ATTRIBUTES)


def _sample_attrs(rng: random.Random, pools: dict[str, tuple[str, ...]]) -> dict[str, str]:
    return {name: rng.choice(values) for name, values in sorted(pools.items())}


def random_world_data(
    seed: int,
    rooms: int = 4,
    big_range: tuple[int, int] = (2, 4),
    small_range: tuple[int, int] = (0, 3),
) -> dict[str, Any]:
    """Build the raw world dictionary for one seed."""
    rng = random.Random(seed)
    room_names = rng.sample(sorted(_ROOM_THEMES), k=min(rooms, len(_ROOM_THEMES)))

    world_rooms: list[dict[str, Any]] = []
    edges: list[dict[str, str]] = []
    placed_person = False

    for ri, room_name in enumerate(room_names):
        pool = list(_ROOM_THEMES[room_name])
        count = min(rng.randint(*big_range), len(pool))
        labels = rng.sample(pool, k=count)
        bigs: list[dict[str, Any]] = []
        for bi, label in enumerate(labels):
            attrs = _sample_attrs(rng, {"color": _COLORS, "material": _MATERIALS})
            big: dict[str, Any] = {
                "id": f"f0.r{ri}.b{bi}",
                "label": label,
                "position": [12.0 * ri + 2.0 * bi, 2.0],
                "attributes": attrs,
                "close_only": _close_only(attrs),
                "small_objects": [],
            }
            relation = "in" if label in _CONTAINERS else "on"
            n_small = rng.randint(*small_range)
            for _ in range(n_small):
                small_label, pools = rng.choice(_SMALL_TEMPLATES)
                sattrs = _sample_attrs(rng, pools)
                big["small_objects"].append(
                    {
                        "label": small_label,
                        "relation": relation,
                        "attributes": sattrs,
                        "close_only": _close_only(sattrs),
                    }
                )
            if not placed_person and label in _SEATS and rng.random() < 0.8:
                sattrs = _sample_attrs(rng, _PERSON_TEMPLATE[1])
                big["small_objects"].append(
                    {
                        "label": _PERSON_TEMPLATE[0],
                        "relation": "on",
                        "attributes": sattrs,
                        "close_only": _close_only(sattrs),
                    }
                )
                placed_person = True
            bigs.append(big)
        for bi in range(len(bigs) - 1):
            edges.append(
                {"a": bigs[bi]["id"], "b": bigs[bi + 1]["id"], "relation": "next-to"}
            )
        world_rooms.append(
            {
                "id": f"f0.r{ri}",
                "label": room_name,
                "position": [12.0 * ri, 0.0],
                "big_objects": bigs,
            }
        )

    return {
        "id": f"gen-{seed}",
        "entrance": "f0",
        "floors": [{"id": "f0", "label": "ground floor", "rooms": world_rooms}],
        "spatial_edges": edges,
    }


def random_world(seed: int, **kwargs: Any) -> WorldTruth:
    """Generate a ready-to-use world for one seed."""
    return load_world_truth(random_world_data(seed, **kwargs))
