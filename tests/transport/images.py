"""Tests' stand-in for the naplet table's hold on images.

A server keeps each naplet's last per-field image on the naplet's record
(``server.manager.footprint(nid).image``) and hands it to its serializer
as ``prev``; :class:`ImageKeeper` is a serializer that keeps them the same
way for tests that drive two serializers by hand: ``dump`` and ``land``
pass the naplet's previous image and keep the new one, letting the old
one go; ``bury`` cuts an image to its manifest, as a departure or a
retirement does.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.transport.delta import Image
from repro.transport.serializer import NapletSerializer

__all__ = ["ImageKeeper"]


class ImageKeeper(NapletSerializer):
    """A serializer plus the image it keeps of each naplet, by id text."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.images: dict[str, Image] = {}

    def image(self, nid: Any) -> Image | None:
        return self.images.get(str(nid))

    def keep(self, nid: Any, image: Image | None) -> None:
        """*image* replaces the one kept of *nid*, which is let go."""
        self.blobs.let_go(self.images.pop(str(nid), None))
        if image is not None:
            self.images[str(nid)] = image

    def bury(self, nid: Any) -> None:
        """The naplet left (its departure was acked) or retired: the manifest stays."""
        self.images[str(nid)] = self.images[str(nid)].manifest()

    def held(self, agent: Any) -> set[str]:
        """What a peer that kept this side's current image of *agent* holds."""
        nid = str(agent.naplet_id)
        return {nid, *self.images[nid].field_hashes().values()}

    def dump(self, agent: Any, **kwargs: Any) -> tuple[bytes, list[Any], Any]:
        """``dumps_with_cost`` against the kept image: ``(data, buffers, cost)``."""
        nid = str(agent.naplet_id)
        data, buffers, cost, image = self.dumps_with_cost(agent, prev=self.image(nid), **kwargs)
        self.keep(nid, image)
        return data, buffers, cost

    def land(self, data: bytes, cache: Any = None, *, buffers: Any = None) -> tuple[Any, dict]:
        """``loads_with_info`` against the kept image of the envelope's naplet."""
        try:
            nid = pickle.loads(data, buffers=buffers)[0]
        except Exception:  # the serializer's own read names what is wrong
            nid = None
        obj, info = self.loads_with_info(data, cache, buffers=buffers, prev=self.image(nid))
        if info["image"] is not None:
            self.keep(nid, info["image"])
        return obj, info
