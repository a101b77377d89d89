"""Node-local image store with pull semantics and page-cache effects.

Pulling an image makes its layers resident in the node's page cache (the
``free`` channel sees this; the metrics server does not), and repeated
pulls of the same reference are no-ops — exactly the warm-cache regime of
the paper's experiments (§IV-A deploys the same image 10–400 times).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ImageNotFound
from repro.oci.image import Image
from repro.sim.memory import SystemMemoryModel


@dataclass
class PullResult:
    image: Image
    was_cached: bool
    seconds: float


class ImageStore:
    """Registry + node-local content store in one (single-node testbed)."""

    #: effective pull bandwidth for a cold pull (bytes/second); the paper's
    #: testbed pulls from a local registry.
    PULL_BANDWIDTH = 200 * 1024 * 1024

    def __init__(self, memory: Optional[SystemMemoryModel] = None) -> None:
        self._images: Dict[str, Image] = {}
        self._pulled: Dict[str, bool] = {}
        self._memory = memory

    def push(self, image: Image) -> None:
        """Publish an image (build-side)."""
        self._images[image.reference] = image

    def resolve(self, reference: str) -> Image:
        image = self._images.get(reference)
        if image is None:
            raise ImageNotFound(reference)
        return image

    def pull(self, reference: str) -> PullResult:
        """Make an image resident locally; idempotent when warm."""
        image = self.resolve(reference)
        cached = self._pulled.get(reference, False)
        seconds = 0.0 if cached else image.size / self.PULL_BANDWIDTH
        if not cached:
            self._pulled[reference] = True
            if self._memory is not None:
                # Layer content lands in the page cache once per node.
                for layer in image.layers:
                    self._memory.touch_page_cache(f"layer/{layer.digest}", layer.size)
        return PullResult(image=image, was_cached=cached, seconds=seconds)

    def references(self):
        return sorted(self._images)
