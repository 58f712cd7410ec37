"""Per-tile embeddings and fused model+similarity queries (DESIGN §10)."""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".fusion": "BLEND_FLOPS FusionSpec",
        ".tiles": "EMBEDDINGS_FORMAT TILE_STATS TileEmbedder TileEmbeddings",
    },
)
