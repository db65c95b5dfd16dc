"""Async multi-tenant gateway fronting the serving cluster.

The pieces, front to back:

* :class:`SimilarityGateway` — the asyncio front door: request
  coalescing over an LRU result cache, weighted-fair micro-batching into
  :meth:`ClusterRouter.search_batch`, per-tenant quotas with typed
  sheds, per-request deadlines, all reported on the router's clock.
* :class:`GatewayConfig` / :class:`TenantConfig` — batch bound,
  cache size, and each tenant's weight + outstanding-request quota.
* :class:`GatewayRequest` / :class:`GatewayResponse` — the replayable
  schedule format :meth:`SimilarityGateway.serve` consumes and returns.

Hedged scatter lives one layer down (``HedgeConfig`` on the router); the
gateway inherits it by dispatching through the batched probe path.
"""

from repro.gateway.gateway import (
    GatewayConfig,
    GatewayRequest,
    GatewayResponse,
    SimilarityGateway,
    TenantConfig,
)

__all__ = [
    "GatewayConfig",
    "GatewayRequest",
    "GatewayResponse",
    "SimilarityGateway",
    "TenantConfig",
]
