"""Network transport: the gateway's TCP front door (see architecture §10).

``protocol`` is the length-prefixed JSON wire codec, ``server`` the
asyncio TCP server over one long-lived
:class:`~repro.gateway.gateway.SimilarityGateway`, ``client`` the
pooled blocking client.  ``repro serve`` and ``repro query
--connect`` are the CLI ends of the same wire.
"""

from .client import GatewayClient
from .protocol import (
    DEFAULT_MAX_FRAME,
    Frame,
    FrameDecoder,
    encode_frame,
)
from .server import GatewayServer, ServerConfig

__all__ = [
    "DEFAULT_MAX_FRAME",
    "Frame",
    "FrameDecoder",
    "GatewayClient",
    "GatewayServer",
    "ServerConfig",
    "encode_frame",
]
