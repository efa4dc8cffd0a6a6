"""Combinatorial diffusion auctions on social networks.

Bidders report monotone bundle valuations plus the neighbors they invite;
reachable bidders are split into dealers and price-setters, bundles are
divided greedily, and each dealer resells her bundle to her own invitees
through a single-item diffusion mechanism or keeps a reserve bundle at its
second price.  A brute-force verification lab checks the incentive
properties (individual rationality, incentive compatibility, budget balance,
candidacy consistency, bundle-division locality, revenue consistency, and
positive incentives for non-winners) by exhaustive or seeded deviation
enumeration.
"""

__version__ = "0.1.0"
