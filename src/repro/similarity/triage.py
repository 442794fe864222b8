"""Similarity-clustered bug-report triage.

A testing campaign attributes every oracle violation to a known bug id, but
distinct bug ids (or duplicate reports folded across rounds) often trigger
through near-identical plans.  :func:`cluster_reports` groups a campaign's
bug reports by plan similarity so a triager reads one exemplar per plan
shape instead of every report:

1. each report's captured trigger plan (``report.trigger_plan``, the
   :meth:`~repro.core.model.UnifiedPlan.to_dict` payload recorded by the
   campaign when the report was filed) is embedded with
   :func:`repro.similarity.embed_plan`;
2. reports greedily join the first existing cluster whose **anchor** (its
   founding report's embedding) lies within ``threshold`` cosine distance —
   nearest anchor wins, exact distance ties resolve to the earliest
   cluster, so clustering is deterministic and independent of numpy on/off;
3. each cluster's exemplar is re-ranked with the public tree-edit distance
   (:func:`repro.core.compare.plan_distance`): the member whose plan
   minimises the total edit distance to its co-members becomes the
   exemplar, ties breaking by structural fingerprint then arrival order.
   The distance is an n x m dynamic programme, so a cluster whose
   structurally different member pairs sum past
   :data:`RERANK_CELL_BUDGET` cells skips it and takes the first member
   in (structural fingerprint, arrival) order instead.

Reports without a readable captured plan become singleton clusters in
arrival order; a readable plan of any depth clusters.
The function is pure — it never mutates the reports — and duck-typed over
any object with ``trigger_plan``, so it clusters live :class:`BugReport`
objects and payload-restored ones identically.  Cluster assignments are
**recomputed wherever they are needed** (in particular by a sharded
campaign's parent after folding worker payloads) rather than shipped across
process boundaries; determinism makes every recomputation agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.compare import plan_distance, structural_fingerprint
from repro.core.model import UnifiedPlan
from repro.errors import ReproError
from repro.similarity.embedding import embed_plan
from repro.similarity.index import cosine_distance

#: Default cosine-distance radius for joining a cluster.  Embeddings are
#: integer count vectors, so 0.15 groups plans sharing operator mix and
#: shape while splitting different plan families (tests/test_similarity.py,
#: ``TestClusterReports``).
DEFAULT_CLUSTER_THRESHOLD = 0.15

#: The most n x m edit-distance cells one cluster's exemplar rerank may
#: cost, summed over its ordered pairs of structurally different plans.
#: Two 300-level plans cost ~0.2 M; two differing 5 000-level plans would
#: cost 50 M cells and most of a minute.
RERANK_CELL_BUDGET = 2_000_000


@dataclass
class ReportCluster:
    """One similarity cluster of bug reports.

    ``members`` preserves the reports' arrival order; ``exemplar`` is the
    edit-distance medoid of the cluster (see module docstring) and is
    always one of ``members``.
    """

    exemplar: object
    members: List[object] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)


def _trigger_plan(report: object) -> Optional[UnifiedPlan]:
    payload = getattr(report, "trigger_plan", None)
    if not isinstance(payload, dict):
        return None
    try:
        return UnifiedPlan.from_dict(payload)
    except ReproError:
        return None


def _rerank_exemplar(
    items: List[Tuple[object, Optional[UnifiedPlan]]]
) -> object:
    """The member minimising total edit distance to its co-members.

    Past :data:`RERANK_CELL_BUDGET` no distance is computed: the first
    member in (structural fingerprint, arrival) order, the rerank's own
    tie-break, is the exemplar.
    """
    if len(items) == 1:
        return items[0][0]
    fingerprints = [structural_fingerprint(plan) for _, plan in items]
    sizes = [plan.node_count() for _, plan in items]
    positions = range(len(items))
    cells = sum(
        sizes[i] * sizes[j] for i in positions for j in positions if fingerprints[i] != fingerprints[j]
    )
    if cells > RERANK_CELL_BUDGET:
        return items[min(positions, key=lambda position: (fingerprints[position], position))][0]
    best: Optional[Tuple[int, str, int]] = None
    for position, (_, plan) in enumerate(items):
        total = 0
        for other_position, (_, other_plan) in enumerate(items):
            if other_position != position:
                total += plan_distance(plan, other_plan)
        key = (total, fingerprints[position], position)
        if best is None or key < best:
            best = key
    return items[best[2]][0]


def cluster_reports(
    reports: Sequence[object],
    *,
    threshold: float = DEFAULT_CLUSTER_THRESHOLD,
) -> List[ReportCluster]:
    """Group *reports* into plan-similarity clusters (see module docstring).

    Deterministic for a given report sequence: greedy nearest-anchor
    assignment in arrival order with fixed tie-breaks, embeddings and
    distances identical with and without numpy.
    """
    clusters: List[dict] = []
    for report in reports:
        plan = _trigger_plan(report)
        if plan is None:
            clusters.append({"anchor": None, "items": [(report, None)]})
            continue
        vector = embed_plan(plan)
        best: Optional[Tuple[float, int]] = None
        for position, cluster in enumerate(clusters):
            if cluster["anchor"] is None:
                continue
            distance = cosine_distance(vector, cluster["anchor"])
            if best is None or distance < best[0]:
                best = (distance, position)
        if best is not None and best[0] <= threshold:
            clusters[best[1]]["items"].append((report, plan))
        else:
            clusters.append({"anchor": vector, "items": [(report, plan)]})
    result: List[ReportCluster] = []
    for cluster in clusters:
        items = cluster["items"]
        if cluster["anchor"] is None:
            exemplar = items[0][0]
        else:
            exemplar = _rerank_exemplar(items)
        result.append(
            ReportCluster(
                exemplar=exemplar, members=[report for report, _ in items]
            )
        )
    return result
