"""The decompose->color pipeline's outputs, pinned byte for byte.

One SHA-256 over, for every connected subcubic graph with n <= 8 in
enumeration order: the strongly pertinent decomposition's JSON (or the
decomposer's error), the coloring's JSON (or the colorer's error), the
SubcubicStats fields and the colorer's trace lines.  A speed-up of either
stage must leave it unchanged; a deliberate change of output re-pins it
and says why.
"""

import dataclasses
import hashlib

from locirr.constructive import SubcubicStats, color_subcubic_4
from locirr.decompose import strongly_pertinent_decomposition
from locirr.graph import GraphError

PINNED = "b51ff6e96769790a11c6ac52bde31a7dcf5d3931fdd2b5b3a78d35a82d330363"


def pipeline_record(g) -> str:
    try:
        d = strongly_pertinent_decomposition(g)
    except GraphError as exc:
        return f"decompose: {exc}\n"
    stats, trace = SubcubicStats(), []
    try:
        colored = color_subcubic_4(g, d, stats=stats, trace=trace).to_json()
    except GraphError as exc:
        colored = f"color: {exc}"
    return f"{d.to_json()}\n{colored}\n{dataclasses.asdict(stats)}\n{trace}\n"


def test_subcubic_pipeline_digest(subcubic_small):
    digest = hashlib.sha256()
    for g in subcubic_small:
        digest.update(pipeline_record(g).encode())
    assert len(subcubic_small) == 307
    assert digest.hexdigest() == PINNED
