"""dedup_lines_keep_first (functions/dedup.py): first-occurrence
semantics within and across docs, both attach tiers, reassembly
order, empty lines."""

import pandas as pd
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import dedup_lines_keep_first


def _corpus():
    return pa.table({
        "doc_id": [0, 1, 2],
        "text": [
            "alpha\nbeta\nalpha",       # within-doc repeat: 3rd line dropped
            "beta\ngamma",              # 'beta' seen in doc 0 → dropped
            "delta\n\ndelta",           # empty line + within-doc repeat
        ],
    })


@pytest.mark.parametrize("kwargs", [
    {},                                        # broadcast tier
    {"broadcast_limit": 0},                    # sharded tier
])
def test_first_occurrence_semantics(ray_session, kwargs):
    import ray.data as rd

    out = (dedup_lines_keep_first(rd.from_arrow(_corpus()).repartition(2),
                                  **kwargs)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert out["n_lines"].tolist() == [3, 2, 3]
    assert out["n_kept"].tolist() == [2, 1, 2]
    assert out["text"].tolist() == ["alpha\nbeta", "gamma", "delta\n"]


def test_no_duplicates_is_identity(ray_session):
    import ray.data as rd

    t = pa.table({"doc_id": [0, 1],
                  "text": ["a\nb", "c\nd"]})
    out = (dedup_lines_keep_first(rd.from_arrow(t))
           .to_pandas().sort_values("doc_id"))
    assert out["text"].tolist() == ["a\nb", "c\nd"]
    assert (out["n_kept"] == out["n_lines"]).all()


def test_position_packing_guard(ray_session):
    import ray.data as rd

    t = pa.table({"doc_id": [1 << 33], "text": ["x"]})
    with pytest.raises(Exception, match="packing"):
        dedup_lines_keep_first(rd.from_arrow(t)).to_pandas()
