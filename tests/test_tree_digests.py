"""Every cluster's tree reruns to its committed digest.

``tests/tree_digests.py`` defines the pinned graphs and methods and writes
``tests/tree_digests.json``; a failure names each case and its first
moved cluster.
"""

from tests import tree_digests


def test_trees_match_the_committed_digests():
    moved = tree_digests.moved(tree_digests.compute(), tree_digests.load())
    assert not moved, "{} case(s) moved:\n{}".format(len(moved), "\n".join(moved))


def test_a_moved_cluster_is_named():
    pinned = {"a": ["00000000", "11111111"], "b": ["22222222"]}
    computed = {"a": ["00000000", "33333333"], "c": []}
    assert tree_digests.moved(computed, pinned) == [
        "a: cluster 1 moved (2 clusters now, 2 pinned)",
        "b: not run",
        "c: not pinned",
    ]
